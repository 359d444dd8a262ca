#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

#include <sys/resource.h>

namespace perfbench {

std::int64_t
nowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = std::size_t(std::ceil(q * double(v.size())));
    return v[rank == 0 ? 0 : rank - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

int
Trace::begin(const char *name, std::int64_t start, const std::string &label)
{
    if (!on_)
        return -1;
    Span s;
    s.name = name;
    s.start = start;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.label = label;
    spans_.push_back(std::move(s));
    stack_.push_back(int(spans_.size()) - 1);
    return stack_.back();
}

void
Trace::end(int id, std::int64_t end)
{
    if (id < 0)
        return;
    spans_[std::size_t(id)].end = end;
    // Closing a span also closes any child still open inside it.
    while (!stack_.empty()) {
        int top = stack_.back();
        stack_.pop_back();
        if (top == id)
            break;
        spans_[std::size_t(top)].end = end;
    }
}

std::vector<double>
Trace::selfMs(const std::string &name, const std::string &label,
              const std::string &root) const
{
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child_ns[std::size_t(s.parent)] += s.end - s.start;
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.name != name || (!label.empty() && s.label != label))
            continue;
        int top = int(i);
        while (spans_[std::size_t(top)].parent >= 0)
            top = spans_[std::size_t(top)].parent;
        if (!root.empty() && spans_[std::size_t(top)].name != root)
            continue;
        out.push_back(double(s.end - s.start - child_ns[i]) / 1e6);
    }
    return out;
}

bool
Trace::writeChrome(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
    for (const Span &s : spans_)
        origin = std::min(origin, s.start);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d%s%s%s}}%s\n",
                     s.name.c_str(), double(s.start - origin) / 1e3,
                     double(s.end - s.start) / 1e3, i, s.parent,
                     s.label.empty() ? "" : ", \"label\": \"",
                     s.label.c_str(), s.label.empty() ? "" : "\"",
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

double
Scope::stop()
{
    if (end_ == 0) {
        end_ = nowNs();
        trace_.end(id_, end_);
    }
    return double(end_ - start_) / 1e6;
}

bool
RunResult::check(const std::string &what, const std::string &error)
{
    if (error.empty())
        return true;
    errors.push_back(what + ": " + error);
    return false;
}

} // namespace perfbench
