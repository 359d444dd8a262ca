/**
 * @file
 * Measurement plumbing shared by the benchmark's workloads: a
 * monotonic clock, an in-memory span recorder that writes Chrome
 * trace-event JSON, order statistics, and the run result that main()
 * prints as the last line of standard output.
 *
 * Spans are recorded from the benchmark's own code around each call
 * into a library layer. A span has a name, a start, an end and a
 * parent; self time is the span's duration minus the time its direct
 * children cover. Recording happens on the calling thread only (the
 * library's pool threads never enter benchmark code).
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on CLOCK_MONOTONIC (the clock run.py stamps). */
std::int64_t nowNs();

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile, @p q in [0, 1] (0 when empty). */
double percentile(std::vector<double> v, double q);

/** Peak resident set of this process in MiB (getrusage). */
double peakRssMib();

class Trace
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t start = 0;
        std::int64_t end = 0;
        int parent = -1;
        std::string label; ///< optional tag (pack name), "" if none
    };

    explicit Trace(bool on) : on_(on) {}

    bool on() const { return on_; }

    /** Open a span under the innermost open one; returns its id
     *  (-1 when tracing is off). */
    int begin(const char *name, std::int64_t start,
              const std::string &label = {});
    /** Close span @p id and any span still open inside it. */
    void end(int id, std::int64_t end);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time in ms of every span named @p name, in order. A
     * non-empty @p label keeps only spans carrying it; a non-empty
     * @p root keeps only spans whose outermost ancestor has that name
     * (so set-up work does not mix with the timed blocks).
     */
    std::vector<double> selfMs(const std::string &name,
                               const std::string &label = {},
                               const std::string &root = {}) const;

    /** Write all spans as Chrome trace-event JSON; false on I/O
     *  error. */
    bool writeChrome(const std::string &path) const;

  private:
    bool on_;
    std::vector<Span> spans_;
    /** Ids of the open spans, innermost last. */
    std::vector<int> stack_;
};

/**
 * Times one call into a layer. The clock is read in both modes so the
 * traced and untraced runs time the same interval; only the traced
 * run records a span.
 */
class Scope
{
  public:
    Scope(Trace &trace, const char *name, const std::string &label = {})
        : trace_(trace), start_(nowNs()),
          id_(trace.begin(name, start_, label))
    {
    }
    ~Scope() { stop(); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Close the span now (idempotent); returns its duration in ms. */
    double stop();

  private:
    Trace &trace_;
    std::int64_t start_;
    std::int64_t end_ = 0;
    int id_;
};

/** What one invocation of the benchmark reports. */
struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Failed correctness checks, human-readable. */
    std::vector<std::string> errors;
    /** Metric values by name; units live in BENCHMARK.json. */
    std::map<std::string, double> endToEnd;
    std::map<std::string, double> perLayer;

    /** Record a check outcome; a non-empty @p error fails the run. */
    bool check(const std::string &what, const std::string &error);
};

/** Settings every workload receives from the command line. */
struct RunSettings
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::int64_t startNs = 0; ///< process start (CLOCK_MONOTONIC ns)
    std::string outDir;       ///< where the trace file goes
};

} // namespace perfbench
