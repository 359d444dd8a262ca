/**
 * @file
 * The repository benchmark. Runs one named workload from a
 * seed, checks the program's outputs, and prints as the last line of
 * standard output one JSON object:
 *
 *   {"correct": ..., "attempted": N, "failed": N,
 *    "metrics": {"name": value, ...}}
 *
 * run.py adds each metric's unit from BENCHMARK.json. With --trace 0
 * the metrics are the end-to-end ones; with --trace 1 they are the
 * per-layer ones, taken from spans recorded around each
 * call into a library layer, and the spans are written as Chrome
 * trace-event JSON into the output directory.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--start-ns NS] [--out-dir DIR]
 * Workloads: verifier-top8, fast-top8, fast-hot, stream-durable.
 * --start-ns is the CLOCK_MONOTONIC time the process was launched
 * (set-up time is measured from it; default: entry to main()).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--start-ns NS] [--out-dir DIR]\n"
                 "workloads: verifier-top8 fast-top8 fast-hot "
                 "stream-durable\n",
                 why);
    return 2;
}

/** The metrics a workload set, as a JSON object of name -> value. */
std::string
metricsJson(const std::map<std::string, double> &metrics)
{
    std::string out = "{";
    for (const auto &[name, value] : metrics) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(value) ? value : 0.0);
        if (out.size() > 1)
            out += ", ";
        out += "\"" + name + "\": " + buf;
    }
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t entry_ns = nowNs();
    std::string workload;
    RunSettings settings;
    settings.startNs = entry_ns;
    settings.outDir = ".bench_build/perfbench-data";
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        if (arg == "--workload") {
            workload = value;
        } else if (arg == "--seed") {
            settings.seed = std::strtoull(value.c_str(), nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds") {
            settings.seconds = std::atof(value.c_str());
            have_seconds = settings.seconds > 0;
        } else if (arg == "--trace") {
            settings.trace = value == "1";
            have_trace = value == "0" || value == "1";
        } else if (arg == "--start-ns") {
            settings.startNs = std::strtoll(value.c_str(), nullptr, 10);
        } else if (arg == "--out-dir") {
            settings.outDir = value;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds (> 0) and --trace 0|1 are required");

    try {
        std::filesystem::create_directories(settings.outDir);
        Trace trace(settings.trace);
        RunResult result;
        if (workload == "verifier-top8")
            result = runVerifier(settings, trace);
        else if (workload == "fast-top8")
            result = runFast(settings, trace, false);
        else if (workload == "fast-hot")
            result = runFast(settings, trace, true);
        else if (workload == "stream-durable")
            result = runStream(settings, trace);
        else
            return usage(("unknown workload '" + workload + "'").c_str());
        setEndToEnd(result, "peak_rss_mb", peakRssMib());

        if (trace.on()) {
            const std::string path = settings.outDir + "/trace-" + workload
                                   + "-seed" + std::to_string(settings.seed)
                                   + ".json";
            if (!trace.writeChrome(path))
                result.check("trace file", "cannot write " + path);
            else
                std::fprintf(stderr, "perfbench: wrote %s (%zu spans)\n",
                             path.c_str(), trace.spans().size());
        }
        for (const std::string &e : result.errors)
            std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());

        const bool correct = result.errors.empty() && result.failed == 0;
        const std::string metrics =
            metricsJson(trace.on() ? result.perLayer : result.endToEnd);
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                    "\"metrics\": %s}\n",
                    correct ? "true" : "false",
                    (unsigned long long)result.attempted,
                    (unsigned long long)result.failed, metrics.c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
