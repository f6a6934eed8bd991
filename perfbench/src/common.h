/**
 * @file
 * Shared plumbing for the repository benchmark (uov_perfbench): the
 * command line, exact-rank statistics over raw samples, the result
 * record printed as the last stdout line, the host fingerprint, and
 * a drop-checked session over the span tracer's self-time table.
 *
 * Every percentile here is computed from the benchmark's own raw
 * samples by exact nearest rank (rank ceil(q*n)); nothing reads the
 * program's bucketed histograms.
 */

#ifndef UOV_PERFBENCH_COMMON_H
#define UOV_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Branch-and-bound node budget of every solve query (fingerprinted). */
constexpr uint64_t kSolveMaxVisits = 10'000;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Parsed command line (see usage() in main.cc). */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string expected_dir; ///< committed expected-output files
    std::string work_dir;     ///< scratch (stores, JIT cache), removed at exit
    std::string git_describe = "unknown";
};

/** Exact nearest-rank @p q quantile (q in (0, 1]) of @p samples. */
double nearestRank(std::vector<double> samples, double q);

inline double
median(const std::vector<double> &samples)
{
    return nearestRank(samples, 0.5);
}

/**
 * The smallest of @p samples (0 for an empty input): the best-of-N
 * time.  Interference from other tenants only ever adds time, and the
 * shared host alternates between a fast and a slow speed for seconds
 * to minutes at a time, so a median records how long the host stayed
 * slow while the fastest sample records what the code costs.
 */
double fastest(const std::vector<double> &samples);

/** Geometric mean of positive values (0 for an empty input). */
double geomean(const std::vector<double> &values);

/** Peak resident set of this process, in MB (VmHWM). */
double peakRssMb();

/**
 * Return freed heap to the OS and restart the peak-RSS count from the
 * current resident set, so peakRssMb() covers the timed phase.  Set-up
 * transients (a cold pass's searches, the interpreter reference) would
 * otherwise make it depend on which seeded inputs happened to overlap
 * or fragment the heap.  Memory that set-up leaves live still counts.
 */
void resetPeakRss();

/**
 * One run's outcome: the metrics that go into the final JSON line,
 * the operation counts behind correct/attempted/failed, and the
 * first few failure messages (printed to stderr).
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Count one checked operation; a false @p ok is a failure. */
    void check(bool ok, const std::string &what);

    /** Human-readable line on stdout (before the result line). */
    void note(const std::string &line);

    uint64_t attempted() const { return _attempted; }
    uint64_t failed() const { return _failed; }

    /** The contract's last line: correct, attempted, failed, metrics. */
    std::string json() const;

  private:
    struct Value
    {
        double value;
        std::string unit;
    };
    std::map<std::string, Value> _metrics;
    uint64_t _attempted = 0;
    uint64_t _failed = 0;
    std::vector<std::string> _failures;
};

/** Host and build fingerprint, one JSON object (printed per run). */
std::string fingerprintJson(const Args &args,
                            const std::map<std::string, std::string>
                                &extra);

/**
 * The traced phase of a --trace 1 run.  Enables the process tracer
 * with per-thread buffers of @p capacity events (sized by the caller
 * for the work it will trace), and on finish() disables it and keeps
 * the per-span-name summary.  Every workload records trace.dropped,
 * which must be 0: a full buffer silently loses spans.
 */
class TraceSession
{
  public:
    explicit TraceSession(size_t capacity);
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    void finish();

    uint64_t dropped() const { return _dropped; }

    /** Self time of span @p name per call, in microseconds (0 if it
     *  never ran). */
    double selfUsPerCall(const std::string &name) const;

    /** The self-time table, for the run's human-readable output. */
    std::string table() const;

  private:
    bool _finished = false;
    uint64_t _dropped = 0;
    std::map<std::string, uov::trace::SpanSummary> _spans;
};

/** Remove @p path recursively; errors are ignored. */
void removeTree(const std::string &path);

/** Run one workload into @p report (defined per workload file). */
void runSolve(const Args &args, Report &report);
void runServe(const Args &args, Report &report);
void runKernels(const Args &args, Report &report);

} // namespace perfbench

#endif // UOV_PERFBENCH_COMMON_H
