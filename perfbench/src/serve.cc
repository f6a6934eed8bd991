/**
 * @file
 * Workload `serve`: warm, duplicate-heavy request traffic.
 *
 * The request stream is fuzz::makeWorkload(seed) (about 8 requests per
 * distinct query), rendered to protocol lines and cut into fixed-size
 * batches.  One client sends the batches back to back (a closed loop),
 * pass after pass over the stream: parseRequests, then runBatch on a
 * 2-worker pool with a telemetry plane (flight recorder + SLO tracker)
 * attached as in an admin-armed uovd.  The distinct pool is solved
 * into a result store once; each timed set-up then solves the pool
 * cold on a storeless service and opens a new QueryService on the
 * store (open -> validate -> preload) as a restarted daemon does.  The
 * store's fsync'd appends stay out of set-up time.  Every timed
 * request is a cache hit and runs no search: the time goes to parse,
 * canonicalize, cache lookup, render and fan-out -- the read side of
 * the layer that the solve workload writes.
 *
 * Checks: every response line is byte-identical to runBatchDirect on
 * its distinct query, and the timed phase runs no search.
 */

#include <memory>
#include <sstream>

#include "common.h"
#include "fuzz/workload.h"
#include "service/executor.h"
#include "service/result_cache.h"
#include "service/service.h"
#include "service/store.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/slo.h"

namespace perfbench {

using namespace uov;
using namespace uov::service;

namespace {

constexpr size_t kDistinct = 256;
constexpr size_t kStream = 8 * kDistinct;
constexpr size_t kBatch = 256;
/** Bounds the cold pass; answers are deterministic under it. */
constexpr uint64_t kMaxVisits = 2'000;
constexpr unsigned kWorkers = 2;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;
/** Passes in the traced phase (a 20k-request traced replay). */
constexpr size_t kTracedPasses = 10;
/** Batch pairs behind the plane and fan-out overhead ratios. */
constexpr size_t kComparisonBatches = 80;

/** The response @p line with its request index replaced by @p index. */
std::string
withIndex(const std::string &line, size_t index)
{
    auto verb_end = line.find(' ');
    auto idx_end = line.find(' ', verb_end + 1);
    return line.substr(0, verb_end) + " " + std::to_string(index) +
           (idx_end == std::string::npos ? "" : line.substr(idx_end));
}

ServiceOptions
serviceOptions(const std::string &store_path)
{
    ServiceOptions so;
    so.max_visits = kMaxVisits;
    so.store_path = store_path;
    return so;
}

struct Traffic
{
    std::vector<std::string> batches;  ///< protocol text, kBatch lines
    std::vector<std::vector<std::string>> expected; ///< per batch line
    std::vector<Request> distinct;     ///< one request per query
};

Traffic
makeTraffic(uint64_t seed)
{
    fuzz::WorkloadOptions wopt;
    wopt.requests = kStream;
    wopt.distinct = kDistinct;
    wopt.seed = seed;
    std::vector<Request> stream = fuzz::makeWorkload(wopt);

    Traffic t;
    std::vector<std::string> lines;
    std::map<std::string, size_t> distinct_index;
    for (const Request &r : stream) {
        lines.push_back(fuzz::renderRequest(r));
        if (distinct_index.emplace(lines.back(), t.distinct.size())
                .second) {
            t.distinct.push_back(r);
            t.distinct.back().index = t.distinct.size();
        }
    }
    // The reference: the single-threaded direct executor, no service.
    std::vector<std::string> direct =
        runBatchDirect(t.distinct, kMaxVisits);
    for (size_t b = 0; b < lines.size() / kBatch; ++b) {
        std::string text;
        std::vector<std::string> expected;
        for (size_t j = 0; j < kBatch; ++j) {
            const std::string &line = lines[b * kBatch + j];
            text += line + "\n";
            expected.push_back(
                withIndex(direct[distinct_index[line]], j + 1));
        }
        t.batches.push_back(text);
        t.expected.push_back(expected);
    }
    return t;
}

/** The serving state a restarted daemon would have. */
struct Server
{
    MetricsRegistry metrics;
    std::unique_ptr<QueryService> service;
};

/**
 * The store a restarted daemon finds: the distinct pool solved into a
 * fresh store.  Written once and not timed: each append's fsync costs
 * 0.1-0.4 ms on a shared disk and varies by more than the rest.
 */
void
writeStore(const Traffic &t, const std::string &store_path,
           ThreadPool &pool)
{
    removeTree(store_path);
    MetricsRegistry metrics;
    QueryService cold(serviceOptions(store_path), metrics);
    runBatch(cold, t.distinct, pool);
}

/**
 * One set-up: the distinct pool solved cold on a storeless service,
 * then a new service opened on the store.  Returns seconds.
 */
double
setUp(const Traffic &t, const std::string &store_path, ThreadPool &pool,
      Server &server)
{
    auto start = Clock::now();
    {
        MetricsRegistry cold_metrics;
        QueryService cold(serviceOptions(""), cold_metrics);
        runBatch(cold, t.distinct, pool);
    }
    server.service = std::make_unique<QueryService>(
        serviceOptions(store_path), server.metrics);
    return secondsSince(start);
}

struct BatchTimes
{
    std::vector<double> pass_ms;        ///< every batch once, in order
    std::vector<double> total_ms;       ///< parse + runBatch
    std::vector<double> run_ms;         ///< runBatch alone
    std::vector<std::vector<double>> per_batch_ms; ///< by batch text
    size_t requests = 0;
};

/** One batch: parse its text, run it, check every response line. */
void
runOne(const Traffic &t, size_t b, QueryService &svc, ThreadPool &pool,
       const TelemetryPlane *plane, BatchTimes &times, Report &report)
{
    auto start = Clock::now();
    std::vector<Request> requests;
    {
        trace::Span span("bench.serve.parse");
        std::istringstream in(t.batches[b]);
        requests = parseRequests(in);
    }
    auto parsed = Clock::now();
    std::vector<std::string> responses;
    {
        trace::Span span("bench.serve.run_batch");
        responses = runBatch(svc, requests, pool, nullptr, plane);
    }
    double run_ms = secondsSince(parsed) * 1e3;
    double total_ms = secondsSince(start) * 1e3;
    times.total_ms.push_back(total_ms);
    times.run_ms.push_back(run_ms);
    times.per_batch_ms[b].push_back(total_ms);
    times.requests += responses.size();

    const auto &expected = t.expected[b];
    bool ok = responses.size() == expected.size();
    size_t bad = 0;
    for (size_t j = 0; ok && j < responses.size(); ++j)
        bad += responses[j] != expected[j];
    report.check(ok && bad == 0,
                 "serve batch " + std::to_string(b) + ": " +
                     std::to_string(bad) +
                     " response lines differ from runBatchDirect");
}

/** Passes over the stream for @p seconds (or exactly @p count). */
BatchTimes
runPasses(const Traffic &t, QueryService &svc, ThreadPool &pool,
          const TelemetryPlane *plane, double seconds, size_t count,
          Report &report)
{
    BatchTimes times;
    times.per_batch_ms.resize(t.batches.size());
    auto start = Clock::now();
    for (size_t n = 0;; ++n) {
        if (count ? n >= count
                  : n >= 2 && secondsSince(start) >= seconds)
            break;
        auto pass_start = Clock::now();
        for (size_t b = 0; b < t.batches.size(); ++b)
            runOne(t, b, svc, pool, plane, times, report);
        times.pass_ms.push_back(secondsSince(pass_start) * 1e3);
    }
    return times;
}

} // namespace

void
runServe(const Args &args, Report &report)
{
    Traffic traffic = makeTraffic(args.seed);
    report.note("traffic " + std::to_string(kStream) + " requests over " +
                std::to_string(traffic.distinct.size()) +
                " distinct queries, " +
                std::to_string(traffic.batches.size()) +
                " batches of " + std::to_string(kBatch));

    ThreadPool pool(kWorkers);
    // The cold pass runs on one thread: with two, peak RSS depends on
    // which memory-heavy searches happen to overlap.
    ThreadPool cold_pool(1);
    const std::string store_path = args.work_dir + "/serve.store";
    writeStore(traffic, store_path, cold_pool);
    std::unique_ptr<Server> server;
    std::vector<double> setups;
    for (int k = 0; k < kSetups; ++k) {
        server.reset();
        server = std::make_unique<Server>();
        setups.push_back(setUp(traffic, store_path, cold_pool, *server));
    }
    QueryService &svc = *server->service;
    report.check(svc.store() != nullptr &&
                     svc.store()->stats().records_loaded > 0,
                 "serve: the reopened store preloaded nothing");

    telemetry::FlightRecorder flight(256);
    telemetry::SloTracker slo;
    TelemetryPlane plane;
    plane.flight = &flight;
    plane.slo = &slo;
    plane.log_outcomes = true;

    resetPeakRss();
    uint64_t searches_before = svc.searchesExecuted();
    auto cache_before = svc.cacheStats();
    double untraced = args.trace ? args.seconds / 2 : args.seconds;
    BatchTimes times =
        runPasses(traffic, svc, pool, &plane, untraced, 0, report);
    double pass_best = fastest(times.pass_ms);
    double p50 = nearestRank(times.total_ms, 0.5);
    double p90 = nearestRank(times.total_ms, 0.9);
    double timed_s = 0;
    for (double ms : times.pass_ms)
        timed_s += ms / 1e3;
    report.note("passes " + std::to_string(times.pass_ms.size()) +
                " pass_ms_best=" + std::to_string(pass_best) +
                " req_per_s=" +
                std::to_string(static_cast<double>(times.requests) /
                               timed_s));
    report.note("batches " + std::to_string(times.total_ms.size()) +
                " batch_ms_p50=" + std::to_string(p50) +
                " batch_ms_p90=" + std::to_string(p90) +
                " (nearest rank over " +
                std::to_string(times.total_ms.size()) + " samples)");

    if (!args.trace) {
        report.check(svc.searchesExecuted() == searches_before,
                     "serve: the timed phase ran a search");
        std::vector<double> per_batch;
        double set_ms = 0;
        for (const auto &samples : times.per_batch_ms) {
            per_batch.push_back(fastest(samples));
            set_ms += per_batch.back();
        }
        report.metric("setup_s", median(setups), "s");
        report.metric("peak_rss_mb", peakRssMb(), "MB");
        report.metric("op_ms_geomean", geomean(per_batch), "ms");
        report.metric("set_ms_best", set_ms, "ms");
        return;
    }

    // Untraced comparisons: the plane's cost (alternating batches with
    // and without it), and runBatch against serial runRequest calls.
    BatchTimes with_plane, without_plane;
    with_plane.per_batch_ms.resize(traffic.batches.size());
    without_plane.per_batch_ms.resize(traffic.batches.size());
    std::vector<double> serial_ms;
    for (size_t k = 0; k < kComparisonBatches; ++k) {
        size_t b = k % traffic.batches.size();
        runOne(traffic, b, svc, pool, &plane, with_plane, report);
        runOne(traffic, b, svc, pool, nullptr, without_plane, report);
        std::istringstream in(traffic.batches[b]);
        std::vector<Request> requests = parseRequests(in);
        auto start = Clock::now();
        for (const Request &r : requests)
            runRequest(svc, r);
        serial_ms.push_back(secondsSince(start) * 1e3);
    }

    // Store open and preload, timed apart from the service constructor.
    uint64_t store_bytes = 0;
    {
        TraceSession session(4096);
        {
            std::unique_ptr<ResultStore> store;
            {
                trace::Span span("bench.store.open");
                store = std::make_unique<ResultStore>(store_path);
            }
            ResultCache cache(64ull << 20);
            {
                trace::Span span("bench.store.preload");
                store->preload(cache);
            }
            store_bytes = store->stats().file_bytes;
        }
        session.finish();
        report.metric("service.store_open_ms",
                      session.selfUsPerCall("bench.store.open") / 1e3,
                      "ms");
        report.metric("service.store_preload_ms",
                      session.selfUsPerCall("bench.store.preload") / 1e3,
                      "ms");
    }

    // Traced phase: ~14 events per request on whichever worker runs
    // it, plus the parse spans on this thread.
    size_t traced_requests = kTracedPasses * kStream;
    TraceSession session(16 * traced_requests + 4096);
    BatchTimes traced = runPasses(traffic, svc, pool, &plane, 0.0,
                                  kTracedPasses, report);
    session.finish();
    report.note(session.table());

    auto cache_after = svc.cacheStats();
    uint64_t hits = cache_after.hits - cache_before.hits;
    uint64_t lookups = cache_after.lookups - cache_before.lookups;
    report.metric("service.parse_us", session.selfUsPerCall("service.parse"),
                  "us");
    report.metric("service.canonicalize_us",
                  session.selfUsPerCall("service.canonicalize"), "us");
    report.metric("service.cache_lookup_us",
                  session.selfUsPerCall("service.cache.lookup"), "us");
    report.metric("service.render_us",
                  session.selfUsPerCall("service.render"), "us");
    report.metric("service.cache_hit_ratio",
                  lookups ? static_cast<double>(hits) /
                                static_cast<double>(lookups)
                          : 0.0,
                  "1");
    report.metric("service.searches",
                  static_cast<double>(svc.searchesExecuted() -
                                      searches_before),
                  "count");
    report.check(svc.searchesExecuted() == searches_before,
                 "serve: the timed phase ran a search");
    report.metric("service.batch_overhead_ratio",
                  median(with_plane.run_ms) /
                      (median(serial_ms) / kWorkers),
                  "1");
    report.metric("service.batch_ms_p50", p50, "ms");
    report.metric("service.batch_ms_p90", p90, "ms");
    report.metric("service.store_bytes", static_cast<double>(store_bytes),
                  "bytes");
    report.metric("telemetry.plane_overhead_ratio",
                  median(with_plane.total_ms) /
                      median(without_plane.total_ms),
                  "1");
    report.metric("trace.dropped", static_cast<double>(session.dropped()),
                  "count");
    report.check(session.dropped() == 0, "trace buffers dropped events");
    report.metric("trace.overhead_ratio",
                  fastest(traced.pass_ms) / pass_best, "1");
}

} // namespace perfbench
