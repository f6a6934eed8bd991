/**
 * @file
 * The telemetry plane's service-level acceptance tests: arming the
 * plane must not change a single response byte, the flight recorder
 * must hold a digest (with a matching trace id) for every degraded,
 * shed, or error response, each digest must carry its request's typed
 * verb, outcome and cause, the SLO tracker and outcome counters must
 * reconcile with the batch, and the periodic store
 * compaction hook must fire on schedule without disturbing answers.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "fuzz/workload.h"
#include "service/executor.h"
#include "service/store.h"
#include "support/failpoint.h"
#include "support/logging.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/slo.h"
#include "telemetry/trace_context.h"

namespace uov {
namespace service {
namespace {

namespace fs = std::filesystem;

using telemetry::FlightDigest;

/** Small search budget: replay invariants are size-independent. */
constexpr uint64_t kVisitCap = 2'000;

ServiceOptions
cappedOptions()
{
    ServiceOptions opt;
    opt.max_visits = kVisitCap;
    return opt;
}

/** Per-test scratch file, removed on destruction. */
struct ScratchPath
{
    std::string path;
    explicit ScratchPath(const std::string &tag)
        : path((fs::temp_directory_path() /
                ("uov-admin-test-" + tag + "-" +
                 std::to_string(static_cast<long>(::getpid()))))
                   .string())
    {
        std::error_code ec;
        fs::remove(path, ec);
    }
    ~ScratchPath()
    {
        std::error_code ec;
        fs::remove(path, ec);
    }
};

/**
 * A mixed replay: a duplicate-heavy fuzz workload plus hand-written
 * lines covering every outcome class -- zero-deadline degradation,
 * parse errors, and plain optimal answers.
 */
std::vector<Request>
mixedBatch(size_t fuzz_requests)
{
    fuzz::WorkloadOptions wopt;
    wopt.requests = fuzz_requests;
    wopt.distinct = 12;
    wopt.seed = 0xAD317;
    std::vector<Request> reqs = fuzz::makeWorkload(wopt);

    std::istringstream extra(
        "query shortest deadline_ms 0 deps [1,0] [0,1] [1,1]\n"
        "query shortest deadline_ms -2 deps [1,0]\n" // parse error
        "malformed\n"
        "query storage deadline_ms 0 bounds 0..7 0..7 "
        "deps [1,-1] [1,0] [1,1]\n");
    for (Request &r : parseRequests(extra)) {
        r.index = reqs.size() + 1;
        reqs.push_back(std::move(r));
    }
    return reqs;
}

/** The " trace_id=<16 hex>" suffix token, or "" when absent. */
std::string
traceToken(const std::string &response)
{
    size_t pos = response.rfind(" trace_id=");
    if (pos == std::string::npos)
        return "";
    return response.substr(pos + 10);
}

TEST(AdminReplay, ArmedPlaneIsByteIdenticalToBaseline)
{
    std::vector<Request> reqs = mixedBatch(400);

    std::vector<std::string> baseline;
    {
        MetricsRegistry metrics;
        QueryService svc(cappedOptions(), metrics);
        ThreadPool pool(4);
        baseline = runBatch(svc, reqs, pool);
    }

    telemetry::FlightRecorder flight(1024);
    telemetry::SloTracker slo;
    TelemetryPlane plane;
    plane.flight = &flight;
    plane.slo = &slo;
    plane.trace_ids = false; // observation only: bytes must not move

    MetricsRegistry metrics;
    QueryService svc(cappedOptions(), metrics);
    ThreadPool pool(4);
    std::vector<std::string> armed =
        runBatch(svc, reqs, pool, nullptr, &plane);

    ASSERT_EQ(armed.size(), baseline.size());
    for (size_t i = 0; i < armed.size(); ++i)
        ASSERT_EQ(armed[i], baseline[i]) << "request " << (i + 1);

    // The plane observed the whole batch even though it changed
    // nothing: one digest and one SLO sample per request.
    EXPECT_EQ(flight.recorded(), reqs.size());
    EXPECT_EQ(slo.report().total, reqs.size());

    // Metric reconciliation is unchanged by the plane: every request
    // that reaches the service (parse errors never do) performs
    // exactly one cache lookup, and the outcome counters partition
    // the whole batch.
    size_t parse_errors = 0;
    for (const Request &r : reqs)
        if (!r.error.empty())
            ++parse_errors;
    EXPECT_EQ(metrics.counter("service.requests").value(),
              reqs.size() - parse_errors);
    auto st = svc.cacheStats();
    EXPECT_EQ(st.hits + st.misses, reqs.size() - parse_errors);
    EXPECT_EQ(metrics.counter("service.optimal").value() +
                  metrics.counter("service.degraded").value() +
                  metrics.counter("service.request_errors").value(),
              reqs.size());
}

TEST(AdminReplay, FlightHoldsEveryNonOptimalResponseWithItsTraceId)
{
    std::vector<Request> reqs = mixedBatch(120);

    telemetry::FlightRecorder flight(1024); // larger than the batch
    telemetry::SloTracker slo;
    TelemetryPlane plane;
    plane.flight = &flight;
    plane.slo = &slo;
    plane.trace_ids = true;

    MetricsRegistry metrics;
    QueryService svc(cappedOptions(), metrics);
    ThreadPool pool(4);
    std::vector<std::string> responses =
        runBatch(svc, reqs, pool, nullptr, &plane);

    std::vector<FlightDigest> digests = flight.snapshot();
    ASSERT_EQ(digests.size(), reqs.size());
    std::map<uint64_t, const FlightDigest *> by_request;
    for (const FlightDigest &d : digests)
        by_request[d.request_index] = &d;

    size_t non_optimal = 0;
    for (size_t i = 0; i < responses.size(); ++i) {
        // Opted-in responses all carry a trace id token...
        std::string token = traceToken(responses[i]);
        ASSERT_EQ(token.size(), 16u) << responses[i];

        auto it = by_request.find(i + 1);
        ASSERT_NE(it, by_request.end()) << "no digest for " << (i + 1);
        const FlightDigest &d = *it->second;

        // ...and the token is exactly the digest's trace id, so a
        // flight row, a log line, and a response line correlate.
        EXPECT_EQ(token, traceIdHex(d.trace_id))
            << responses[i];

        // The rendered line agrees with the typed outcome it came
        // from: error lines and error digests coincide.
        EXPECT_EQ(responses[i].rfind("error ", 0) == 0,
                  d.outcome == FlightDigest::Outcome::Error)
            << responses[i];
        if (d.outcome != FlightDigest::Outcome::Optimal) {
            ++non_optimal;
            // Error digests explain themselves.
            if (d.outcome == FlightDigest::Outcome::Error) {
                EXPECT_FALSE(d.causeStr().empty()) << responses[i];
            }
        }
    }
    // The hand-written tail guarantees at least one degraded line and
    // two error lines survived into the flight ring.
    EXPECT_GE(non_optimal, 3u);

    // SLO ratios agree with the recorder.
    telemetry::SloTracker::Report r = slo.report();
    EXPECT_EQ(r.total, reqs.size());
    EXPECT_EQ(r.errors,
              metrics.counter("service.request_errors").value());
}

/**
 * A task_start arming that, over @p hits successive hits, fires on hit
 * @p only alone: found by dry-running seeds, then re-armed so the
 * stream restarts.  With one pool worker the hits are the pooled
 * requests in order, so exactly one chosen request draws the error.
 */
void
armTaskStartOnlyAt(size_t only, size_t hits)
{
    failpoint::Registry &registry = failpoint::Registry::instance();
    failpoint::Config config;
    config.probability = 0.25;
    for (config.seed = 1;; ++config.seed) {
        registry.arm("task_start", config);
        std::vector<size_t> fired;
        for (size_t h = 0; h < hits; ++h) {
            try {
                failpoint::fire("task_start");
            } catch (const failpoint::FailPointError &) {
                fired.push_back(h);
            }
        }
        if (fired == std::vector<size_t>{only})
            break;
    }
    registry.arm("task_start", config);
}

TEST(AdminReplay, DigestsCarryEachFatesTypedOutcome)
{
    using Outcome = FlightDigest::Outcome;
    struct Fate
    {
        const char *line;
        Verb verb;
        Outcome outcome;
        const char *cause;
    };
    const Fate fates[] = {
        {"query shortest deps [1,0] [0,1] [1,1]", Verb::Shortest,
         Outcome::Optimal, ""},
        {"query shortest deadline_ms 0 deps [1,0] [0,1] [1,1]",
         Verb::Shortest, Outcome::Degraded, "deadline"},
        {"query fastest deps [1,0]", Verb::Unknown, Outcome::Error,
         "bad objective 'fastest', expected shortest|storage|native|"
         "tune"},
        {"query shortest deps [1,0] [0,1]", Verb::Shortest,
         Outcome::Error, "fail point 'task_start' fired"},
        {"query native deadline_ms 0 bounds 0..5 0..9 "
         "deps [1,-1] [1,0] [1,1]",
         Verb::Native, Outcome::Error,
         "deadline_ms 0 expired before compilation"},
        {"query tune deadline_ms 0 bounds 0..5 0..9 "
         "deps [1,-1] [1,0] [1,1]",
         Verb::Tune, Outcome::Degraded, "deadline"},
        // The last solve request finds the queue at the high-water
        // mark: six requests wait behind the blocked worker.
        {"query storage bounds 0..7 0..7 deps [1,-1] [1,0] [1,1]",
         Verb::Storage, Outcome::Shed, "shed"},
    };
    std::string text;
    for (const Fate &f : fates)
        text += std::string(f.line) + "\n";
    std::istringstream in(text);
    std::vector<Request> reqs = parseRequests(in);
    ASSERT_EQ(reqs.size(), std::size(fates));

    failpoint::ScopedFailPoints disarm_at_exit;
    armTaskStartOnlyAt(3, 6); // the fourth request, fourth in the pool

    MetricsRegistry metrics;
    QueryService svc(cappedOptions(), metrics);
    AdmissionOptions ao;
    ao.high_water = 6;
    AdmissionController admission(ao, metrics);
    telemetry::FlightRecorder flight(64);
    telemetry::SloTracker slo;
    TelemetryPlane plane;
    plane.flight = &flight;
    plane.slo = &slo;

    // One worker, held until the shed decision is made: the six
    // queued requests then run in order, so the depth each admission
    // decision sees and the fail point's hit order are fixed.
    ThreadPool pool(1);
    Counter &shed = metrics.counter("service.shed.responses");
    std::future<void> blocker = pool.submit([&shed] {
        while (shed.value() == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    std::vector<std::string> responses =
        runBatch(svc, reqs, pool, &admission, &plane);
    blocker.get();

    std::vector<FlightDigest> digests = flight.snapshot();
    ASSERT_EQ(digests.size(), std::size(fates));
    for (const FlightDigest &d : digests) {
        ASSERT_GE(d.request_index, 1u);
        ASSERT_LE(d.request_index, std::size(fates));
        const Fate &f = fates[d.request_index - 1];
        const std::string &line = responses[d.request_index - 1];
        EXPECT_EQ(d.verb, f.verb) << line;
        EXPECT_EQ(d.outcome, f.outcome) << line;
        EXPECT_EQ(d.causeStr(), std::string(f.cause).substr(
                                    0, FlightDigest::kCauseBytes - 1))
            << line;
    }

    // The three outcome counters partition the batch: shed counts as
    // degraded.
    EXPECT_EQ(metrics.counter("service.optimal").value(), 1u);
    EXPECT_EQ(metrics.counter("service.degraded").value(), 3u);
    EXPECT_EQ(metrics.counter("service.request_errors").value(), 3u);
    EXPECT_EQ(slo.report().errors, 3u);
}

TEST(AdminReplay, StoreCompactionFiresOnTheAppendSchedule)
{
    ScratchPath scratch("compact-sched");
    ServiceOptions so;
    so.store_path = scratch.path;
    so.store_compact_every = 4;
    MetricsRegistry metrics;
    QueryService svc(so, metrics);
    ASSERT_NE(svc.store(), nullptr);

    // 8 distinct queries -> 8 fresh searches -> 8 store appends ->
    // compactions at appends 4 and 8.
    std::vector<Request> reqs;
    for (int64_t k = 1; k <= 8; ++k) {
        Request r;
        r.index = static_cast<size_t>(k);
        r.deps = {IVec{1, 0}, IVec{k, 1}};
        reqs.push_back(std::move(r));
    }
    ThreadPool pool(1);
    std::vector<std::string> first = runBatch(svc, reqs, pool);
    EXPECT_EQ(svc.searchesExecuted(), reqs.size());

    EXPECT_EQ(svc.store()->stats().compactions, 2u);
    EXPECT_EQ(metrics.counter("service.store.compactions").value(),
              2u);

    // Replaying the same batch appends nothing (cache hits), so the
    // schedule does not advance...
    std::vector<std::string> again = runBatch(svc, reqs, pool);
    EXPECT_EQ(again, first);
    EXPECT_EQ(svc.store()->stats().compactions, 2u);

    // ...and a compacted store still restarts warm, byte-identical,
    // with zero searches.
    {
        ServiceOptions cold = so;
        MetricsRegistry metrics2;
        QueryService svc2(cold, metrics2);
        ThreadPool pool2(2);
        std::vector<std::string> warm = runBatch(svc2, reqs, pool2);
        EXPECT_EQ(warm, first);
        EXPECT_EQ(svc2.searchesExecuted(), 0u);
    }
}

} // namespace
} // namespace service
} // namespace uov
