#include "service/executor.h"

#include <chrono>
#include <functional>
#include <future>
#include <iomanip>
#include <istream>
#include <limits>
#include <sstream>

#include <algorithm>

#include "codegen/codegen.h"
#include "codegen/jit.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/logging.h"
#include "support/tokens.h"
#include "support/trace.h"
#include "telemetry/trace_context.h"
#include "tune/tune.h"

namespace uov {
namespace service {

namespace {

using FD = telemetry::FlightDigest;
using Kind = FD::Outcome;

/**
 * A request's typed fate: which of the four kinds, why (the degraded
 * reason or the error message; empty when optimal), and the answer
 * text after "answer <idx> ".  renderOutcome is the only place it
 * becomes bytes.
 */
struct Outcome
{
    Kind kind = Kind::Optimal;
    std::string cause;
    std::string payload;
};

Outcome
failure(std::string message)
{
    return {Kind::Error, std::move(message), ""};
}

/** The one response-line renderer. */
std::string
renderOutcome(size_t index, const Outcome &outcome)
{
    bool error = outcome.kind == Kind::Error;
    std::string line = error ? "error " : "answer ";
    line += std::to_string(index);
    line += ' ';
    line += error ? outcome.cause : outcome.payload;
    return line;
}

/** The degraded reason that marks an admission-shed answer. */
constexpr const char *kShedReason = "shed";

/**
 * Where a shortest/storage answer comes from: the service, the direct
 * reference search, or the shed floor.  The handlers are otherwise
 * shared, so those paths agree byte-for-byte, errors included.
 */
using SolveFn = std::function<ServiceAnswer(const Stencil &)>;

Outcome
solveOutcome(const Request &, const Stencil &stencil,
             const SolveFn &solve)
{
    ServiceAnswer answer = solve(stencil);
    failpoint::fire("answer_render");
    TRACE_SPAN("service.render");
    if (!answer.degraded)
        return {Kind::Optimal, "", answer.str()};
    Kind kind = answer.degraded_reason == kShedReason ? Kind::Shed
                                                      : Kind::Degraded;
    return {kind, answer.degraded_reason, answer.str()};
}

Outcome nativeOutcome(const Request &, const Stencil &, const SolveFn &);
Outcome tuneOutcome(const Request &, const Stencil &, const SolveFn &);

/** The per-verb handler table; its verbs are the protocol's. */
struct VerbHandler
{
    Verb verb;
    Outcome (*run)(const Request &, const Stencil &, const SolveFn &);
};

constexpr VerbHandler kHandlers[] = {
    {Verb::Shortest, solveOutcome},
    {Verb::Storage, solveOutcome},
    {Verb::Native, nativeOutcome},
    {Verb::Tune, tuneOutcome},
};

/**
 * Run @p request through its verb's handler.  Every library error --
 * bad input, overflow, an armed fail point -- is the request's error
 * Outcome.
 */
Outcome
execute(const Request &request, const SolveFn &solve)
{
    if (!request.error.empty())
        return failure(request.error);
    try {
        Stencil stencil(request.deps);
        for (const VerbHandler &h : kHandlers)
            if (h.verb == request.verb)
                return h.run(request, stencil, solve);
        return failure("request has no verb");
    } catch (const UovError &e) {
        return failure(e.what());
    }
}

} // namespace

Request
parseRequestLine(const std::string &line, size_t index,
                 int64_t default_deadline_ms)
{
    TRACE_SPAN("service.parse");
    Request r;
    r.index = index;
    r.deadline_ms = default_deadline_ms < 0 ? -1 : default_deadline_ms;
    auto fail = [&](const std::string &msg) {
        r.error = msg;
        r.verb = Verb::Unknown;
        return r;
    };

    std::stringstream ss(line);
    std::string tok;
    ss >> tok;
    if (tok != "query")
        return fail("expected 'query', got '" + tok + "'");

    ss >> tok;
    r.verb = Verb::Unknown;
    for (const VerbHandler &h : kHandlers)
        if (tok == FD::verbName(h.verb))
            r.verb = h.verb;
    if (r.verb == Verb::Unknown) {
        std::string verbs;
        for (const VerbHandler &h : kHandlers)
            verbs += (verbs.empty() ? "" : "|") +
                     std::string(FD::verbName(h.verb));
        return fail("bad objective '" + tok + "', expected " + verbs);
    }

    if (!(ss >> tok))
        return fail("missing 'deps'");

    if (tok == "deadline_ms") {
        if (!(ss >> tok))
            return fail("'deadline_ms' needs a millisecond count");
        int64_t ms;
        if (!tokens::parseInt(tok, ms) || ms < -1)
            return fail("bad deadline '" + tok +
                        "', expected -1 or a millisecond count");
        r.deadline_ms = ms;
        if (!(ss >> tok))
            return fail("missing 'deps'");
    }

    if (tok == "bounds") {
        std::vector<int64_t> los, his;
        while (ss >> tok && tok != "deps") {
            int64_t lo, hi;
            if (!tokens::parseRange(tok, lo, hi))
                return fail("bad range '" + tok +
                            "', expected lo..hi");
            if (lo > hi)
                return fail("empty range '" + tok + "'");
            los.push_back(lo);
            his.push_back(hi);
        }
        if (los.empty())
            return fail("'bounds' needs at least one range");
        if (tok != "deps")
            return fail("missing 'deps'");
        r.isg_lo = IVec(std::move(los));
        r.isg_hi = IVec(std::move(his));
    }

    if (tok != "deps")
        return fail("expected 'bounds' or 'deps', got '" + tok + "'");

    while (ss >> tok) {
        std::vector<int64_t> coords;
        if (!tokens::parseTuple(tok, coords) || coords.empty())
            return fail("bad dependence '" + tok +
                        "', expected [o1,o2,...]");
        r.deps.emplace_back(coords);
    }
    if (r.deps.empty())
        return fail("'deps' needs at least one vector");

    // Every verb but shortest works over the bounds box.
    bool bounded = r.verb != Verb::Shortest;
    if (bounded && !r.isg_lo)
        return fail(std::string(FD::verbName(r.verb)) +
                    " query needs 'bounds'");
    if (!bounded && r.isg_lo)
        return fail("'bounds' is only valid for storage, native, and "
                    "tune queries");
    if (r.isg_lo && r.isg_lo->dim() != r.deps[0].dim())
        return fail("bounds rank " +
                    std::to_string(r.isg_lo->dim()) +
                    " does not match dependence rank " +
                    std::to_string(r.deps[0].dim()));
    return r;
}

std::vector<Request>
parseRequests(std::istream &in, int64_t default_deadline_ms)
{
    std::vector<Request> requests;
    std::string raw;
    while (std::getline(in, raw)) {
        std::string line = tokens::cleanLine(raw);
        if (line.empty())
            continue;
        requests.push_back(parseRequestLine(line, requests.size() + 1,
                                            default_deadline_ms));
    }
    return requests;
}

namespace {

/** Best-of-3 wall-clock nanoseconds for @p fn. */
int64_t
bestOfThreeNs(const std::function<void()> &fn)
{
    int64_t best = std::numeric_limits<int64_t>::max();
    for (int rep = 0; rep < 3; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration_cast<std::chrono::nanoseconds>(
                      t1 - t0)
                      .count());
    }
    return best < 1 ? 1 : best;
}

/**
 * 'query native': realize the stencil as the paper's single-statement
 * nest over the bounds box, plan its storage mapping, JIT-compile the
 * lexicographic and register-tiled OV-mapped kernels, verify both
 * bit-exactly against the interpreter, and report the timings.
 */
Outcome
nativeOutcome(const Request &request, const Stencil &stencil,
              const SolveFn &)
{
    // The deadline gate precedes the compiler probe so a 0 ms
    // request draws the same (deterministic) error line on every
    // host.  Native timing has no anytime fallback -- a partial
    // compile is worthless -- so an expired budget is an error,
    // not a degraded answer.
    Deadline deadline = Deadline::afterMillis(request.deadline_ms);
    auto requireTime = [&](const char *stage) {
        UOV_REQUIRE(!deadline.expired(),
                    "deadline_ms " << request.deadline_ms
                        << " expired " << stage
                        << "; native timing needs the full run "
                           "(raise or drop the deadline)");
    };
    requireTime("before compilation");
    UOV_REQUIRE(JitCompiler::hostCompilerAvailable(),
                "native query needs a host C compiler (set UOV_CC "
                "or put cc, gcc, or clang on PATH)");

    // Realize the stencil as the paper's single-statement nest
    // over the bounds box (reads at minus each distance).
    LoopNest nest = nestFromStencil(stencil, *request.isg_lo,
                                    *request.isg_hi, "native");

    MappingPlan plan = planStorageMapping(nest, 0);
    GenStorage storage = plan.mapping.ov()[0] >= 1
                             ? GenStorage::OvMapped
                             : GenStorage::Expanded;

    std::vector<double> ref;
    int64_t interp_ns =
        bestOfThreeNs([&] { ref = interpretKernel(nest); });
    requireTime("after the interpreter baseline");

    JitCompiler jit;
    GeneratedCode lex_code, rtile_code;
    {
        CodegenOptions opts;
        opts.storage = storage;
        opts.function_name = "uov_native_lex";
        lex_code = generateC(nest, plan, opts);
        opts.schedule = GenSchedule::RegisterTiled;
        opts.function_name = "uov_native_rtile";
        rtile_code = generateC(nest, plan, opts);
    }

    auto timeKernel = [&](const GeneratedCode &code) {
        requireTime("before JIT compilation");
        JitKernel kernel = jit.compileAndLoad(code);
        auto fn =
            kernel.fn<void (*)(double *)>(code.function_name);
        std::vector<double> out(ref.size(), 0.0);
        int64_t ns = bestOfThreeNs([&] { fn(out.data()); });
        UOV_REQUIRE(out == ref,
                    "native kernel " << code.function_name
                        << " diverged from the interpreter");
        return ns;
    };
    int64_t lex_ns = timeKernel(lex_code);
    int64_t rtile_ns = timeKernel(rtile_code);

    std::ostringstream oss;
    oss << "native uov="
        << plan.mapping.ov().str()
        << " cells=" << plan.mapping.cellCount() << " storage="
        << (storage == GenStorage::OvMapped ? "ov" : "expanded")
        << " unroll=" << rtile_code.unroll
        << " jam=" << rtile_code.jam << std::fixed
        << std::setprecision(2) << " interp_ns=" << interp_ns
        << " lex_ns=" << lex_ns << " rtile_ns=" << rtile_ns
        << " speedup_lex="
        << static_cast<double>(interp_ns) /
               static_cast<double>(lex_ns)
        << " speedup_rtile="
        << static_cast<double>(interp_ns) /
               static_cast<double>(rtile_ns)
        << " verified=ok";
    return {Kind::Optimal, "", oss.str()};
}

/**
 * 'query tune': the joint (UOV, schedule, tile/unroll) tuner under the
 * request deadline, scored by the deterministic cache/TLB simulator;
 * then, with a host compiler and time left, the top simulator-ranked
 * lowerable candidates and the default lexicographic kernel are
 * JIT-measured (each verified bit-exactly against the interpreter).
 */
Outcome
tuneOutcome(const Request &request, const Stencil &stencil,
            const SolveFn &)
{
    TRACE_SPAN("service.tune");
    LoopNest nest = nestFromStencil(stencil, *request.isg_lo,
                                    *request.isg_hi, "tune");

    tune::TuneOptions topt;
    topt.budget.deadline = Deadline::afterMillis(request.deadline_ms);
    tune::SimEvaluator sim;
    topt.evaluator = &sim;
    tune::Tuner tuner(nest, topt);
    tune::TuneResult res = tuner.run();

    const tune::TuneCandidate &best = res.best;
    bool ov = best.storage == GenStorage::OvMapped;
    std::ostringstream oss;
    oss << "tune uov=" << (ov ? best.uov().str() : "none")
        << " storage=" << (ov ? "ov" : "expanded")
        << " schedule=" << best.schedule.str()
        << " cells=" << best.cells() << " sim_cycles="
        << static_cast<int64_t>(res.best_score)
        << " evaluated=" << res.evaluated << "/"
        << res.candidates_total;
    Outcome outcome;
    if (res.degraded()) {
        oss << " degraded=" << res.degraded_reason;
        outcome = {Kind::Degraded, res.degraded_reason, ""};
    }

    // Measurement tail: wall-clock figures, exempt from the
    // byte-determinism contract like 'query native' timings.
    if (!JitCompiler::hostCompilerAvailable()) {
        oss << " measure=unavailable";
    } else if (topt.budget.deadline.expired()) {
        oss << " measure=deadline";
    } else {
        tune::JitEvaluator jit_eval;
        tune::TuneContext ctx(nest, tuner.stencil());
        const auto &cands = tuner.candidates();
        const auto &scores = tuner.scores();

        // Candidate 0 is the default lexicographic kernel; measure
        // it, then the top simulator-ranked lowerable candidates.
        double lex_ns = jit_eval.score(ctx, cands[0]);
        std::vector<size_t> ranked;
        for (size_t i = 0; i < scores.size(); ++i)
            if (cands[i].schedule.lower(stencil).has_value())
                ranked.push_back(i);
        std::stable_sort(ranked.begin(), ranked.end(),
                         [&](size_t a, size_t b) {
                             return scores[a] < scores[b];
                         });
        double best_ns = lex_ns;
        size_t best_idx = 0;
        size_t measured = 0;
        for (size_t idx : ranked) {
            if (measured >= 4 || topt.budget.deadline.expired())
                break;
            if (idx == 0)
                continue; // the lex baseline, already measured
            double ns = jit_eval.score(ctx, cands[idx]);
            ++measured;
            if (ns < best_ns) {
                best_ns = ns;
                best_idx = idx;
            }
        }
        oss << std::fixed << std::setprecision(2)
            << " lex_ns=" << static_cast<int64_t>(lex_ns)
            << " best_ns=" << static_cast<int64_t>(best_ns)
            << " speedup_vs_lex=" << lex_ns / best_ns
            << " best_measured={" << cands[best_idx].str() << "}"
            << " verified=ok";
    }
    outcome.payload = oss.str();
    return outcome;
}

Outcome
serviceOutcome(QueryService &service, const Request &request)
{
    return execute(request, [&](const Stencil &s) {
        return service.query(s, request.objective(), request.isg_lo,
                             request.isg_hi, request.deadline_ms);
    });
}

Outcome
directOutcome(const Request &request, uint64_t max_visits)
{
    return execute(request, [&](const Stencil &s) {
        SearchBudget budget;
        budget.max_nodes = max_visits;
        budget.deadline = Deadline::afterMillis(request.deadline_ms);
        return solveDirect(s, request.objective(), request.isg_lo,
                           request.isg_hi, budget);
    });
}

Outcome
shedOutcome(const Request &request)
{
    return execute(request, [&](const Stencil &s) {
        // The anytime floor: a zero-node budget deterministically
        // returns the certified ov_o incumbent without expanding a
        // single search node -- exactly what an overloaded server can
        // afford.
        SearchBudget budget;
        budget.max_nodes = 0;
        ServiceAnswer answer =
            solveDirect(s, request.objective(), request.isg_lo,
                        request.isg_hi, budget);
        answer.degraded = true;
        answer.degraded_reason = kShedReason;
        return answer;
    });
}

/**
 * One request's telemetry epilogue: digest into the flight recorder,
 * sample into the SLO window, optionally log the non-optimal outcome
 * (inside the request's TraceScope, so the log line carries the id).
 */
void
recordOutcome(const TelemetryPlane &plane, const Request &request,
              telemetry::TraceContext ctx,
              const telemetry::RequestAnnotations &notes,
              const Outcome &outcome, uint64_t wall_us)
{
    FD digest;
    digest.trace_id = ctx.id;
    digest.key_hash = notes.key_hash;
    digest.request_index = request.index;
    digest.nodes = notes.nodes;
    digest.wall_us = wall_us;
    digest.verb = request.verb;
    digest.outcome = outcome.kind;
    digest.cache_hit = notes.cache_hit;
    digest.store_hit = notes.store_hit;
    digest.coalesced = notes.coalesced;
    digest.setCause(outcome.cause);
    if (plane.flight != nullptr)
        plane.flight->record(digest);
    if (plane.slo != nullptr)
        plane.slo->record(outcome.kind, wall_us);
    if (plane.log_outcomes && outcome.kind != Kind::Optimal)
        UOV_LOG_INFO("request " << request.index << " outcome="
                     << FD::outcomeName(outcome.kind) << " cause='"
                     << digest.causeStr() << "' verb="
                     << FD::verbName(request.verb)
                     << " wall_us=" << wall_us);
}

/** Wall-clock microseconds since @p start (clamped non-negative). */
uint64_t
wallMicrosSince(Deadline::Clock::time_point start)
{
    int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                     Deadline::Clock::now() - start)
                     .count();
    return us < 0 ? 0 : static_cast<uint64_t>(us);
}

} // namespace

std::string
runRequest(QueryService &service, const Request &request)
{
    return renderOutcome(request.index, serviceOutcome(service, request));
}

Watchdog::Watchdog(int64_t poll_ms, Counter *overdue)
    : _overdue(overdue)
{
    if (poll_ms > 0)
        _thread = std::thread([this, poll_ms] { loop(poll_ms); });
}

Watchdog::~Watchdog()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stop = true;
    }
    _cv.notify_all();
    if (_thread.joinable())
        _thread.join();
}

void
Watchdog::loop(int64_t poll_ms)
{
    std::unique_lock<std::mutex> lock(_mutex);
    while (!_stop) {
        _cv.wait_for(lock, std::chrono::milliseconds(poll_ms),
                     [this] { return _stop; });
        if (_stop)
            return;
        lock.unlock();
        flagOverdue();
        lock.lock();
    }
}

void
Watchdog::start(size_t index, int64_t deadline_ms)
{
    std::lock_guard<std::mutex> lock(_mutex);
    Entry entry;
    entry.started = Deadline::Clock::now();
    entry.deadline_ms = deadline_ms;
    _entries[index] = entry;
}

void
Watchdog::finish(size_t index)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _entries.erase(index);
}

size_t
Watchdog::flagOverdue()
{
    size_t flagged = 0;
    auto now = Deadline::Clock::now();
    std::lock_guard<std::mutex> lock(_mutex);
    for (auto &[index, entry] : _entries) {
        if (entry.flagged || entry.deadline_ms < 0)
            continue;
        auto running =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - entry.started)
                .count();
        if (running < 2 * entry.deadline_ms)
            continue;
        entry.flagged = true;
        ++flagged;
        if (_overdue != nullptr)
            _overdue->inc();
        UOV_LOG_WARN("watchdog: request " << index << " still running "
                     << running << " ms after its "
                     << entry.deadline_ms << " ms deadline");
    }
    return flagged;
}

AdmissionController::AdmissionController(AdmissionOptions options,
                                         MetricsRegistry &metrics)
    : _options(options),
      _admitted(metrics.counter("service.shed.admitted")),
      _responses(metrics.counter("service.shed.responses")),
      _engaged(metrics.counter("service.shed.engaged")),
      _recovered(metrics.counter("service.shed.recovered")),
      _active(metrics.gauge("service.shed.active"))
{
    if (_options.low_water < 0)
        _options.low_water = _options.high_water / 2;
    if (_options.low_water >= _options.high_water)
        _options.low_water =
            _options.high_water > 0 ? _options.high_water - 1 : 0;
}

bool
AdmissionController::admit(int64_t queue_depth)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (_options.high_water <= 0) {
        _admitted.inc();
        return true;
    }
    if (!_shedding && queue_depth >= _options.high_water) {
        _shedding = true;
        _engaged.inc();
        _active.set(1);
    } else if (_shedding && queue_depth <= _options.low_water) {
        _shedding = false;
        _recovered.inc();
        _active.set(0);
    }
    if (_shedding) {
        _responses.inc();
        return false;
    }
    _admitted.inc();
    return true;
}

bool
AdmissionController::shedding() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _shedding;
}

std::string
shedRequest(const Request &request)
{
    return renderOutcome(request.index, shedOutcome(request));
}

std::vector<std::string>
runBatch(QueryService &service, const std::vector<Request> &requests,
         ThreadPool &pool, AdmissionController *admission,
         const TelemetryPlane *plane)
{
    std::vector<std::string> responses(requests.size());
    MetricsRegistry &metrics = service.metrics();
    Gauge &depth = metrics.gauge("service.queue_depth");
    Histogram &queue_wait = metrics.histogram("service.queue_wait_us");
    // One counter per Outcome kind (shed counts as degraded); the
    // three sum to the batch size (asserted by the fault fuzz oracle).
    Counter &optimal = metrics.counter("service.optimal");
    Counter &degraded = metrics.counter("service.degraded");
    Counter &errors = metrics.counter("service.request_errors");
    Watchdog watchdog(25, &metrics.counter("service.watchdog.overdue"));
    uint64_t fires_before =
        failpoint::Registry::instance().totalFires();

    // Every request ends here, on whichever thread produced it: @p fn
    // runs inside the request's TraceScope (when a plane is attached)
    // and anything it throws -- an armed fail point, even an internal
    // error -- becomes the request's error Outcome.  The Outcome is
    // counted, recorded, and rendered once.
    using OutcomeFn = std::function<Outcome(telemetry::TraceContext)>;
    auto respond = [&](const Request &request, const OutcomeFn &fn) {
        telemetry::TraceContext ctx;
        std::optional<telemetry::TraceScope> scope;
        if (plane != nullptr) {
            ctx = telemetry::newTrace();
            scope.emplace(ctx);
        }
        auto started = Deadline::Clock::now();
        Outcome outcome;
        try {
            outcome = fn(ctx);
        } catch (const std::exception &e) {
            outcome = failure(e.what());
        }
        (outcome.kind == Kind::Optimal ? optimal
         : outcome.kind == Kind::Error ? errors
                                       : degraded)
            .inc();
        std::string response = renderOutcome(request.index, outcome);
        if (plane != nullptr) {
            recordOutcome(*plane, request, ctx, scope->notes(), outcome,
                          wallMicrosSince(started));
            if (plane->trace_ids)
                response += " trace_id=" + traceIdHex(ctx.id);
        }
        return response;
    };

    std::vector<std::future<void>> futures;
    futures.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        // Admission decision happens on the submitting thread, before
        // the request touches the queue: a shed request is answered
        // inline with the certified ov_o floor and never enqueued.
        const Request &to_submit = requests[i];
        bool solves = to_submit.verb == Verb::Shortest ||
                      to_submit.verb == Verb::Storage;
        if (admission != nullptr && solves && to_submit.error.empty()) {
            std::optional<std::string> fired;
            bool shed = false;
            try {
                failpoint::fire("admission");
                shed = !admission->admit(depth.value());
            } catch (const std::exception &e) {
                fired = e.what();
            }
            if (fired || shed) {
                responses[i] =
                    respond(to_submit, [&](telemetry::TraceContext) {
                        return fired ? failure(*fired)
                                     : shedOutcome(to_submit);
                    });
                continue;
            }
        }
        depth.add(1);
        auto enqueued = Deadline::Clock::now();
        futures.push_back(pool.submit([&, enqueued, i] {
            const Request &request = requests[i];
            int64_t wait_us =
                std::chrono::duration_cast<std::chrono::microseconds>(
                    Deadline::Clock::now() - enqueued)
                    .count();
            queue_wait.observe(
                wait_us < 0 ? 0 : static_cast<uint64_t>(wait_us));
            TRACE_COUNTER("service.queue_wait", "us", wait_us);
            // The request runs whole on this pool thread, so a
            // thread-local trace scope covers every layer it enters;
            // the span arg links the Perfetto track to the same id.
            auto run = [&](telemetry::TraceContext ctx) {
                trace::Span span("service.request");
                span.arg("index", static_cast<int64_t>(request.index));
                if (ctx.valid())
                    span.arg("trace_id", static_cast<int64_t>(ctx.id));
                failpoint::fire("task_start");
                watchdog.start(i, request.deadline_ms);
                return serviceOutcome(service, request);
            };
            responses[i] = respond(request, run);
            watchdog.finish(i);
            depth.sub(1);
        }));
    }
    // Drain every future before unwinding (tasks capture locals).
    for (auto &f : futures)
        f.get();

    uint64_t fires_after = failpoint::Registry::instance().totalFires();
    if (fires_after > fires_before)
        metrics.counter("service.failpoint_fires")
            .inc(fires_after - fires_before);
    return responses;
}

std::vector<std::string>
runBatchDirect(const std::vector<Request> &requests, uint64_t max_visits)
{
    std::vector<std::string> responses;
    responses.reserve(requests.size());
    for (const Request &r : requests)
        responses.push_back(
            renderOutcome(r.index, directOutcome(r, max_visits)));
    return responses;
}

} // namespace service
} // namespace uov
