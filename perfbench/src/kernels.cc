/**
 * @file
 * Workload `kernels`: the generated-code path and the paper's
 * simulated machines -- the only workload that runs codegen, kernels
 * and sim.
 *
 * Set-up, per nest (stencil5 128x2048, heat3d 32x96x96, psm 512x512):
 * planStorageMapping -> generateC for the lexicographic and
 * register-tiled variants -> JitCompiler::compileAndLoad into a
 * private, cold cache directory -> a bit-exact check against
 * interpretKernel.  Set-up runs three times (a fresh cache each time)
 * and reports the median.
 *
 * The timed phase runs rounds in a seed-shuffled order.  A round runs
 * every native kernel kNativeReps times and one single-threaded
 * streaming-sim pass of each stencil5/PSM paper variant (natural,
 * OV-mapped, tiled OV-mapped) on each of the three paper machines.
 * Every native output is compared bit for bit with the interpreter,
 * and every simulated cycle count with expected/sim_cycles.txt.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "analysis/pipeline.h"
#include "codegen/codegen.h"
#include "codegen/jit.h"
#include "common.h"
#include "kernels/psm.h"
#include "kernels/stencil5.h"
#include "sim/machine.h"
#include "sim/streaming.h"
#include "support/rng.h"

namespace perfbench {

using namespace uov;

namespace {

constexpr int kSetups = 3;
constexpr int kNativeReps = 10;

LoopNest
heatNest3d(int64_t t_steps, int64_t n)
{
    LoopNest nest("heat", IVec{1, 0, 0}, IVec{t_steps, n - 1, n - 1});
    Statement s;
    s.name = "H";
    s.write = uniformAccess("H", IVec{0, 0, 0});
    s.reads = {uniformAccess("H", IVec{-1, 0, 0}),
               uniformAccess("H", IVec{-1, 1, 0}),
               uniformAccess("H", IVec{-1, -1, 0}),
               uniformAccess("H", IVec{-1, 0, 1}),
               uniformAccess("H", IVec{-1, 0, -1})};
    nest.addStatement(s);
    return nest;
}

int64_t
nodeCount(const LoopNest &nest)
{
    int64_t n = 1;
    for (size_t k = 0; k < nest.lo().dim(); ++k)
        n *= nest.hi()[k] - nest.lo()[k] + 1;
    return n;
}

/** One JIT-compiled kernel variant of a nest. */
struct Native
{
    std::string name; ///< "<nest>/<lex|rtile>"
    size_t nest = 0;
    bool rtile = false;
    JitKernel kernel;
    void (*fn)(double *) = nullptr;
};

struct NestCase
{
    NestCase(std::string name_, LoopNest nest_)
        : name(std::move(name_)), nest(std::move(nest_))
    {}

    std::string name;
    LoopNest nest;
    int64_t nodes = 0;
    size_t reads = 0;
    std::vector<double> reference; ///< interpretKernel output
    double interp_ns = 0;
};

/** Everything one set-up produces; kernels stay loaded while alive. */
struct Built
{
    std::vector<NestCase> nests;
    std::vector<Native> natives;
    uint64_t compiles = 0;
};

std::vector<NestCase>
nestCases()
{
    std::vector<NestCase> out;
    out.push_back({"stencil5", nests::fivePointStencil(128, 2048)});
    out.push_back({"heat3d", heatNest3d(32, 96)});
    out.push_back({"psm", nests::proteinMatching(512, 512)});
    for (NestCase &c : out) {
        c.nodes = nodeCount(c.nest);
        c.reads = c.nest.statements()[0].reads.size();
    }
    return out;
}

/** Plan, emit, compile (cold private cache) and verify every kernel. */
std::unique_ptr<Built>
build(const std::string &cache_dir, Report &report)
{
    auto b = std::make_unique<Built>();
    b->nests = nestCases();
    JitOptions jo;
    jo.cache_dir = cache_dir;
    JitCompiler jit(jo);
    for (size_t i = 0; i < b->nests.size(); ++i) {
        NestCase &c = b->nests[i];
        auto plan_start = Clock::now();
        MappingPlan plan = [&] {
            trace::Span span("bench.mapping.plan");
            return planStorageMapping(c.nest, 0);
        }();
        double plan_ms = secondsSince(plan_start) * 1e3;
        GenStorage storage = plan.mapping.ov()[0] >= 1
                                 ? GenStorage::OvMapped
                                 : GenStorage::Expanded;
        {
            trace::Span span("bench.codegen.interp");
            auto start = Clock::now();
            c.reference = interpretKernel(c.nest);
            c.interp_ns = secondsSince(start) * 1e9;
        }
        report.note("setup " + c.name + " plan_ms=" +
                    std::to_string(plan_ms) + " interp_ms=" +
                    std::to_string(c.interp_ns / 1e6));
        for (bool rtile : {false, true}) {
            Native n;
            n.name = c.name + (rtile ? "/rtile" : "/lex");
            n.nest = i;
            n.rtile = rtile;
            CodegenOptions opts;
            opts.storage = storage;
            opts.schedule = rtile ? GenSchedule::RegisterTiled
                                  : GenSchedule::Lexicographic;
            opts.function_name = rtile ? "bench_rtile" : "bench_lex";
            GeneratedCode code = [&] {
                trace::Span span("bench.codegen.emit");
                return generateC(c.nest, plan, opts);
            }();
            {
                trace::Span span("bench.codegen.compile");
                n.kernel = jit.compileAndLoad(code);
            }
            n.fn = n.kernel.fn<void (*)(double *)>(code.function_name);
            std::vector<double> out(c.reference.size(), 0.0);
            n.fn(out.data());
            report.check(out == c.reference,
                         "kernels " + n.name +
                             ": native output differs from the "
                             "interpreter");
            b->natives.push_back(std::move(n));
        }
    }
    b->compiles = jit.compilesInvoked();
    report.check(b->compiles == b->natives.size(),
                 "kernels: " + std::to_string(b->compiles) +
                     " compiles for " +
                     std::to_string(b->natives.size()) +
                     " kernels (the JIT cache was not cold)");
    return b;
}

/** One streaming-sim pass: a paper variant on one paper machine. */
struct SimPass
{
    std::string name; ///< "<kernel>/<variant>/<machine>"
    bool stencil = true;
    Stencil5Variant s5 = Stencil5Variant::Natural;
    PsmVariant psm = PsmVariant::Natural;
    MachineConfig machine;
    size_t machine_index = 0;
};

const char *
variantName(Stencil5Variant v)
{
    return v == Stencil5Variant::Natural ? "natural"
           : v == Stencil5Variant::Ov    ? "ov"
                                         : "ov_tiled";
}

const char *
variantName(PsmVariant v)
{
    return v == PsmVariant::Natural ? "natural"
           : v == PsmVariant::Ov    ? "ov"
                                    : "ov_tiled";
}

std::vector<SimPass>
simPasses()
{
    const std::vector<MachineConfig> machines = {
        MachineConfig::pentiumPro(), MachineConfig::ultra2(),
        MachineConfig::alpha21164()};
    const char *machine_names[] = {"pentiumpro", "ultra2", "alpha"};
    std::vector<SimPass> out;
    for (size_t m = 0; m < machines.size(); ++m) {
        for (auto v : {Stencil5Variant::Natural, Stencil5Variant::Ov,
                       Stencil5Variant::OvTiled}) {
            SimPass p;
            p.name = std::string("stencil5/") + variantName(v) +
                     "/" + machine_names[m];
            p.s5 = v;
            p.machine = machines[m];
            p.machine_index = m;
            out.push_back(p);
        }
        for (auto v :
             {PsmVariant::Natural, PsmVariant::Ov, PsmVariant::OvTiled}) {
            SimPass p;
            p.name = std::string("psm/") + variantName(v) + "/" +
                     machine_names[m];
            p.stencil = false;
            p.psm = v;
            p.machine = machines[m];
            p.machine_index = m;
            out.push_back(p);
        }
    }
    return out;
}

struct SimResult
{
    double cycles = 0;
    uint64_t events = 0;
};

SimResult
runSim(const SimPass &p)
{
    MultiMachineSim sim({p.machine});
    StreamingSim mem = sim.policy();
    VirtualArena arena;
    if (p.stencil) {
        Stencil5Config cfg;
        cfg.length = 20'000;
        cfg.steps = 8;
        cfg.tile_t = 8;
        cfg.tile_s = std::max<int64_t>(64, p.machine.l1.size_bytes / 8);
        runStencil5(p.s5, cfg, mem, arena);
    } else {
        PsmConfig cfg;
        cfg.n0 = cfg.n1 = 256;
        runPsm(p.psm, cfg, mem, arena);
    }
    return {sim.system(0).cycles(), sim.eventsProcessed()};
}

std::string
exact(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::map<std::string, std::string>
readCycles(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string name, cycles;
        if (ls >> name >> cycles && name[0] != '#')
            out[name] = cycles;
    }
    return out;
}

/** Latency samples of one run. */
struct Rounds
{
    std::vector<double> round_ms;
    std::vector<std::vector<double>> native_ns; ///< per native kernel
    std::vector<std::vector<double>> sim_ns;    ///< per sim pass
    std::vector<uint64_t> sim_events;           ///< per sim pass
    std::vector<double> sim_cycles;             ///< per sim pass
    double op_seconds = 0;
    uint64_t ops = 0;
};

/** One op of a round: a native kernel (index) or a sim pass (~index). */
using Op = int64_t;

void
runRound(const Built &b, const std::vector<SimPass> &passes,
         const std::map<std::string, std::string> &expected,
         std::vector<Op> &order, SplitMix64 &rng, Rounds &r,
         Report &report)
{
    for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBelow(i)]);
    auto round_start = Clock::now();
    for (Op op : order) {
        if (op >= 0) {
            const Native &n = b.natives[static_cast<size_t>(op)];
            const NestCase &c = b.nests[n.nest];
            std::vector<double> out(c.reference.size(), 0.0);
            for (int rep = 0; rep < kNativeReps; ++rep) {
                auto start = Clock::now();
                {
                    trace::Span span(n.rtile ? "bench.kernel.rtile"
                                             : "bench.kernel.lex");
                    n.fn(out.data());
                }
                double s = secondsSince(start);
                r.native_ns[static_cast<size_t>(op)].push_back(s * 1e9);
                r.op_seconds += s;
                ++r.ops;
            }
            report.check(out == c.reference,
                         "kernels " + n.name +
                             ": native output differs from the "
                             "interpreter");
        } else {
            size_t k = static_cast<size_t>(~op);
            auto start = Clock::now();
            SimResult res;
            {
                trace::Span span("bench.sim.pass");
                res = runSim(passes[k]);
            }
            double s = secondsSince(start);
            r.sim_ns[k].push_back(s * 1e9);
            r.sim_events[k] = res.events;
            r.sim_cycles[k] = res.cycles;
            r.op_seconds += s;
            ++r.ops;
            auto it = expected.find(passes[k].name);
            std::string got = exact(res.cycles);
            report.check(it != expected.end() && it->second == got,
                         "kernels sim " + passes[k].name + ": cycles " +
                             got + ", expected " +
                             (it == expected.end() ? "<missing>"
                                                   : it->second));
        }
    }
    r.round_ms.push_back(secondsSince(round_start) * 1e3);
}

Rounds
runRounds(const Built &b, const std::vector<SimPass> &passes,
          const std::map<std::string, std::string> &expected,
          SplitMix64 &rng, double seconds, size_t count, Report &report)
{
    Rounds r;
    r.native_ns.resize(b.natives.size());
    r.sim_ns.resize(passes.size());
    r.sim_events.resize(passes.size());
    r.sim_cycles.resize(passes.size());
    std::vector<Op> order;
    for (size_t i = 0; i < b.natives.size(); ++i)
        order.push_back(static_cast<Op>(i));
    for (size_t k = 0; k < passes.size(); ++k)
        order.push_back(~static_cast<Op>(k));
    auto start = Clock::now();
    for (size_t n = 0;; ++n) {
        if (count ? n >= count
                  : (n >= 3 && secondsSince(start) >= seconds))
            break;
        runRound(b, passes, expected, order, rng, r, report);
    }
    return r;
}

} // namespace

void
runKernels(const Args &args, Report &report)
{
    std::unique_ptr<Built> built;
    std::vector<double> setups;
    std::unique_ptr<TraceSession> setup_trace;
    for (int k = 0; k < kSetups; ++k) {
        // The last set-up is traced on a --trace 1 run.
        if (args.trace && k == kSetups - 1)
            setup_trace = std::make_unique<TraceSession>(4096);
        built.reset();
        auto start = Clock::now();
        built = build(args.work_dir + "/jit-" + std::to_string(k), report);
        setups.push_back(secondsSince(start));
    }
    if (setup_trace)
        setup_trace->finish();

    const std::vector<SimPass> passes = simPasses();
    const auto expected = readCycles(args.expected_dir + "/sim_cycles.txt");
    SplitMix64 rng(args.seed);
    resetPeakRss();
    double untraced = args.trace ? args.seconds / 2 : args.seconds;
    Rounds r = runRounds(*built, passes, expected, rng, untraced, 0, report);

    std::vector<double> lex, rtile, interp, bytes, gbps;
    for (size_t i = 0; i < built->natives.size(); ++i) {
        const Native &n = built->natives[i];
        const NestCase &c = built->nests[n.nest];
        double ns = fastest(r.native_ns[i]) / static_cast<double>(c.nodes);
        (n.rtile ? rtile : lex).push_back(ns);
        report.note("native " + n.name + " nodes=" +
                    std::to_string(c.nodes) +
                    " ns_per_node=" + std::to_string(ns));
        if (n.rtile) {
            double bpn = static_cast<double>(c.reads + 1) * 8.0;
            bytes.push_back(bpn);
            gbps.push_back(bpn / ns);
            interp.push_back(c.interp_ns / static_cast<double>(c.nodes));
        }
    }
    std::vector<double> sim_all, sim_machine[3];
    uint64_t events = 0;
    double cycles = 0;
    for (size_t k = 0; k < passes.size(); ++k) {
        double ns = fastest(r.sim_ns[k]) /
                    static_cast<double>(r.sim_events[k]);
        sim_all.push_back(ns);
        sim_machine[passes[k].machine_index].push_back(ns);
        events += r.sim_events[k];
        cycles += r.sim_cycles[k];
        report.note("sim " + passes[k].name + " events=" +
                    std::to_string(r.sim_events[k]) +
                    " cycles=" + exact(r.sim_cycles[k]) +
                    " ns_per_event=" + std::to_string(ns));
    }
    double round_best = fastest(r.round_ms);
    report.note("rounds " + std::to_string(r.round_ms.size()) +
                " round_ms_best=" + std::to_string(round_best) +
                " round_ms_p50=" + std::to_string(median(r.round_ms)) +
                " ops_per_s=" +
                std::to_string(static_cast<double>(r.ops) /
                               r.op_seconds));

    if (!args.trace) {
        std::vector<double> per_op;
        for (const auto &s : r.native_ns)
            per_op.push_back(fastest(s) / 1e6);
        for (const auto &s : r.sim_ns)
            per_op.push_back(fastest(s) / 1e6);
        double set_ms = 0;
        for (double ms : per_op)
            set_ms += ms;
        report.metric("setup_s", median(setups), "s");
        report.metric("peak_rss_mb", peakRssMb(), "MB");
        report.metric("op_ms_geomean", geomean(per_op), "ms");
        report.metric("set_ms_best", set_ms, "ms");
        return;
    }

    // Traced phase: a handful of events per op.
    size_t rounds = r.round_ms.size();
    TraceSession session(
        rounds * (built->natives.size() * kNativeReps + passes.size()) *
            8 +
        4096);
    Rounds traced =
        runRounds(*built, passes, expected, rng, 0.0, rounds, report);
    session.finish();
    report.note(setup_trace->table());
    report.note(session.table());

    report.metric("mapping.plan_us",
                  setup_trace->selfUsPerCall("bench.mapping.plan"), "us");
    report.metric("codegen.emit_us",
                  setup_trace->selfUsPerCall("bench.codegen.emit"), "us");
    report.metric("codegen.compile_ms",
                  setup_trace->selfUsPerCall("bench.codegen.compile") /
                      1e3,
                  "ms");
    report.metric("codegen.compiles", static_cast<double>(built->compiles),
                  "count");
    report.metric("codegen.interp_ns_per_node", geomean(interp), "ns");
    report.metric("codegen.lex_ns_per_node", geomean(lex), "ns");
    report.metric("codegen.rtile_ns_per_node", geomean(rtile), "ns");
    report.metric("codegen.computed_bytes_per_node", geomean(bytes),
                  "bytes");
    report.metric("codegen.computed_gbps", geomean(gbps), "GB/s");
    report.metric("sim.events", static_cast<double>(events), "count");
    report.metric("sim.cycles", cycles, "count");
    report.metric("sim.ns_per_event", geomean(sim_all), "ns");
    report.metric("sim.ns_per_event.pentiumpro", geomean(sim_machine[0]),
                  "ns");
    report.metric("sim.ns_per_event.ultra2", geomean(sim_machine[1]),
                  "ns");
    report.metric("sim.ns_per_event.alpha", geomean(sim_machine[2]), "ns");
    uint64_t dropped = session.dropped() + setup_trace->dropped();
    report.metric("trace.dropped", static_cast<double>(dropped), "count");
    report.check(dropped == 0, "trace buffers dropped events");
    report.metric("trace.overhead_ratio",
                  fastest(traced.round_ms) / round_best, "1");
}

} // namespace perfbench
