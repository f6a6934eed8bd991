#include "fuzz/oracles.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <unordered_set>

#include <unistd.h>

#include "analysis/dependence.h"
#include "codegen/codegen.h"
#include "codegen/jit.h"
#include "core/cone.h"
#include "core/done_dead.h"
#include "core/search.h"
#include "core/storage_count.h"
#include "core/uov.h"
#include "geometry/polyhedron.h"
#include "kernels/psm.h"
#include "kernels/stencil5.h"
#include "mapping/storage_mapping.h"
#include "schedule/executor.h"
#include "service/executor.h"
#include "service/store.h"
#include "sim/streaming.h"
#include "sim/trace.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/thread_pool.h"
#include "tune/tune.h"

namespace uov {
namespace fuzz {

namespace {

/** Enumerate every integer point of [lo, hi]; stop when f is false. */
template <typename Fn>
void
forEachBoxPoint(const IVec &lo, const IVec &hi, Fn f)
{
    IVec p = lo;
    size_t d = lo.dim();
    for (;;) {
        if (!f(p))
            return;
        size_t c = d;
        while (c-- > 0) {
            if (p[c] < hi[c]) {
                ++p[c];
                break;
            }
            p[c] = lo[c];
            if (c == 0)
                return;
        }
    }
}

std::string
vecsStr(const std::vector<IVec> &vs)
{
    std::string s = "{";
    for (size_t i = 0; i < vs.size(); ++i)
        s += (i ? ", " : "") + vs[i].str();
    return s + "}";
}

} // namespace

bool
FuzzCase::valid() const
{
    if (deps.empty())
        return false;
    try {
        Stencil s(deps);
        if (lo.dim() != s.dim() || hi.dim() != s.dim())
            return false;
    } catch (const UovError &) {
        return false;
    }
    for (size_t c = 0; c < lo.dim(); ++c)
        if (lo[c] > hi[c])
            return false;
    return true;
}

std::string
FuzzCase::str() const
{
    std::ostringstream oss;
    oss << "seed=" << seed << " deps=" << vecsStr(deps)
        << " candidates=" << vecsStr(candidates) << " box=["
        << lo.str() << ", " << hi.str() << "]";
    return oss.str();
}

FuzzCase
makeCase(uint64_t case_seed, const GenOptions &opt)
{
    SplitMix64 rng(case_seed);
    Stencil s = randomStencil(rng, opt);

    FuzzCase c;
    c.seed = case_seed;
    c.deps = s.deps();
    randomIsgBox(rng, s.dim(), opt, c.lo, c.hi);

    int64_t radius =
        std::min<int64_t>(s.initialUov().normInf() + 1, 6);
    for (int k = 0; k < 4; ++k)
        c.candidates.push_back(randomCandidate(rng, s.dim(), radius));
    // Always probe the two structurally interesting points: the
    // guaranteed UOV and a raw dependence (usually not one).
    c.candidates.push_back(s.initialUov());
    c.candidates.push_back(s.dep(rng.nextBelow(s.size())));
    return c;
}

FuzzCase
caseFromNest(const LoopNest &nest)
{
    Stencil s = extractStencil(nest, 0);

    FuzzCase c;
    c.deps = s.deps();
    // Clamp the box so exhaustive cross-checks stay cheap even for
    // production-sized corpus nests.
    std::vector<int64_t> lo(s.dim()), hi(s.dim());
    for (size_t k = 0; k < s.dim(); ++k) {
        lo[k] = nest.lo()[k];
        hi[k] = std::min(nest.hi()[k], nest.lo()[k] + 7);
    }
    c.lo = IVec(std::move(lo));
    c.hi = IVec(std::move(hi));

    SplitMix64 rng(0x5EEDC0FFEEULL + s.size());
    int64_t radius =
        std::min<int64_t>(s.initialUov().normInf() + 1, 6);
    for (int k = 0; k < 3; ++k)
        c.candidates.push_back(randomCandidate(rng, s.dim(), radius));
    c.candidates.push_back(s.initialUov());
    for (const auto &v : s.deps())
        c.candidates.push_back(v);
    return c;
}

std::optional<bool>
bruteForceConeContains(const Stencil &stencil, const IVec &target)
{
    auto h = stencil.positiveFunctional();
    if (!h)
        return std::nullopt;
    if (target.isZero())
        return true;
    int64_t ht = h->dot(target);
    if (ht <= 0)
        return false;

    // Forward closure: grow the cone from the origin one generator at
    // a time, never past the target's h-level.  Every step raises h
    // by at least 1, so the closure is finite and its size is bounded
    // by the lattice points of the cone slice h . p <= ht.
    constexpr size_t kMaxClosure = 500'000;
    std::unordered_set<IVec, IVecHash> seen;
    std::vector<IVec> frontier{IVec(stencil.dim())};
    seen.insert(frontier.front());
    while (!frontier.empty()) {
        std::vector<IVec> next;
        for (const auto &p : frontier) {
            for (const auto &v : stencil.deps()) {
                IVec q = p + v;
                if (h->dot(q) > ht)
                    continue;
                if (q == target)
                    return true;
                if (seen.insert(q).second)
                    next.push_back(q);
            }
        }
        if (seen.size() > kMaxClosure)
            return std::nullopt; // too big to decide independently
        frontier = std::move(next);
    }
    return false;
}

OracleVerdict
checkMembership(const FuzzCase &c)
{
    Stencil s = c.stencil();
    // All three views share one cone memo: each membership subproblem
    // over s is solved once for the whole oracle family.
    auto memo = std::make_shared<ConeMemo>(s);
    UovOracle oracle(memo);
    ConeSolver solver(memo);
    DoneDeadAnalysis dd(memo);
    IVec origin(s.dim());

    for (const auto &w : c.candidates) {
        if (w.dim() != s.dim())
            continue;

        // Cone membership: memoized backward search vs forward
        // closure vs coefficient certificate.
        bool in_cone = solver.contains(w);
        auto bf = bruteForceConeContains(s, w);
        if (bf && *bf != in_cone) {
            return "cone membership of " + w.str() + " over " +
                   s.str() + ": ConeSolver says " +
                   (in_cone ? "yes" : "no") +
                   ", forward closure says the opposite";
        }
        auto coeffs = solver.certificate(w);
        if (coeffs.has_value() != in_cone)
            return "certificate existence for " + w.str() + " over " +
                   s.str() + " disagrees with membership";
        if (coeffs) {
            IVec sum(s.dim());
            for (size_t i = 0; i < coeffs->size(); ++i) {
                if ((*coeffs)[i] < 0)
                    return "negative certificate coefficient for " +
                           w.str() + " over " + s.str();
                sum += s.dep(i) * (*coeffs)[i];
            }
            if (sum != w)
                return "certificate for " + w.str() + " over " +
                       s.str() + " sums to " + sum.str();
        }

        // UOV membership: oracle vs DEAD-set definition at two
        // different q (the paper's q-independence) vs brute force.
        bool is_uov = oracle.isUov(w);
        bool dead_at_origin = dd.isDead(origin, origin - w);
        bool dead_at_hi = dd.isDead(c.hi, c.hi - w);
        if (dead_at_origin != dead_at_hi)
            return "DEAD-set q-independence violated for " + w.str() +
                   " over " + s.str() + ": q=0 says " +
                   (dead_at_origin ? "dead" : "live") + ", q=" +
                   c.hi.str() + " disagrees";
        if (dead_at_origin != is_uov)
            return "isUov(" + w.str() + ") = " +
                   (is_uov ? "true" : "false") + " over " + s.str() +
                   " but q - w in DEAD(V, q) says the opposite";

        bool brute_ok = true, brute_known = true;
        if (w.isZero()) {
            brute_ok = false;
        } else {
            for (const auto &v : s.deps()) {
                auto m = bruteForceConeContains(s, w - v);
                if (!m) {
                    brute_known = false;
                    break;
                }
                if (!*m) {
                    brute_ok = false;
                    break;
                }
            }
        }
        if (brute_known && brute_ok != is_uov)
            return "isUov(" + w.str() + ") over " + s.str() +
                   " contradicts the forward-closure brute force";

        // Full certificate: existence iff membership, every row an
        // independent witness.
        auto cert = oracle.certify(w);
        if (cert.has_value() != is_uov)
            return "certify(" + w.str() + ") existence over " +
                   s.str() + " disagrees with isUov";
        if (cert) {
            for (size_t i = 0; i < cert->rows.size(); ++i) {
                const auto &row = cert->rows[i];
                if (row.size() != s.size() || row[i] < 1)
                    return "certificate row " + std::to_string(i) +
                           " for " + w.str() + " over " + s.str() +
                           " lacks the required diagonal a_ii >= 1";
                IVec sum(s.dim());
                for (size_t j = 0; j < row.size(); ++j) {
                    if (row[j] < 0)
                        return "negative coefficient in certificate "
                               "row " +
                               std::to_string(i) + " for " + w.str() +
                               " over " + s.str();
                    sum += s.dep(j) * row[j];
                }
                if (sum != w)
                    return "certificate row " + std::to_string(i) +
                           " for " + w.str() + " over " + s.str() +
                           " sums to " + sum.str();
            }
        }
    }
    return std::nullopt;
}

OracleVerdict
checkSearch(const FuzzCase &c)
{
    Stencil s = c.stencil();
    Polyhedron isg = Polyhedron::box(c.lo, c.hi);
    UovOracle oracle(s);

    for (SearchObjective obj : {SearchObjective::ShortestVector,
                                SearchObjective::BoundedStorage}) {
        const char *obj_name = obj == SearchObjective::ShortestVector
                                   ? "shortest"
                                   : "storage";
        SearchOptions base;
        if (obj == SearchObjective::BoundedStorage)
            base.isg = isg;

        // Size the search region before running anything: the
        // known-bounds radius can explode on unlucky boxes (P_ovo/P_M
        // in the hundreds), and the ablations explore the whole ball.
        // Small ball: let every run finish and compare all four
        // implementations exactly.  Large ball: run with a small visit
        // cap and check only the anytime properties (each result is a
        // genuine UOV no worse than the initial one) -- capped runs
        // are allowed to disagree on the optimum.
        IVec initial = s.initialUov();
        int64_t radius_sq =
            obj == SearchObjective::ShortestVector
                ? initial.normSquared()
                : knownBoundsRadiusSquared(initial, isg);
        auto radius = static_cast<int64_t>(std::sqrt(
                          static_cast<double>(radius_sq))) +
                      1;
        double ball = 1;
        for (size_t k = 0; k < s.dim(); ++k)
            ball *= static_cast<double>(2 * radius + 1);
        bool small_ball = ball <= 40'000;
        if (!small_ball)
            base.budget.max_nodes = 2'000;

        SearchOptions fifo = base;
        fifo.use_priority_queue = false;
        SearchOptions noshrink = base;
        noshrink.disable_bound_shrinking = true;

        SearchResult bb = BranchBoundSearch(s, obj, base).run();
        SearchResult ff = BranchBoundSearch(s, obj, fifo).run();
        SearchResult ns = BranchBoundSearch(s, obj, noshrink).run();

        for (const auto *r : {&bb, &ff, &ns}) {
            if (!oracle.isUov(r->best_uov))
                return std::string(obj_name) + " search over " +
                       s.str() + " returned non-universal " +
                       r->best_uov.str();
            if (r->best_objective > r->initial_objective)
                return std::string(obj_name) + " search over " +
                       s.str() + " ended worse than the initial UOV";
        }
        if (!small_ball || bb.degraded() || ff.degraded() ||
            ns.degraded())
            continue;
        if (ff.best_objective != bb.best_objective)
            return std::string(obj_name) + " FIFO ablation over " +
                   s.str() + " found objective " +
                   std::to_string(ff.best_objective) +
                   " != priority-queue " +
                   std::to_string(bb.best_objective);
        if (ns.best_objective != bb.best_objective)
            return std::string(obj_name) +
                   " no-shrink ablation over " + s.str() +
                   " found objective " +
                   std::to_string(ns.best_objective) + " != default " +
                   std::to_string(bb.best_objective);

        // Exhaustive reference over the same (small) ball.
        SearchResult ex = exhaustiveUovSearch(s, obj, base);
        if (ex.best_objective != bb.best_objective)
            return std::string(obj_name) +
                   " branch-and-bound over " + s.str() +
                   " found objective " +
                   std::to_string(bb.best_objective) +
                   " but exhaustive ball search found " +
                   std::to_string(ex.best_objective) + " (" +
                   ex.best_uov.str() + ")";
    }
    return std::nullopt;
}

OracleVerdict
checkMapping(const FuzzCase &c)
{
    Stencil s = c.stencil();
    Polyhedron isg = Polyhedron::box(c.lo, c.hi);

    SearchResult bb =
        BranchBoundSearch(s, SearchObjective::ShortestVector).run();
    std::vector<IVec> ovs{bb.best_uov};
    if (s.initialUov() != bb.best_uov)
        ovs.push_back(s.initialUov());

    for (const auto &ov : ovs) {
        for (ModLayout layout :
             {ModLayout::Interleaved, ModLayout::Blocked}) {
            StorageMapping sm = StorageMapping::create(ov, isg, layout);
            std::string bad;
            forEachBoxPoint(c.lo, c.hi, [&](const IVec &q) {
                int64_t i = sm(q);
                if (i < 0 || i >= sm.cellCount()) {
                    bad = "SM(" + q.str() + ") = " +
                          std::to_string(i) + " outside [0, " +
                          std::to_string(sm.cellCount()) + ")";
                    return false;
                }
                if (sm(q + ov) != i) {
                    bad = "SM not ov-periodic at " + q.str();
                    return false;
                }
                return true;
            });
            if (!bad.empty())
                return "mapping for ov " + ov.str() + " over " +
                       s.str() + " box [" + c.lo.str() + ", " +
                       c.hi.str() + "]: " + bad;
        }

        // Execute under random legal schedules with writer-tracked
        // storage: a UOV may never let a live value be overwritten.
        // cone_safe: the UOV guarantee covers schedules respecting the
        // full dependence-cone precedence; an in-box topological order
        // is weaker near the ISG boundary (forcing chains can exit the
        // box) and genuinely clobbers live values -- this fuzzer found
        // 2-dependence repros (see examples/corpus/boundary_topo.nest).
        StencilComputation comp(s);
        SplitMix64 rng(c.seed ^ 0x9e3779b97f4a7c15ULL);
        for (int j = 0; j < 3; ++j) {
            auto sched = randomLegalSchedule(rng, s, /*cone_safe=*/true);
            for (ModLayout layout :
                 {ModLayout::Interleaved, ModLayout::Blocked}) {
                ExecutionResult r = runWithOvStorage(
                    comp, *sched, c.lo, c.hi, ov, layout);
                if (!r.correct() || r.clobbers != 0)
                    return "ov " + ov.str() + " over " + s.str() +
                           " under schedule " + sched->name() +
                           " box [" + c.lo.str() + ", " + c.hi.str() +
                           "]: " + std::to_string(r.mismatches) +
                           " mismatches, " +
                           std::to_string(r.clobbers) + " clobbers";
            }
        }
    }
    return std::nullopt;
}

namespace {

/** Compare every observable statistic of two memory systems. */
OracleVerdict
diffStats(const MemorySystem &a, const MemorySystem &b,
          const std::string &label)
{
    std::ostringstream oss;
    auto miss = [&](const char *what, auto x, auto y) {
        oss << label << ": " << what << " " << x << " != " << y;
        return oss.str();
    };
    if (a.accesses() != b.accesses())
        return miss("accesses", a.accesses(), b.accesses());
    if (a.branches() != b.branches())
        return miss("branches", a.branches(), b.branches());
    if (a.pageFaults() != b.pageFaults())
        return miss("page faults", a.pageFaults(), b.pageFaults());
    if (a.tlb().misses() != b.tlb().misses())
        return miss("TLB misses", a.tlb().misses(), b.tlb().misses());
    auto level = [&](const Cache *x, const Cache *y,
                     const char *name) -> OracleVerdict {
        if ((x == nullptr) != (y == nullptr))
            return miss(name, x ? "present" : "absent",
                        y ? "present" : "absent");
        if (!x)
            return std::nullopt;
        if (x->hits() != y->hits())
            return miss(name, x->hits(), y->hits());
        if (x->misses() != y->misses())
            return miss(name, x->misses(), y->misses());
        if (x->writebacks() != y->writebacks())
            return miss(name, x->writebacks(), y->writebacks());
        return std::nullopt;
    };
    if (auto v = level(&a.l1(), &b.l1(), "L1"))
        return v;
    if (auto v = level(&a.l2(), &b.l2(), "L2"))
        return v;
    if (auto v = level(a.l3(), b.l3(), "L3"))
        return v;
    // Bit-identical cycle accounting, not approximate.
    if (a.cycles() != b.cycles())
        return miss("cycles", a.cycles(), b.cycles());
    return std::nullopt;
}

/** Fused vs record-then-replay vs direct, for one kernel closure. */
template <typename RunKernel>
OracleVerdict
diffStreaming(const std::string &label, RunKernel run)
{
    std::vector<MachineConfig> machines{MachineConfig::pentiumPro(),
                                        MachineConfig::ultra2(),
                                        MachineConfig::alpha21164()};

    MultiMachineSim fused(machines);
    double fused_result;
    {
        StreamingSim mem = fused.policy();
        VirtualArena arena;
        fused_result = run(mem, arena);
    }

    Trace trace;
    double traced_result;
    {
        VirtualArena arena;
        TracingMem mem{&trace, 0};
        traced_result = run(mem, arena);
    }
    if (fused_result != traced_result)
        return label + ": fused kernel result " +
               std::to_string(fused_result) +
               " != traced kernel result " +
               std::to_string(traced_result);

    for (size_t m = 0; m < machines.size(); ++m) {
        MemorySystem replayed(machines[m]);
        trace.replay(replayed);
        if (auto v = diffStats(fused.system(m), replayed,
                               label + " fused-vs-replay on " +
                                   machines[m].name))
            return v;

        MemorySystem direct(machines[m]);
        double direct_result;
        {
            SimMem mem{&direct};
            VirtualArena arena;
            direct_result = run(mem, arena);
        }
        if (direct_result != fused_result)
            return label + ": direct SimMem result differs on " +
                   machines[m].name;
        if (auto v = diffStats(fused.system(m), direct,
                               label + " fused-vs-direct on " +
                                   machines[m].name))
            return v;
    }
    return std::nullopt;
}

} // namespace

OracleVerdict
checkStreaming(uint64_t case_seed)
{
    SplitMix64 rng(case_seed);
    if (rng.nextBelow(2) == 0) {
        Stencil5Config cfg;
        cfg.length = 8 + static_cast<int64_t>(rng.nextBelow(57));
        cfg.steps = 1 + static_cast<int64_t>(rng.nextBelow(8));
        cfg.tile_t = 1 + static_cast<int64_t>(rng.nextBelow(8));
        cfg.tile_s = 4 + static_cast<int64_t>(rng.nextBelow(61));
        const auto &variants = allStencil5Variants();
        Stencil5Variant v = variants[rng.nextBelow(variants.size())];
        std::string label = "stencil5/" +
                            std::string(stencil5VariantName(v)) +
                            " L=" + std::to_string(cfg.length) +
                            " T=" + std::to_string(cfg.steps);
        return diffStreaming(label, [&](auto &mem, auto &arena) {
            return runStencil5(v, cfg, mem, arena);
        });
    }

    PsmConfig cfg;
    cfg.n0 = 8 + static_cast<int64_t>(rng.nextBelow(33));
    cfg.n1 = 8 + static_cast<int64_t>(rng.nextBelow(33));
    cfg.tile_i = 4 + static_cast<int64_t>(rng.nextBelow(29));
    cfg.tile_j = 4 + static_cast<int64_t>(rng.nextBelow(29));
    const auto &variants = allPsmVariants();
    PsmVariant v = variants[rng.nextBelow(variants.size())];
    std::string label = "psm/" + std::string(psmVariantName(v)) +
                        " n0=" + std::to_string(cfg.n0) +
                        " n1=" + std::to_string(cfg.n1);
    return diffStreaming(label, [&](auto &mem, auto &arena) {
        return runPsm(v, cfg, mem, arena);
    });
}

namespace {

/** "answer 7 best=..." -> "best=..." (index-independent payload). */
std::string
stripIndex(const std::string &line)
{
    size_t first = line.find(' ');
    size_t second =
        first == std::string::npos ? first : line.find(' ', first + 1);
    return second == std::string::npos ? line : line.substr(second + 1);
}

} // namespace

OracleVerdict
checkService(const FuzzCase &c)
{
    if (!c.valid())
        return std::nullopt;

    // Small cap (same as checkSearch's large-ball mode): the oracle's
    // claim is byte-identity between the service and the direct path,
    // which the determinism contract makes independent of where the
    // search stops.
    constexpr uint64_t kVisitCap = 2'000;

    // Presentations per objective, grouped by canonical key:
    //   group A: the deps as given, reversed, and with a duplicate
    //            appended (Stencil construction sorts and dedups);
    //   group B: V + {2*v0, 3*v0} and V + {3*v0}.  2*v0 is removable
    //            once 3*v0 is present (3*v0 - 2*v0 = v0 lies in the
    //            cone) while 3*v0 alone generally is not, so the two
    //            share a canonical key that differs from group A's.
    std::vector<service::Request> reqs;
    std::vector<size_t> group_a, group_b; // indices into reqs
    auto add = [&](std::vector<IVec> deps, service::Verb verb) {
        service::Request r;
        r.index = reqs.size() + 1;
        r.deps = std::move(deps);
        r.verb = verb;
        if (verb == service::Verb::Storage) {
            r.isg_lo = c.lo;
            r.isg_hi = c.hi;
        }
        reqs.push_back(std::move(r));
        return reqs.size() - 1;
    };
    std::vector<IVec> rev(c.deps.rbegin(), c.deps.rend());
    std::vector<IVec> dup = c.deps;
    dup.push_back(c.deps.front());
    std::vector<IVec> with3 = c.deps;
    with3.push_back(c.deps.front() * 3);
    std::vector<IVec> with23 = with3;
    with23.push_back(c.deps.front() * 2);
    for (service::Verb verb : {service::Verb::Shortest,
                               service::Verb::Storage}) {
        group_a.push_back(add(c.deps, verb));
        group_a.push_back(add(rev, verb));
        group_a.push_back(add(dup, verb));
        group_b.push_back(add(with23, verb));
        group_b.push_back(add(with3, verb));
    }

    std::vector<std::string> direct =
        service::runBatchDirect(reqs, kVisitCap);

    // Key-equal presentations must produce identical payloads.
    for (const auto *group : {&group_a, &group_b}) {
        for (size_t k = 1; k < group->size() / 2; ++k) {
            for (size_t half : {size_t{0}, group->size() / 2}) {
                const std::string &a = direct[(*group)[half]];
                const std::string &b = direct[(*group)[half + k]];
                if (stripIndex(a) != stripIndex(b))
                    return "key-equal presentations of " +
                           vecsStr(c.deps) + " answered '" + a +
                           "' vs '" + b + "'";
            }
        }
    }

    // The service must match the direct path byte-for-byte at every
    // cache/shard/thread configuration, and with the cache enabled
    // its lookup counters must reconcile with the request count.
    struct Config
    {
        size_t cache_bytes;
        size_t shards;
        unsigned threads;
    };
    constexpr Config kConfigs[] = {
        {64u << 20, 1, 1},
        {64u << 20, 16, 4},
        {0, 16, 2},
    };
    for (const Config &cfg : kConfigs) {
        service::ServiceOptions so;
        so.cache_bytes = cfg.cache_bytes;
        so.cache_shards = cfg.shards;
        so.max_visits = kVisitCap;
        MetricsRegistry metrics;
        service::QueryService svc(so, metrics);
        ThreadPool pool(cfg.threads);
        std::vector<std::string> got =
            service::runBatch(svc, reqs, pool);
        for (size_t i = 0; i < reqs.size(); ++i) {
            if (got[i] != direct[i])
                return "service (cache=" +
                       std::to_string(cfg.cache_bytes) + " threads=" +
                       std::to_string(cfg.threads) + ") answered '" +
                       got[i] + "' but direct said '" + direct[i] +
                       "'";
        }
        if (cfg.cache_bytes > 0) {
            auto st = svc.cacheStats();
            if (st.hits + st.misses != reqs.size())
                return "cache hits " + std::to_string(st.hits) +
                       " + misses " + std::to_string(st.misses) +
                       " != " + std::to_string(reqs.size()) +
                       " requests over " + vecsStr(c.deps);
            uint64_t coalesced =
                metrics.counter("service.singleflight.coalesced")
                    .value();
            if (st.hits + svc.searchesExecuted() + coalesced !=
                reqs.size())
                return "hits + searches + coalesced != requests "
                       "over " +
                       vecsStr(c.deps) +
                       " (a query was neither served from cache, "
                       "coalesced onto a flight, nor computed)";
        }
    }
    return std::nullopt;
}

namespace {

/** Parse "best=(a, b, ...)" out of an answer line. */
std::optional<IVec>
parseBestVector(const std::string &line)
{
    size_t open = line.find("best=(");
    if (open == std::string::npos)
        return std::nullopt;
    size_t close = line.find(')', open);
    if (close == std::string::npos)
        return std::nullopt;
    std::vector<int64_t> coords;
    std::stringstream ss(
        line.substr(open + 6, close - open - 6));
    std::string part;
    while (std::getline(ss, part, ',')) {
        try {
            coords.push_back(std::stoll(part));
        } catch (const std::logic_error &) {
            return std::nullopt;
        }
    }
    if (coords.empty())
        return std::nullopt;
    return IVec(std::move(coords));
}

/** Parse " key=<int>" out of a response line. */
std::optional<int64_t>
parseField(const std::string &line, const std::string &key)
{
    std::string tag = " " + key + "=";
    size_t at = line.find(tag);
    if (at == std::string::npos)
        return std::nullopt;
    try {
        return std::stoll(line.substr(at + tag.size()));
    } catch (const std::logic_error &) {
        return std::nullopt;
    }
}

} // namespace

OracleVerdict
checkFault(const FuzzCase &c)
{
    if (!c.valid())
        return std::nullopt;

    // Everything stochastic below derives from the case seed, so a
    // failure replays from the seed alone -- including the fail-point
    // streams, which are seeded registries, not wall-clock noise.
    SplitMix64 rng(c.seed ^ 0xfa17faa57ULL);
    constexpr uint64_t kVisitCap = 2'000;
    Stencil s = c.stencil();
    UovOracle oracle(s);

    // The batch: presentations of the case stencil under random
    // deadlines, plus a malformed line and an input-invalid query.
    // Presentations reorder/duplicate only, so every answer vector
    // must be universal for the original stencil.
    constexpr int64_t kDeadlines[] = {-1, -1, 0, 1, 3};
    auto draw_deadline = [&] {
        return kDeadlines[rng.nextBelow(5)];
    };
    std::vector<service::Request> reqs;
    auto add = [&](std::vector<IVec> deps, service::Verb verb) {
        service::Request r;
        r.index = reqs.size() + 1;
        r.deps = std::move(deps);
        r.verb = verb;
        r.deadline_ms = draw_deadline();
        if (verb == service::Verb::Storage) {
            r.isg_lo = c.lo;
            r.isg_hi = c.hi;
        }
        reqs.push_back(std::move(r));
    };
    std::vector<IVec> rev(c.deps.rbegin(), c.deps.rend());
    std::vector<IVec> dup = c.deps;
    dup.push_back(c.deps.front());
    for (service::Verb verb : {service::Verb::Shortest,
                               service::Verb::Storage}) {
        add(c.deps, verb);
        add(rev, verb);
        add(dup, verb);
    }
    reqs.push_back(service::parseRequestLine("query bogus",
                                             reqs.size() + 1));
    {
        // Well-formed but input-invalid: the zero vector is rejected
        // by Stencil's constructor at solve time, not parse time.
        service::Request bad;
        bad.index = reqs.size() + 1;
        bad.deps = {IVec(c.deps.front().dim())};
        bad.deadline_ms = draw_deadline();
        reqs.push_back(std::move(bad));
    }

    // Seed-derived fail-point configuration over every registered
    // site; probability 0 keeps a site effectively disarmed.
    constexpr const char *kSites[] = {"cache_insert", "task_start",
                                      "answer_render"};
    constexpr double kProbs[] = {0.0, 0.25, 1.0};
    {
        failpoint::ScopedFailPoints scope;
        for (const char *site : kSites) {
            failpoint::Config config;
            config.probability = kProbs[rng.nextBelow(3)];
            config.seed = rng.next();
            config.action = rng.nextBelow(2) == 0
                                ? failpoint::Action::Throw
                                : failpoint::Action::Delay;
            config.delay_ms = 1;
            failpoint::Registry::instance().arm(site, config);
        }

        service::ServiceOptions so;
        so.cache_bytes = rng.nextBelow(2) == 0 ? 0 : (64u << 20);
        so.cache_shards = rng.nextBelow(2) == 0 ? 1 : 16;
        so.max_visits = kVisitCap;
        MetricsRegistry metrics;
        service::QueryService svc(so, metrics);
        ThreadPool pool(1 + static_cast<unsigned>(rng.nextBelow(4)));
        std::vector<std::string> got =
            service::runBatch(svc, reqs, pool);

        if (got.size() != reqs.size())
            return "fault batch of " + std::to_string(reqs.size()) +
                   " requests drew " + std::to_string(got.size()) +
                   " responses";
        for (size_t i = 0; i < got.size(); ++i) {
            const std::string &line = got[i];
            std::string idx = std::to_string(i + 1);
            bool is_answer = line.rfind("answer " + idx + " ", 0) == 0;
            bool is_error = line.rfind("error " + idx + " ", 0) == 0;
            if (!is_answer && !is_error)
                return "response " + idx +
                       " is mis-ordered or mangled: '" + line + "'";
            if (!is_answer)
                continue;
            if (i >= 6)
                return "deliberately bad request " + idx +
                       " drew an answer: '" + line + "'";
            auto best = parseBestVector(line);
            auto value = parseField(line, "value");
            auto initial = parseField(line, "initial");
            if (!best || !value || !initial)
                return "unparsable answer line '" + line + "'";
            if (!oracle.isUov(*best))
                return "fault answer '" + line +
                       "' is not universal for " + s.str();
            if (*value > *initial)
                return "fault answer '" + line +
                       "' is worse than the ov_o fallback";
        }

        // Reconciliation: every batch line lands in exactly one
        // response class.
        uint64_t optimal =
            metrics.counter("service.optimal").value();
        uint64_t degraded =
            metrics.counter("service.degraded").value();
        uint64_t errors =
            metrics.counter("service.request_errors").value();
        if (optimal + degraded + errors != reqs.size())
            return "optimal " + std::to_string(optimal) +
                   " + degraded " + std::to_string(degraded) +
                   " + request_errors " + std::to_string(errors) +
                   " != " + std::to_string(reqs.size()) + " requests";
    }

    // With fail points cleared, the deterministic deadline classes
    // (unbounded and 0 ms) must keep the byte-identity contract --
    // including error and degraded response lines.
    for (service::Request &r : reqs)
        if (r.deadline_ms > 0)
            r.deadline_ms = rng.nextBelow(2) == 0 ? -1 : 0;
    std::vector<std::string> direct =
        service::runBatchDirect(reqs, kVisitCap);
    service::ServiceOptions so;
    so.max_visits = kVisitCap;
    MetricsRegistry metrics;
    service::QueryService svc(so, metrics);
    ThreadPool pool(2);
    std::vector<std::string> got = service::runBatch(svc, reqs, pool);
    for (size_t i = 0; i < reqs.size(); ++i)
        if (got[i] != direct[i])
            return "deterministic replay diverged: service '" +
                   got[i] + "' vs direct '" + direct[i] + "'";
    return std::nullopt;
}

OracleVerdict
checkCodegen(const FuzzCase &c)
{
    // Graceful skip, not failure: sanitizer CI images may lack a C
    // compiler, and the oracle is meaningless without one.
    if (!JitCompiler::hostCompilerAvailable())
        return std::nullopt;

    Stencil s = c.stencil();
    size_t d = s.dim();

    // Realize the case as the paper's program class: one statement
    // whose reads sit at minus each dependence distance.  Clamp the
    // box so interpret + compile + run stays cheap per case.
    std::vector<int64_t> lo(d), hi(d);
    for (size_t k = 0; k < d; ++k) {
        lo[k] = c.lo[k];
        hi[k] = std::min(c.hi[k], c.lo[k] + 5);
    }
    LoopNest nest("fuzz", IVec(std::move(lo)), IVec(std::move(hi)));
    Statement st;
    st.name = "F";
    st.write = uniformAccess("F", IVec(d));
    for (const IVec &dep : s.deps()) {
        std::vector<int64_t> off(d);
        for (size_t k = 0; k < d; ++k)
            off[k] = -dep[k];
        st.reads.push_back(uniformAccess("F", IVec(std::move(off))));
    }
    nest.addStatement(st);

    std::optional<MappingPlan> plan;
    try {
        plan = planStorageMapping(nest, 0);
    } catch (const UovUserError &) {
        // A case shape the planning pipeline rejects is not a
        // codegen bug; the mapping/search oracles own that surface.
        return std::nullopt;
    }

    std::vector<double> ref = interpretKernel(nest);

    // Every applicable (schedule, storage) variant, one shared JIT so
    // repeated sources across cases hit the cache.
    struct Variant
    {
        GenSchedule schedule;
        GenStorage storage;
        std::vector<int64_t> tiles;
    };
    std::vector<Variant> variants = {
        {GenSchedule::Lexicographic, GenStorage::Expanded, {}},
        {GenSchedule::RegisterTiled, GenStorage::Expanded, {}},
    };
    // OV-mapped variants only apply when the chosen OV advances
    // dimension 0 -- otherwise the output-hyperplane convention is
    // unsound and generateC rejects (by design, not a bug).
    if (plan->mapping.ov()[0] >= 1) {
        variants.push_back(
            {GenSchedule::Lexicographic, GenStorage::OvMapped, {}});
        variants.push_back(
            {GenSchedule::RegisterTiled, GenStorage::OvMapped, {}});
    }
    // Skewed tiling needs every dependence to advance dimension 0.
    bool skewable = d == 2;
    for (const IVec &dep : s.deps())
        skewable = skewable && dep[0] >= 1;
    if (skewable) {
        SplitMix64 rng(c.seed ^ 0xC0DE6E17ULL);
        variants.push_back({GenSchedule::SkewedTiled,
                            plan->mapping.ov()[0] >= 1
                                ? GenStorage::OvMapped
                                : GenStorage::Expanded,
                            {rng.nextInRange(1, 6),
                             rng.nextInRange(1, 8)}});
    }

    JitCompiler jit;
    for (const Variant &var : variants) {
        CodegenOptions opts;
        opts.schedule = var.schedule;
        opts.storage = var.storage;
        opts.tile_sizes = var.tiles;
        opts.function_name = "uov_fuzz_kernel";
        GeneratedCode code = generateC(nest, *plan, opts);
        std::string label =
            std::string("codegen variant schedule=") +
            std::to_string(static_cast<int>(var.schedule)) +
            " storage=" +
            std::to_string(static_cast<int>(var.storage)) + " over " +
            s.str() + " box [" + nest.lo().str() + ", " +
            nest.hi().str() + "]";

        if (var.storage == GenStorage::OvMapped &&
            code.temp_cells != plan->mapping.cellCount())
            return label + ": temp array has " +
                   std::to_string(code.temp_cells) +
                   " cells, mapping.cellCount() is " +
                   std::to_string(plan->mapping.cellCount());

        JitKernel kernel = jit.compileAndLoad(code);
        std::vector<double> got(ref.size(),
                                std::numeric_limits<double>::quiet_NaN());
        kernel.fn<void (*)(double *)>(code.function_name)(got.data());
        for (size_t i = 0; i < ref.size(); ++i)
            if (got[i] != ref[i])
                return label + ": output[" + std::to_string(i) +
                       "] = " + std::to_string(got[i]) +
                       ", interpreter says " + std::to_string(ref[i]) +
                       " (unroll=" + std::to_string(code.unroll) +
                       ", jam=" + std::to_string(code.jam) + ")";
    }
    return std::nullopt;
}

OracleVerdict
checkTune(const FuzzCase &c)
{
    Stencil s = c.stencil();
    size_t d = s.dim();

    // Same box clamp as checkCodegen (tighter: tune evaluation
    // replays every candidate point-by-point, four runs per case).
    std::vector<int64_t> lo(d), hi(d);
    for (size_t k = 0; k < d; ++k) {
        lo[k] = c.lo[k];
        hi[k] = std::min(c.hi[k], c.lo[k] + 3);
    }
    IVec box_lo(std::move(lo)), box_hi(std::move(hi));

    // Every-candidate-legal probe, shared by all simulator runs: the
    // tuner promises it never evaluates an illegal configuration, so
    // a single violation anywhere is a discrepancy.
    UovOracle exact(s);
    std::string violation;
    auto probe = [&](const tune::TuneCandidate &cand, double score,
                     size_t index, int64_t) {
        if (!violation.empty())
            return;
        if (!cand.schedule.legal(s)) {
            violation = "evaluated candidate " + std::to_string(index) +
                        " has an illegal schedule: " + cand.str();
            return;
        }
        if (cand.storage == GenStorage::OvMapped &&
            (cand.uov()[0] < 1 || !exact.isUov(cand.uov())))
            violation = "evaluated OV-mapped candidate " +
                        std::to_string(index) +
                        " carries a non-UOV vector: " + cand.str();
        if (!(score >= 0.0))
            violation = "candidate " + std::to_string(index) +
                        " scored " + std::to_string(score);
    };

    tune::TuneOptions opt;
    opt.lowerable_only = false; // widest candidate space
    opt.on_candidate = probe;
    // Node-bound the embedded UOV searches: random stencils can be
    // genuinely hard, and a node budget degrades deterministically
    // (unlike a wall-clock deadline) so the replay check below still
    // has teeth.
    opt.budget.max_nodes = 20'000;

    auto runOnce = [&](const tune::TuneOptions &o)
        -> std::optional<tune::TuneResult> {
        tune::Tuner tuner(nestFromStencil(s, box_lo, box_hi, "fuzz"),
                          o);
        return tuner.run();
    };

    std::optional<tune::TuneResult> first;
    try {
        first = runOnce(opt);
    } catch (const UovUserError &) {
        // A case shape the planning pipeline rejects is not a tuner
        // bug; the mapping/search oracles own that surface.
        return std::nullopt;
    }
    if (!violation.empty())
        return violation + " over " + s.str();

    if (first->evaluated != first->candidates_total ||
        first->evaluated == 0)
        return "deadline-free tuner evaluated " +
               std::to_string(first->evaluated) + " of " +
               std::to_string(first->candidates_total) +
               " candidates over " + s.str();
    // With no deadline and no candidate cap, the only legitimate
    // degradation axis is the UOV searches' node budget.
    if (first->status == tune::TuneStatus::Optimal
            ? !first->degraded_reason.empty()
            : first->degraded_reason != "node-budget")
        return "deadline-free tune run degraded for '" +
               first->degraded_reason + "' over " + s.str();
    if (!first->best.schedule.legal(s))
        return "tune winner has an illegal schedule: " +
               first->best.str() + " over " + s.str();

    // Determinism: the simulator-evaluated tune is a pure function of
    // (nest, options) -- the winner, its score, and the evaluated
    // count must all replay exactly.
    tune::TuneResult second = *runOnce(opt);
    if (!violation.empty())
        return violation + " over " + s.str();
    if (second.best.str() != first->best.str() ||
        second.best_score != first->best_score ||
        second.evaluated != first->evaluated ||
        second.candidates_total != first->candidates_total)
        return "tune replay diverged: {" + first->best.str() +
               ", score " + std::to_string(first->best_score) + ", " +
               std::to_string(first->evaluated) + "/" +
               std::to_string(first->candidates_total) + "} vs {" +
               second.best.str() + ", score " +
               std::to_string(second.best_score) + ", " +
               std::to_string(second.evaluated) + "/" +
               std::to_string(second.candidates_total) + "} over " +
               s.str();

    // Anytime contract: an already-expired deadline still yields a
    // legal certified configuration, tagged Degraded, with exactly
    // the deterministic candidate-0 floor evaluated.
    tune::TuneOptions zero = opt;
    zero.budget.deadline = Deadline::afterMillis(0);
    tune::TuneResult floor = *runOnce(zero);
    if (!violation.empty())
        return violation + " over " + s.str();
    if (floor.status != tune::TuneStatus::Degraded ||
        floor.degraded_reason.empty())
        return "0 ms deadline tune was not Degraded over " + s.str();
    if (floor.evaluated < 1)
        return "0 ms deadline tune evaluated nothing over " + s.str();
    if (!floor.best.schedule.legal(s))
        return "0 ms deadline tune winner is illegal: " +
               floor.best.str() + " over " + s.str();

    // With a host compiler, a small lowerable-only JIT-evaluated tune:
    // JitEvaluator re-verifies every measured kernel bit-exactly
    // against the interpreter internally, so a codegen divergence
    // inside the tuner surfaces as a thrown UovError here.
    if (JitCompiler::hostCompilerAvailable()) {
        tune::JitEvalOptions jopts;
        jopts.runs = 1; // exactness is the point, not timing
        tune::JitEvaluator jit_eval(jopts);
        tune::TuneOptions measured;
        measured.lowerable_only = true;
        measured.max_candidates = 6;
        measured.budget.max_nodes = 20'000;
        measured.evaluator = &jit_eval;
        measured.on_candidate = probe;
        tune::TuneResult timed = *runOnce(measured);
        if (!violation.empty())
            return violation + " over " + s.str();
        if (timed.evaluated < 1 ||
            !timed.best.schedule.legal(s))
            return "JIT-evaluated tune returned an unevaluated or "
                   "illegal winner: " +
                   timed.best.str() + " over " + s.str();
    }

    return std::nullopt;
}

OracleVerdict
checkDurability(const FuzzCase &c)
{
    if (!c.valid())
        return std::nullopt;
    namespace fs = std::filesystem;

    // Everything stochastic -- fail-point streams, crash cut points,
    // flipped bits -- derives from the case seed: any failure replays
    // from the printed seed alone.
    SplitMix64 rng(c.seed ^ 0xd04ab1e5ULL);
    constexpr uint64_t kVisitCap = 2'000;
    Stencil s = c.stencil();
    UovOracle oracle(s);

    std::string base =
        (fs::temp_directory_path() /
         ("uov-durability-" + std::to_string(::getpid()) + "-" +
          std::to_string(c.seed)))
            .string();
    std::string store_path = base + ".log";
    std::string crash_path = base + ".crash";
    std::string svc_path = base + ".svc";
    struct Cleanup
    {
        std::vector<std::string> paths;
        ~Cleanup()
        {
            for (const auto &p : paths) {
                std::error_code ec;
                std::filesystem::remove(p, ec);
            }
        }
    } cleanup{{store_path, crash_path, svc_path}};

    // --- Phase 1: acknowledged-exactly under failing writes. -------
    // Solve a small corpus once, then append it twice (the second
    // pass exercises last-record-wins) with store_write/store_fsync
    // armed; acknowledged appends and only those must survive.
    struct Solved
    {
        service::CanonicalKey key;
        service::ServiceAnswer answer;
    };
    std::vector<Solved> corpus;
    Stencil canon = service::canonicalizeStencil(s);
    for (SearchObjective obj : {SearchObjective::ShortestVector,
                                SearchObjective::BoundedStorage}) {
        for (int64_t deadline : {int64_t{-1}, int64_t{0}}) {
            std::optional<IVec> lo, hi;
            if (obj == SearchObjective::BoundedStorage) {
                lo = c.lo;
                hi = c.hi;
            }
            SearchBudget budget;
            budget.max_nodes = kVisitCap;
            budget.deadline = Deadline::afterMillis(deadline);
            corpus.push_back(
                {service::makeKey(canon, obj, lo, hi, deadline),
                 service::solveCanonical(canon, obj, lo, hi, budget)});
        }
    }

    std::vector<std::string> acknowledged; // encoded payloads in order
    uint64_t rolled_back = 0;
    {
        failpoint::ScopedFailPoints scope;
        for (const char *site : {"store_write", "store_fsync"}) {
            failpoint::Config config;
            config.probability = 0.4;
            config.seed = rng.next();
            config.action = failpoint::Action::Throw;
            failpoint::Registry::instance().arm(site, config);
        }
        service::ResultStore store(store_path);
        for (int pass = 0; pass < 2; ++pass) {
            for (const Solved &e : corpus) {
                if (store.append(e.key, e.answer))
                    acknowledged.push_back(
                        service::ResultStore::encodePayload(e.key,
                                                            e.answer));
                else
                    ++rolled_back;
            }
        }
        auto st = store.stats();
        if (st.appends != acknowledged.size() ||
            st.append_errors != rolled_back)
            return "store counted " + std::to_string(st.appends) +
                   " appends / " + std::to_string(st.append_errors) +
                   " errors but the caller saw " +
                   std::to_string(acknowledged.size()) + " / " +
                   std::to_string(rolled_back);
    }

    auto rawPayloads = [](const service::ResultStore &store) {
        std::vector<std::string> out;
        store.forEachRaw([&](const service::CanonicalKey &k,
                             const service::ServiceAnswer &a) {
            out.push_back(
                service::ResultStore::encodePayload(k, a));
        });
        return out;
    };
    auto isPrefix = [&](const std::vector<std::string> &records) {
        if (records.size() > acknowledged.size())
            return false;
        for (size_t i = 0; i < records.size(); ++i)
            if (records[i] != acknowledged[i])
                return false;
        return true;
    };

    {
        service::ResultStore reopened(store_path);
        if (reopened.stats().truncated_bytes != 0)
            return "cleanly closed store lost " +
                   std::to_string(reopened.stats().truncated_bytes) +
                   " bytes on reopen";
        if (rawPayloads(reopened) != acknowledged)
            return "reopened store is not exactly the acknowledged "
                   "append sequence (" +
                   std::to_string(reopened.stats().records_loaded) +
                   " records vs " +
                   std::to_string(acknowledged.size()) +
                   " acknowledged)";
    }

    // --- Phase 2: kill -9 leaves a checksummed prefix. --------------
    // Truncate a copy of the log at an arbitrary byte (a crash tears
    // whatever it tears); the reopened store must hold a prefix of
    // the acknowledged sequence, and the tmp+rename repair must be
    // idempotent.
    uint64_t file_size = fs::file_size(store_path);
    for (int drill = 0; drill < 3; ++drill) {
        std::error_code ec;
        fs::copy_file(store_path, crash_path,
                      fs::copy_options::overwrite_existing, ec);
        if (ec)
            return "cannot stage crash copy: " + ec.message();
        uint64_t cut = rng.nextBelow(file_size + 1);
        fs::resize_file(crash_path, cut, ec);
        if (ec)
            return "cannot truncate crash copy: " + ec.message();
        std::vector<std::string> records;
        {
            service::ResultStore crashed(crash_path);
            records = rawPayloads(crashed);
        }
        if (!isPrefix(records))
            return "log cut at byte " + std::to_string(cut) +
                   " reopened to a non-prefix of the " +
                   std::to_string(acknowledged.size()) +
                   " acknowledged records";
        service::ResultStore again(crash_path);
        if (again.stats().truncated_bytes != 0)
            return "torn-tail repair was not idempotent at cut " +
                   std::to_string(cut);
        if (rawPayloads(again) != records)
            return "repaired log changed records at cut " +
                   std::to_string(cut);
    }

    // --- Phase 3: corruption is detected, never served. -------------
    if (file_size > 8 && !acknowledged.empty()) {
        std::error_code ec;
        fs::copy_file(store_path, crash_path,
                      fs::copy_options::overwrite_existing, ec);
        uint64_t at = 8 + rng.nextBelow(file_size - 8);
        {
            std::fstream f(crash_path, std::ios::in | std::ios::out |
                                           std::ios::binary);
            f.seekg(static_cast<std::streamoff>(at));
            char byte = 0;
            f.read(&byte, 1);
            byte = static_cast<char>(
                byte ^ (1u << rng.nextBelow(8)));
            f.seekp(static_cast<std::streamoff>(at));
            f.write(&byte, 1);
        }
        service::ResultStore corrupted(crash_path);
        auto records = rawPayloads(corrupted);
        if (!isPrefix(records) ||
            records.size() >= acknowledged.size())
            return "byte flipped at " + std::to_string(at) +
                   " survived the checksum: " +
                   std::to_string(records.size()) + " of " +
                   std::to_string(acknowledged.size()) +
                   " records served";
    }

    // --- Phase 4: restarted service, zero searches, same bytes. -----
    std::vector<IVec> rev(c.deps.rbegin(), c.deps.rend());
    std::vector<IVec> dup = c.deps;
    dup.push_back(c.deps.front());
    std::vector<service::Request> reqs;
    auto add = [&](std::vector<IVec> deps, service::Verb verb,
                   int64_t deadline) {
        service::Request r;
        r.index = reqs.size() + 1;
        r.deps = std::move(deps);
        r.verb = verb;
        r.deadline_ms = deadline;
        if (verb == service::Verb::Storage) {
            r.isg_lo = c.lo;
            r.isg_hi = c.hi;
        }
        reqs.push_back(std::move(r));
    };
    for (service::Verb verb : {service::Verb::Shortest,
                               service::Verb::Storage}) {
        add(c.deps, verb, -1);
        add(rev, verb, 0);
        add(dup, verb, -1);
    }
    size_t solve_requests = reqs.size();
    reqs.push_back(service::parseRequestLine("query bogus",
                                             reqs.size() + 1));

    std::vector<std::string> direct =
        service::runBatchDirect(reqs, kVisitCap);
    std::vector<std::string> first;
    {
        service::ServiceOptions so;
        so.max_visits = kVisitCap;
        so.store_path = svc_path;
        MetricsRegistry metrics;
        service::QueryService svc(so, metrics);
        ThreadPool pool(2);
        first = service::runBatch(svc, reqs, pool);
        for (size_t i = 0; i < reqs.size(); ++i)
            if (first[i] != direct[i])
                return "store-backed service answered '" + first[i] +
                       "' but direct said '" + direct[i] + "'";
    }
    {
        service::ServiceOptions so;
        so.max_visits = kVisitCap;
        so.store_path = svc_path;
        // Half the cases restart cache-less, forcing every hit to
        // come from the store itself rather than the preload.
        if (rng.nextBelow(2) == 0)
            so.cache_bytes = 0;
        MetricsRegistry metrics;
        service::QueryService svc(so, metrics);
        ThreadPool pool(2);
        std::vector<std::string> second =
            service::runBatch(svc, reqs, pool);
        for (size_t i = 0; i < reqs.size(); ++i)
            if (second[i] != first[i])
                return "restarted store-backed service diverged: '" +
                       second[i] + "' vs '" + first[i] + "'";
        if (svc.searchesExecuted() != 0)
            return "restarted service re-ran " +
                   std::to_string(svc.searchesExecuted()) +
                   " searches instead of answering from the store";
    }

    // --- Phase 5: an unopenable store degrades, not an outage. ------
    {
        failpoint::ScopedFailPoints scope;
        failpoint::Config config;
        config.probability = 1.0;
        config.seed = rng.next();
        config.action = failpoint::Action::Throw;
        failpoint::Registry::instance().arm("store_open", config);
        service::ServiceOptions so;
        so.max_visits = kVisitCap;
        so.store_path = svc_path;
        MetricsRegistry metrics;
        service::QueryService svc(so, metrics);
        if (metrics.counter("service.store.open_errors").value() != 1)
            return "store_open failure was not degraded to storeless "
                   "operation";
        ThreadPool pool(2);
        std::vector<std::string> got =
            service::runBatch(svc, reqs, pool);
        for (size_t i = 0; i < reqs.size(); ++i)
            if (got[i] != direct[i])
                return "storeless-degraded service answered '" +
                       got[i] + "' but direct said '" + direct[i] +
                       "'";
    }

    // --- Phase 6: shed responses are legal certified answers. -------
    for (const service::Request &r : reqs) {
        if (!r.error.empty())
            continue;
        std::string line = service::shedRequest(r);
        if (line.find(" degraded=shed") == std::string::npos)
            return "shed response lacks degraded=shed: '" + line + "'";
        auto best = parseBestVector(line);
        auto value = parseField(line, "value");
        auto initial = parseField(line, "initial");
        if (!best || !value || !initial)
            return "unparsable shed response '" + line + "'";
        if (!oracle.isUov(*best))
            return "shed response '" + line +
                   "' is not universal for " + s.str();
        if (*value > *initial)
            return "shed response '" + line +
                   "' is worse than the ov_o floor";
    }
    {
        MetricsRegistry metrics;
        service::AdmissionOptions ao;
        ao.high_water = 1;
        service::AdmissionController admission(ao, metrics);
        service::ServiceOptions so;
        so.max_visits = kVisitCap;
        service::QueryService svc(so, metrics);
        ThreadPool pool(1 + static_cast<unsigned>(rng.nextBelow(4)));
        std::vector<std::string> got =
            service::runBatch(svc, reqs, pool, &admission);
        for (size_t i = 0; i < got.size(); ++i) {
            const std::string &line = got[i];
            std::string idx = std::to_string(i + 1);
            bool is_answer =
                line.rfind("answer " + idx + " ", 0) == 0;
            bool is_error = line.rfind("error " + idx + " ", 0) == 0;
            if (!is_answer && !is_error)
                return "shed-batch response " + idx +
                       " is mis-ordered or mangled: '" + line + "'";
            if (i >= solve_requests) {
                if (is_answer)
                    return "bad request " + idx +
                           " drew an answer under shedding";
                continue;
            }
            if (!is_answer)
                return "shed-batch request " + idx +
                       " drew an error: '" + line + "'";
            auto best = parseBestVector(line);
            auto value = parseField(line, "value");
            auto initial = parseField(line, "initial");
            if (!best || !value || !initial)
                return "unparsable shed-batch answer '" + line + "'";
            if (!oracle.isUov(*best))
                return "shed-batch answer '" + line +
                       "' is not universal for " + s.str();
            if (*value > *initial)
                return "shed-batch answer '" + line +
                       "' is worse than the ov_o floor";
        }
        uint64_t optimal = metrics.counter("service.optimal").value();
        uint64_t degraded =
            metrics.counter("service.degraded").value();
        uint64_t errors =
            metrics.counter("service.request_errors").value();
        if (optimal + degraded + errors != reqs.size())
            return "shed batch: optimal " + std::to_string(optimal) +
                   " + degraded " + std::to_string(degraded) +
                   " + request_errors " + std::to_string(errors) +
                   " != " + std::to_string(reqs.size()) + " requests";
        uint64_t admitted =
            metrics.counter("service.shed.admitted").value();
        uint64_t shed =
            metrics.counter("service.shed.responses").value();
        if (admitted + shed != solve_requests)
            return "admission decisions " +
                   std::to_string(admitted + shed) +
                   " != " + std::to_string(solve_requests) +
                   " solve requests";
    }

    // --- Phase 7: a throwing admission site is one error line. ------
    {
        failpoint::ScopedFailPoints scope;
        failpoint::Config config;
        config.probability = 1.0;
        config.seed = rng.next();
        config.action = failpoint::Action::Throw;
        failpoint::Registry::instance().arm("admission", config);
        MetricsRegistry metrics;
        service::AdmissionOptions ao;
        ao.high_water = 4;
        service::AdmissionController admission(ao, metrics);
        service::ServiceOptions so;
        so.max_visits = kVisitCap;
        service::QueryService svc(so, metrics);
        ThreadPool pool(2);
        std::vector<std::string> got =
            service::runBatch(svc, reqs, pool, &admission);
        for (size_t i = 0; i < solve_requests; ++i)
            if (got[i].rfind("error ", 0) != 0)
                return "admission fail point did not isolate request " +
                       std::to_string(i + 1) + ": '" + got[i] + "'";
        uint64_t optimal = metrics.counter("service.optimal").value();
        uint64_t degraded =
            metrics.counter("service.degraded").value();
        uint64_t errors =
            metrics.counter("service.request_errors").value();
        if (optimal + degraded + errors != reqs.size())
            return "admission-fault batch counters do not reconcile";
    }

    return std::nullopt;
}

} // namespace fuzz
} // namespace uov
