/**
 * @file
 * Workload `solve`: cold search traffic.
 *
 * A fixed query set -- every examples/corpus nest under both
 * objectives, plus seeded PARTITION reductions (core/reduction) and
 * seeded 2-D fuzz stencils (shortest objective) -- goes one query at
 * a time through a fresh QueryService per pass with the result cache
 * off, under one node budget, so every query runs a branch-and-bound
 * search.  Nearly all of the time is in core (frontier, cone memo,
 * membership oracle, storage counting).  The result store is left out
 * of the timed loop: its fsync per append costs 0.1-0.4 ms on a
 * shared disk and varies by more than the small queries' whole solve
 * time.  The traced run times ResultStore::append on its own.
 *
 * Checks: in set-up (run five times, between stretches of timed
 * passes; setup_s is the median) every
 * reference answer is certified by the exact UovOracle on the original
 * stencil, corpus answers match the committed expected file (objective
 * and status), and each PARTITION reduction's membership answer
 * matches brute force.  In the timed phase every service answer must
 * equal its reference byte for byte.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/dependence.h"
#include "common.h"
#include "core/reduction.h"
#include "core/search.h"
#include "core/uov.h"
#include "driver/nest_parser.h"
#include "fuzz/generator.h"
#include "geometry/polyhedron.h"
#include "service/answer.h"
#include "service/canonical.h"
#include "service/service.h"
#include "service/store.h"
#include "support/rng.h"

namespace perfbench {

using namespace uov;

namespace {

/** The figures in expected/solve_corpus.txt hold for this budget. */
constexpr uint64_t kMaxVisits = kSolveMaxVisits;
constexpr int kPartitionInstances = 4;
constexpr size_t kPartitionValues = 5;
constexpr int kFuzzStencils = 6;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 5;

struct Query
{
    std::string name;
    Stencil stencil;
    SearchObjective objective = SearchObjective::ShortestVector;
    std::optional<IVec> lo, hi;
};

const char *
objectiveName(SearchObjective o)
{
    return o == SearchObjective::ShortestVector ? "shortest" : "storage";
}

void
addBoth(std::vector<Query> &set, const std::string &name,
        const Stencil &stencil, const IVec &lo, const IVec &hi)
{
    set.push_back({name + "/shortest", stencil,
                   SearchObjective::ShortestVector, std::nullopt,
                   std::nullopt});
    set.push_back({name + "/storage", stencil,
                   SearchObjective::BoundedStorage, lo, hi});
}

/** The seeded PARTITION instances (even sums, small values). */
std::vector<PartitionInstance>
partitionInstances(SplitMix64 &rng)
{
    std::vector<PartitionInstance> out;
    for (int k = 0; k < kPartitionInstances; ++k) {
        PartitionInstance inst;
        int64_t total = 0;
        for (size_t i = 0; i < kPartitionValues; ++i) {
            inst.values.push_back(
                1 + static_cast<int64_t>(rng.nextBelow(9)));
            total += inst.values.back();
        }
        if (total % 2)
            inst.values.back() += 1;
        out.push_back(inst);
    }
    return out;
}

std::vector<Query>
buildQuerySet(const std::string &corpus_dir, uint64_t seed,
              std::vector<PartitionInstance> &partitions)
{
    std::vector<Query> set;
    std::vector<std::filesystem::path> nests;
    for (const auto &entry :
         std::filesystem::directory_iterator(corpus_dir))
        if (entry.path().extension() == ".nest")
            nests.push_back(entry.path());
    std::sort(nests.begin(), nests.end());
    for (const auto &path : nests) {
        std::ifstream in(path);
        LoopNest nest = parseNest(in);
        addBoth(set, "corpus/" + path.stem().string(),
                extractStencil(nest, 0), nest.lo(), nest.hi());
    }

    SplitMix64 rng(seed);
    partitions = partitionInstances(rng);
    for (size_t k = 0; k < partitions.size(); ++k) {
        Stencil s = buildReduction(partitions[k]).stencil;
        set.push_back({"partition/" + std::to_string(k) + "/shortest", s,
                       SearchObjective::ShortestVector, std::nullopt,
                       std::nullopt});
    }
    // Seeded queries are cheap and of similar cost, so the set's cost
    // (and every figure) barely depends on the seed: a fuzz storage
    // query ranges from 0.1 ms to the full node budget.
    fuzz::GenOptions gen;
    gen.max_dim = 2;
    for (int k = 0; k < kFuzzStencils; ++k)
        set.push_back({"fuzz/" + std::to_string(k) + "/shortest",
                       fuzz::randomStencil(rng, gen),
                       SearchObjective::ShortestVector, std::nullopt,
                       std::nullopt});
    return set;
}

/** name -> "value status" from the committed expected file. */
std::map<std::string, std::string>
readExpected(const std::string &path, uint64_t &budget)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string name, value, status;
        if (!(ls >> name) || name[0] == '#')
            continue;
        if (name == "max_visits") {
            ls >> budget;
            continue;
        }
        ls >> value >> status;
        out[name] = value + " " + status;
    }
    return out;
}

SearchBudget
budget()
{
    SearchBudget b;
    b.max_nodes = kMaxVisits;
    return b;
}

struct PassResult
{
    double seconds = 0;
    uint64_t searches = 0;
};

/**
 * One pass over the set through a fresh service; appends each
 * query's latency to @p samples_ms and checks every answer.
 */
PassResult
runPass(const std::vector<Query> &set,
        const std::vector<std::string> &reference,
        std::vector<std::vector<double>> &samples_ms, Report &report)
{
    service::ServiceOptions so;
    so.cache_bytes = 0;
    so.max_visits = kMaxVisits;
    MetricsRegistry metrics;
    PassResult r;
    auto pass_start = Clock::now();
    {
        service::QueryService svc(so, metrics);
        trace::Span pass_span("bench.solve.pass");
        for (size_t i = 0; i < set.size(); ++i) {
            const Query &q = set[i];
            std::string got;
            auto t0 = Clock::now();
            {
                trace::Span span("bench.solve.query");
                got = svc.query(q.stencil, q.objective, q.lo, q.hi).str();
            }
            samples_ms[i].push_back(secondsSince(t0) * 1e3);
            report.check(got == reference[i],
                         "solve " + q.name + ": service answer '" + got +
                             "' != reference '" + reference[i] + "'");
        }
        r.searches = svc.searchesExecuted();
    }
    r.seconds = secondsSince(pass_start);
    return r;
}

/**
 * Timed passes: exactly @p count when nonzero, else until @p seconds
 * have elapsed (at least two).
 */
std::vector<double>
timedPasses(const std::vector<Query> &set,
            const std::vector<std::string> &reference, double seconds,
            size_t count,
            std::vector<std::vector<double>> &samples_ms, Report &report,
            uint64_t *searches = nullptr)
{
    std::vector<double> pass_ms;
    auto start = Clock::now();
    for (;;) {
        if (count ? pass_ms.size() >= count
                  : pass_ms.size() >= 2 && secondsSince(start) >= seconds)
            break;
        PassResult r = runPass(set, reference, samples_ms, report);
        pass_ms.push_back(r.seconds * 1e3);
        if (searches)
            *searches += r.searches;
    }
    return pass_ms;
}

/** Search statistics per query, from a direct core-layer run. */
void
coreStatsPass(const std::vector<Query> &set, Report &report)
{
    uint64_t nodes = 0, enqueued = 0, pruned = 0, to_best = 0;
    uint64_t arena_max = 0, memo_entries = 0;
    uint64_t obj_nodes[2] = {0, 0};
    int64_t obj_us[2] = {0, 0};
    for (const Query &q : set) {
        Stencil canonical = service::canonicalizeStencil(q.stencil);
        SearchOptions options;
        options.budget = budget();
        if (q.objective == SearchObjective::BoundedStorage)
            options.isg = Polyhedron::box(*q.lo, *q.hi);
        BranchBoundSearch search(canonical, q.objective, options);
        SearchResult result;
        {
            trace::Span span("bench.core.search");
            result = search.run();
        }
        const SearchStats &st = result.stats;
        size_t memo = search.memo()->size();
        nodes += st.visited;
        enqueued += st.enqueued;
        pruned += st.pruned;
        to_best += st.visits_to_best;
        arena_max = std::max(arena_max, st.arena_bytes);
        memo_entries += memo;
        int k = q.objective == SearchObjective::ShortestVector ? 0 : 1;
        obj_nodes[k] += st.visited;
        obj_us[k] += st.elapsed_us;
        std::ostringstream os;
        os << "core " << q.name << " nodes=" << st.visited
           << " enqueued=" << st.enqueued << " pruned=" << st.pruned
           << " visits_to_best=" << st.visits_to_best
           << " arena_bytes=" << st.arena_bytes
           << " memo_entries=" << memo << " elapsed_us=" << st.elapsed_us;
        report.note(os.str());
    }
    auto rate = [](uint64_t n, int64_t us) {
        return us > 0 ? static_cast<double>(n) * 1e6 /
                            static_cast<double>(us)
                      : 0.0;
    };
    auto ratio = [](uint64_t a, uint64_t b) {
        return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    report.metric("core.search.nodes", static_cast<double>(nodes),
                  "count");
    report.metric("core.search.nodes_per_s.shortest",
                  rate(obj_nodes[0], obj_us[0]), "1/s");
    report.metric("core.search.nodes_per_s.storage",
                  rate(obj_nodes[1], obj_us[1]), "1/s");
    report.metric("core.search.enqueued", static_cast<double>(enqueued),
                  "count");
    report.metric("core.search.pruned", static_cast<double>(pruned),
                  "count");
    report.metric("core.search.prune_ratio", ratio(pruned, enqueued), "1");
    report.metric("core.search.visits_to_best_ratio",
                  ratio(to_best, nodes), "1");
    report.metric("core.search.arena_bytes",
                  static_cast<double>(arena_max), "bytes");
    report.metric("core.cone_memo.entries",
                  static_cast<double>(memo_entries), "count");
}

/** Replays the reference answers into a fresh store, one span each. */
void
storeAppendPass(const std::vector<Query> &set,
                const std::vector<service::ServiceAnswer> &answers,
                const std::string &path)
{
    removeTree(path);
    {
        service::ResultStore store(path);
        for (size_t i = 0; i < set.size(); ++i) {
            const Query &q = set[i];
            auto key = service::makeKey(
                service::canonicalizeStencil(q.stencil), q.objective,
                q.lo, q.hi);
            trace::Span span("bench.store.append");
            store.append(key, answers[i]);
        }
    }
    removeTree(path);
}

/** Everything set-up produces: the query set and its checked answers. */
struct Prepared
{
    std::vector<Query> set;
    std::vector<service::ServiceAnswer> answers;
    std::vector<std::string> reference; ///< answers[i].str()
    size_t optimal = 0;
};

/**
 * Set-up: build the query set, check the PARTITION reductions against
 * brute force, and compute each query's reference answer, certified by
 * the exact oracle and compared with the committed expected file.
 * Detail lines only when @p verbose.
 */
Prepared
prepare(const Args &args, Report &report, bool verbose)
{
    Prepared p;
    std::vector<PartitionInstance> partitions;
    p.set = buildQuerySet("examples/corpus", args.seed, partitions);

    // PARTITION <-> UOV membership (the paper's NP-completeness
    // reduction): the exact oracle must agree with brute force.
    for (size_t k = 0; k < partitions.size(); ++k) {
        UovMembershipInstance red = buildReduction(partitions[k]);
        bool member = UovOracle(red.stencil).isUov(red.query);
        bool partition =
            solvePartitionBruteForce(partitions[k]).has_value();
        report.check(member == partition,
                     "partition/" + std::to_string(k) +
                         ": membership oracle disagrees with brute force");
    }

    uint64_t expected_budget = 0;
    auto expected = readExpected(args.expected_dir + "/solve_corpus.txt",
                                 expected_budget);
    report.check(expected_budget == kMaxVisits,
                 "expected/solve_corpus.txt is for max_visits " +
                     std::to_string(expected_budget) + ", not " +
                     std::to_string(kMaxVisits));

    // Reference answers: the service's own direct path, each certified
    // by a fresh exact oracle over the original stencil.
    for (const Query &q : p.set) {
        service::ServiceAnswer a = service::solveDirect(
            q.stencil, q.objective, q.lo, q.hi, budget());
        p.answers.push_back(a);
        p.reference.push_back(a.str());
        p.optimal += a.degraded ? 0 : 1;
        report.check(UovOracle(q.stencil).isUov(a.best_uov) &&
                         a.best_objective <= a.initial_objective,
                     "solve " + q.name + ": answer " + a.best_uov.str() +
                         " is not a certified UOV");
        std::string got = std::to_string(a.best_objective) + " " +
                          (a.degraded ? "degraded" : "optimal");
        if (q.name.rfind("corpus/", 0) == 0) {
            auto it = expected.find(q.name);
            report.check(it != expected.end() && it->second == got,
                         "solve " + q.name + ": got '" + got +
                             "', expected '" +
                             (it == expected.end() ? "<missing>"
                                                   : it->second) +
                             "'");
        }
        if (verbose)
            report.note("query " + q.name + " " +
                        objectiveName(q.objective) + " value=" +
                        std::to_string(a.best_objective) + " status=" +
                        (a.degraded ? "degraded" : "optimal"));
    }
    if (verbose)
        report.note("optimal " + std::to_string(p.optimal) + "/" +
                    std::to_string(p.set.size()) + " at max_visits " +
                    std::to_string(kMaxVisits));
    return p;
}

} // namespace

void
runSolve(const Args &args, Report &report)
{
    // The set-ups alternate with stretches of timed passes, so their
    // median samples the whole run rather than the first seconds of a
    // host whose speed changes every few seconds.  Peak RSS covers the
    // timed stretches only.
    double untraced = args.trace ? args.seconds / 2 : args.seconds;
    Prepared p;
    std::vector<double> setups, pass_ms;
    std::vector<std::vector<double>> samples;
    double peak_rss_mb = 0;
    for (int k = 0; k < kSetups; ++k) {
        {
            auto start = Clock::now();
            Prepared fresh = prepare(args, report, k == 0);
            setups.push_back(secondsSince(start));
            if (k == 0) {
                p = std::move(fresh);
                samples.resize(p.set.size());
            }
        }
        resetPeakRss();
        std::vector<double> stretch =
            timedPasses(p.set, p.reference, untraced / kSetups, 0,
                        samples, report);
        peak_rss_mb = std::max(peak_rss_mb, peakRssMb());
        pass_ms.insert(pass_ms.end(), stretch.begin(), stretch.end());
    }
    const std::vector<Query> &set = p.set;
    const std::vector<std::string> &reference = p.reference;

    double pass_best = fastest(pass_ms);
    double timed_s = 0;
    std::ostringstream all;
    for (double ms : pass_ms) {
        all << " " << static_cast<int64_t>(ms * 1e3);
        timed_s += ms / 1e3;
    }
    report.note("pass_us" + all.str());
    report.note("passes " + std::to_string(pass_ms.size()) +
                " pass_ms_best=" + std::to_string(pass_best) +
                " pass_ms_p50=" + std::to_string(median(pass_ms)) +
                " queries_per_s=" +
                std::to_string(static_cast<double>(pass_ms.size() *
                                                   set.size()) /
                               timed_s));

    if (!args.trace) {
        // The geometric mean is over the corpus queries alone: a few
        // seeded queries would move it with the seed, while in the sum
        // (dominated by the large corpus queries) they barely count.
        std::vector<double> per_query;
        double set_ms = 0;
        for (size_t i = 0; i < set.size(); ++i) {
            double best = fastest(samples[i]);
            report.note("time " + set[i].name + " best_ms=" +
                        std::to_string(best) +
                        " median_ms=" + std::to_string(median(samples[i])));
            set_ms += best;
            if (set[i].name.rfind("corpus/", 0) == 0)
                per_query.push_back(best);
        }
        report.metric("setup_s", median(setups), "s");
        report.metric("peak_rss_mb", peak_rss_mb, "MB");
        report.metric("op_ms_geomean", geomean(per_query), "ms");
        report.metric("set_ms_best", set_ms, "ms");
        return;
    }

    // Traced phase: as many passes as the untraced phase ran (a solve
    // pass records ~10 events per query plus 4 counters per 256 nodes).
    size_t passes = pass_ms.size();
    size_t per_pass =
        set.size() * (32 + 4 * (kMaxVisits / 256 + 1));
    uint64_t searches = 0;
    std::vector<double> traced_ms;
    TraceSession session((passes + 1) * per_pass + 2 * set.size() + 1024);
    {
        std::vector<std::vector<double>> traced_samples(set.size());
        traced_ms = timedPasses(set, reference, 0.0, passes,
                                traced_samples, report, &searches);
        storeAppendPass(set, p.answers, args.work_dir + "/append.store");
        coreStatsPass(set, report);
    }
    session.finish();
    report.note(session.table());

    report.metric("service.canonicalize_us",
                  session.selfUsPerCall("service.canonicalize"), "us");
    report.metric("service.searches", static_cast<double>(searches),
                  "count");
    report.metric("service.store_append_us",
                  session.selfUsPerCall("bench.store.append"), "us");
    report.metric("core.search.optimal_share",
                  static_cast<double>(p.optimal) /
                      static_cast<double>(set.size()),
                  "1");
    report.metric("trace.dropped", static_cast<double>(session.dropped()),
                  "count");
    report.check(session.dropped() == 0, "trace buffers dropped events");
    report.metric("trace.overhead_ratio",
                  fastest(traced_ms) / pass_best, "1");
}

} // namespace perfbench
