/**
 * @file
 * The joint autotuner's contracts: the anytime floor (a 0 ms deadline
 * still returns a legal, certified, Degraded best-so-far), simulator
 * determinism (identical configurations replay byte-for-byte), the
 * candidate-budget axis, the observer hook, and the 'query tune'
 * service verb's deterministic response prefix.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "codegen/jit.h"
#include "core/uov.h"
#include "service/executor.h"
#include "tune/tune.h"

namespace uov {
namespace {

LoopNest
fivePointNest(int64_t t_hi = 6, int64_t x_hi = 12)
{
    return nestFromStencil(stencils::fivePoint(), IVec{0, 0},
                           IVec{t_hi, x_hi});
}

/** A winner must be legal; OV-mapped winners must carry a true UOV. */
void
expectCertified(const tune::TuneCandidate &best, const Stencil &s)
{
    EXPECT_TRUE(best.schedule.legal(s)) << best.str();
    if (best.storage == GenStorage::OvMapped) {
        EXPECT_GE(best.uov()[0], 1) << best.str();
        EXPECT_TRUE(UovOracle(s).isUov(best.uov())) << best.str();
    }
}

TEST(Tuner, UnboundedRunEvaluatesTheWholeSpace)
{
    tune::Tuner tuner(fivePointNest());
    tune::TuneResult res = tuner.run();

    EXPECT_EQ(res.status, tune::TuneStatus::Optimal);
    EXPECT_TRUE(res.degraded_reason.empty());
    EXPECT_EQ(res.evaluated, res.candidates_total);
    EXPECT_GT(res.candidates_total, 1u);
    expectCertified(res.best, tuner.stencil());

    // Candidate 0 is pinned: the default lexicographic OV-mapped
    // kernel, the baseline every speedup claim is made against.
    ASSERT_FALSE(tuner.candidates().empty());
    const tune::TuneCandidate &base = tuner.candidates()[0];
    EXPECT_EQ(base.schedule.str(), "lex");
    EXPECT_EQ(base.storage, GenStorage::OvMapped);

    // The winner is never worse than the baseline it includes.
    EXPECT_LE(res.best_score, tuner.scores()[0]);
}

TEST(Tuner, ZeroDeadlineReturnsLegalCertifiedDegradedBest)
{
    tune::TuneOptions opt;
    opt.budget.deadline = Deadline::afterMillis(0);
    tune::Tuner tuner(fivePointNest(), opt);
    tune::TuneResult res = tuner.run();

    EXPECT_EQ(res.status, tune::TuneStatus::Degraded);
    EXPECT_EQ(res.degraded_reason, "deadline");
    EXPECT_GE(res.evaluated, 1u) << "anytime floor: candidate 0 is "
                                    "always evaluated";
    EXPECT_LT(res.evaluated, res.candidates_total);
    expectCertified(res.best, tuner.stencil());
}

TEST(Tuner, ZeroDeadlineRunsAreDeterministic)
{
    // deadline_ms 0 is inside the byte-determinism contract: the
    // evaluated prefix is exactly the candidate-0 floor both times.
    auto once = [] {
        tune::TuneOptions opt;
        opt.budget.deadline = Deadline::afterMillis(0);
        tune::Tuner tuner(fivePointNest(), opt);
        tune::TuneResult res = tuner.run();
        std::ostringstream oss;
        oss << res.best.str() << "|" << res.best_score << "|"
            << res.evaluated << "/" << res.candidates_total << "|"
            << res.degraded_reason;
        return oss.str();
    };
    EXPECT_EQ(once(), once());
}

TEST(Tuner, SimulatorRunsReplayExactly)
{
    auto once = [] {
        tune::Tuner tuner(fivePointNest());
        tune::TuneResult res = tuner.run();
        std::ostringstream oss;
        oss << res.best.str() << "|" << res.best_score << "|"
            << res.evaluated;
        for (double s : tuner.scores())
            oss << "|" << s;
        return oss.str();
    };
    EXPECT_EQ(once(), once());
}

TEST(Tuner, CandidateBudgetTruncatesAndTags)
{
    tune::TuneOptions opt;
    opt.max_candidates = 1;
    tune::Tuner tuner(fivePointNest(), opt);
    tune::TuneResult res = tuner.run();

    EXPECT_EQ(res.evaluated, 1u);
    EXPECT_EQ(res.status, tune::TuneStatus::Degraded);
    EXPECT_EQ(res.degraded_reason, "candidate-budget");
    // With only candidate 0 evaluated, the baseline IS the best.
    EXPECT_EQ(res.best.schedule.str(), "lex");
    expectCertified(res.best, tuner.stencil());
}

TEST(Tuner, ObserverSeesEveryEvaluationInOrder)
{
    size_t calls = 0;
    size_t last_index = 0;
    bool monotone = true;
    tune::TuneOptions opt;
    opt.on_candidate = [&](const tune::TuneCandidate &, double,
                           size_t index, int64_t) {
        if (calls > 0 && index <= last_index)
            monotone = false;
        last_index = index;
        ++calls;
    };
    tune::Tuner tuner(fivePointNest(), opt);
    tune::TuneResult res = tuner.run();
    EXPECT_EQ(calls, res.evaluated);
    EXPECT_TRUE(monotone) << "evaluation order must follow "
                             "enumeration order";
}

TEST(TuneService, ParsesTheTuneVerb)
{
    service::Request r = service::parseRequestLine(
        "query tune bounds 0..5 0..9 deps [1,-1] [1,0] [1,1]", 1);
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_EQ(r.verb, service::Verb::Tune);
    ASSERT_TRUE(r.isg_lo.has_value());
    EXPECT_EQ(r.deps.size(), 3u);
}

TEST(TuneService, TuneNeedsBounds)
{
    service::Request r = service::parseRequestLine(
        "query tune deps [1,0] [1,1]", 1);
    EXPECT_FALSE(r.error.empty());
    EXPECT_NE(r.error.find("bounds"), std::string::npos) << r.error;
}

TEST(TuneService, ZeroDeadlineResponseIsDeterministic)
{
    // With deadline_ms 0 the measurement tail is constant ("deadline"
    // or "unavailable"), so the whole response line must replay.
    service::Request r = service::parseRequestLine(
        "query tune deadline_ms 0 bounds 0..5 0..9 deps [1,-1] [1,0] "
        "[1,1]",
        1);
    ASSERT_TRUE(r.error.empty()) << r.error;
    std::string a = service::runBatchDirect({r}).front();
    std::string b = service::runBatchDirect({r}).front();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.rfind("answer 1 tune uov=", 0), 0u) << a;
    EXPECT_NE(a.find(" degraded=deadline"), std::string::npos) << a;
    EXPECT_NE(a.find(" evaluated="), std::string::npos) << a;
    EXPECT_EQ(a.find("_ns"), std::string::npos)
        << "expired deadline must not reach the measurement tail: "
        << a;
}

TEST(TuneService, BatchDirectRoutesTuneRequests)
{
    std::istringstream in("query tune deadline_ms 0 bounds 0..5 0..9 "
                          "deps [1,-1] [1,0] [1,1]\n");
    std::vector<service::Request> reqs = service::parseRequests(in);
    ASSERT_EQ(reqs.size(), 1u);
    std::vector<std::string> out = service::runBatchDirect(reqs);
    ASSERT_EQ(out.size(), 1u);
    MetricsRegistry metrics;
    service::QueryService svc(service::ServiceOptions{}, metrics);
    EXPECT_EQ(out[0], service::runRequest(svc, reqs[0]));
}

TEST(TuneService, MeasuredResponseReportsSpeedup)
{
    if (!JitCompiler::hostCompilerAvailable())
        GTEST_SKIP() << "no host C compiler on PATH";
    service::Request r = service::parseRequestLine(
        "query tune bounds 0..5 0..9 deps [1,-1] [1,0] [1,1]", 1);
    ASSERT_TRUE(r.error.empty()) << r.error;
    std::string line = service::runBatchDirect({r}).front();
    EXPECT_EQ(line.rfind("answer 1 tune uov=", 0), 0u) << line;
    EXPECT_NE(line.find(" lex_ns="), std::string::npos) << line;
    EXPECT_NE(line.find(" best_ns="), std::string::npos) << line;
    EXPECT_NE(line.find(" speedup_vs_lex="), std::string::npos)
        << line;
    EXPECT_NE(line.find(" verified=ok"), std::string::npos) << line;
}

TEST(NativeService, ExpiredDeadlineIsOneActionableError)
{
    // 'query native' exists to time a full JIT run; a deadline it
    // cannot meet must become a deterministic error line up front,
    // not a wasted compile.
    service::Request r = service::parseRequestLine(
        "query native deadline_ms 0 bounds 0..5 0..9 deps [1,-1] "
        "[1,0] [1,1]",
        1);
    ASSERT_TRUE(r.error.empty()) << r.error;
    std::string a = service::runBatchDirect({r}).front();
    std::string b = service::runBatchDirect({r}).front();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.rfind("error 1 ", 0), 0u) << a;
    EXPECT_NE(a.find("deadline_ms 0 expired"), std::string::npos)
        << a;
    EXPECT_NE(a.find("raise or drop the deadline"), std::string::npos)
        << a;
}

TEST(Tuner, JitEvaluatedTuneVerifiesBitExactness)
{
    if (!JitCompiler::hostCompilerAvailable())
        GTEST_SKIP() << "no host C compiler on PATH";
    // JitEvaluator verifies every measured kernel against the
    // interpreter internally; a clean run over the lowerable space is
    // the positive half of that contract.
    tune::JitEvalOptions jopts;
    jopts.runs = 1;
    tune::JitEvaluator jit_eval(jopts);
    tune::TuneOptions opt;
    opt.evaluator = &jit_eval;
    opt.max_candidates = 4;
    tune::Tuner tuner(fivePointNest(), opt);
    tune::TuneResult res = tuner.run();
    EXPECT_GE(res.evaluated, 1u);
    expectCertified(res.best, tuner.stencil());
}

} // namespace
} // namespace uov
