/**
 * @file
 * Property tests pinning the closed-form region counts of
 * analyzeRegions to the enumeration they replaced: every iteration
 * point visited, written and imported elements collected in hash sets,
 * on SplitMix64-seeded random nests.  Also pins the counts of the
 * benchmark's kernel nests and the error contract.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "analysis/dependence.h"
#include "analysis/region.h"
#include "support/error.h"
#include "support/rng.h"

namespace uov {
namespace {

/** The enumeration reference: one visit and set insert per point. */
RegionSummary
enumeratedRegions(const LoopNest &nest, size_t stmt_index,
                  const LiveOutPredicate &live_out)
{
    const Statement &stmt = nest.statement(stmt_index);
    Polyhedron domain = nest.domain();
    DependenceInfo deps = analyzeDependences(nest, stmt_index);

    std::unordered_set<IVec, IVecHash> written;
    std::unordered_set<IVec, IVecHash> imported;
    for (const auto &q : domain.integerPoints()) {
        written.insert(stmt.write.elementAt(q));
        for (const auto &rd : deps.reads) {
            const Access &read = stmt.reads[rd.read_index];
            if (rd.kind == ReadKind::Import ||
                !domain.contains(q - rd.distance))
                imported.insert(read.elementAt(q));
        }
    }

    RegionSummary s;
    s.array = stmt.write.array;
    s.written = static_cast<int64_t>(written.size());
    s.imported = static_cast<int64_t>(imported.size());
    if (live_out)
        for (const auto &e : written)
            if (live_out(e))
                ++s.live_out;
    s.temporary = s.written - s.live_out;
    return s;
}

IVec
randomVec(SplitMix64 &rng, size_t d, int64_t lo, int64_t hi)
{
    IVec v(d);
    for (size_t c = 0; c < d; ++c)
        v[c] = rng.nextInRange(lo, hi);
    return v;
}

/** Identity, or a product of random shears, swaps and negations. */
IMatrix
randomUnimodular(SplitMix64 &rng, size_t d)
{
    IMatrix m = IMatrix::identity(d);
    if (d == 1 || rng.nextBelow(2) == 0)
        return m;
    for (int k = 0; k < 3; ++k) {
        IMatrix t = IMatrix::identity(d);
        size_t i = rng.nextBelow(d);
        size_t j = (i + 1 + rng.nextBelow(d - 1)) % d;
        switch (rng.nextBelow(3)) {
        case 0:
            t(i, j) = rng.nextInRange(-2, 2);
            break;
        case 1:
            t(i, i) = 0;
            t(j, j) = 0;
            t(i, j) = 1;
            t(j, i) = 1;
            break;
        default:
            t(i, i) = -1;
            break;
        }
        m = t * m;
    }
    return m;
}

/**
 * A random d-deep nest over a box with sides of 1..max_side points and
 * possibly negative bounds.  One statement writes A through a random
 * unimodular W; its reads of A share W and have random offsets, so
 * their distances are lex-positive, zero or lex-negative; some reads
 * touch another array through an arbitrary access.
 */
LoopNest
randomNest(SplitMix64 &rng, size_t d, int64_t max_side)
{
    IVec lo = randomVec(rng, d, -6, 6);
    IVec hi = lo;
    for (size_t c = 0; c < d; ++c)
        hi[c] += rng.nextInRange(0, max_side - 1);
    LoopNest nest("rand", lo, hi);

    Statement s;
    s.name = "A";
    s.write.array = "A";
    s.write.coef = randomUnimodular(rng, d);
    s.write.offset = randomVec(rng, d, -2, 2);
    size_t reads = 1 + rng.nextBelow(5);
    for (size_t r = 0; r < reads; ++r) {
        Access a;
        if (rng.nextBelow(5) == 0) {
            size_t rank = 1 + rng.nextBelow(d);
            std::vector<std::vector<int64_t>> rows(
                rank, std::vector<int64_t>(d));
            for (auto &row : rows)
                for (auto &x : row)
                    x = rng.nextInRange(-1, 1);
            a.array = "W";
            a.coef = IMatrix(rows);
            a.offset = randomVec(rng, rank, -3, 3);
        } else {
            a.array = "A";
            a.coef = s.write.coef;
            a.offset = s.write.offset + randomVec(rng, d, -3, 3);
        }
        s.reads.push_back(std::move(a));
    }
    nest.addStatement(std::move(s));
    return nest;
}

TEST(RegionProps, ClosedFormMatchesEnumeration)
{
    SplitMix64 rng(0x5eed0014);
    int64_t imported = 0;
    for (size_t d = 1; d <= 4; ++d) {
        int64_t max_side = d == 1 ? 24 : d == 2 ? 9 : d == 3 ? 6 : 4;
        for (int i = 0; i < 500; ++i) {
            LoopNest nest = randomNest(rng, d, max_side);
            size_t dim = rng.nextBelow(d);
            int64_t value = nest.lo()[dim] + rng.nextInRange(-2, 4);
            int64_t mod = 2 + static_cast<int64_t>(rng.nextBelow(3));
            const std::pair<const char *, LiveOutPredicate> preds[] = {
                {"nothing", live_out::nothing()},
                {"{}", LiveOutPredicate{}},
                {"everything", live_out::everything()},
                {"hyperplane", live_out::hyperplane(dim, value)},
                {"lambda",
                 [mod](const IVec &e) {
                     int64_t sum = 0;
                     for (size_t c = 0; c < e.dim(); ++c)
                         sum += e[c];
                     return (sum % mod + mod) % mod == 0;
                 }},
            };
            for (const auto &[what, pred] : preds) {
                RegionSummary got = analyzeRegions(nest, 0, pred);
                EXPECT_EQ(got.str(),
                          enumeratedRegions(nest, 0, pred).str())
                    << nest.str() << " live_out " << what;
                imported += got.imported;
            }
        }
    }
    EXPECT_GT(imported, 0);
}

TEST(RegionProps, ReadsOfOtherArraysImportNothing)
{
    LoopNest nest("other", IVec{-3, 0}, IVec{4, 5});
    Statement s;
    s.name = "A";
    s.write = uniformAccess("A", IVec{0, 0});
    s.reads = {uniformAccess("W", IVec{-1, 0}),
               uniformAccess("W", IVec{0, 7})};
    nest.addStatement(std::move(s));
    RegionSummary got = analyzeRegions(nest, 0, live_out::nothing());
    EXPECT_EQ(got.imported, 0);
    EXPECT_EQ(got.str(),
              enumeratedRegions(nest, 0, live_out::nothing()).str());
}

TEST(RegionProps, SkewedWriteMatchesEnumeration)
{
    // W = [[1,1],[0,1]] with reads sharing W: flow, zero and
    // lex-negative distances through a non-identity write.
    LoopNest nest("skew", IVec{-2, 1}, IVec{5, 6});
    Statement s;
    s.name = "A";
    s.write.array = "A";
    s.write.coef = IMatrix({{1, 1}, {0, 1}});
    s.write.offset = IVec{0, 0};
    for (IVec off : {IVec{-1, 0}, IVec{-2, -1}, IVec{0, 0}, IVec{1, 1},
                     IVec{0, 2}}) {
        Access a = s.write;
        a.offset = off;
        s.reads.push_back(a);
    }
    nest.addStatement(std::move(s));
    for (const LiveOutPredicate &pred :
         {live_out::nothing(), live_out::hyperplane(1, 6)}) {
        RegionSummary got = analyzeRegions(nest, 0, pred);
        EXPECT_EQ(got.str(), enumeratedRegions(nest, 0, pred).str());
    }
}

/** The benchmark's 3-D heat nest: H[t,i,j] from five H[t-1,...]. */
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
    nest.addStatement(std::move(s));
    return nest;
}

TEST(RegionProps, KernelNestCountsPinned)
{
    // The counts the enumeration gave on the kernels benchmark nests.
    RegionSummary s5 = analyzeRegions(nests::fivePointStencil(128, 2048),
                                      0, live_out::nothing());
    EXPECT_EQ(s5.str(),
              "B: written=262144 imported=2560 live_out=0 "
              "temporary=262144");
    RegionSummary heat =
        analyzeRegions(heatNest3d(32, 96), 0, live_out::nothing());
    EXPECT_EQ(heat.str(),
              "H: written=294912 imported=21504 live_out=0 "
              "temporary=294912");
    RegionSummary psm = analyzeRegions(nests::proteinMatching(512, 512),
                                       0, live_out::nothing());
    EXPECT_EQ(psm.str(),
              "D: written=262144 imported=1025 live_out=0 "
              "temporary=262144");
}

TEST(RegionProps, ErrorContractUnchanged)
{
    LoopNest big = nests::simpleExample(100, 100);
    try {
        analyzeRegions(big, 0, live_out::nothing(), 9999);
        FAIL() << "max_scan not enforced";
    } catch (const UovUserError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "region analysis scan over 10000 iterations "
                      "exceeds limit 9999"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_NO_THROW(analyzeRegions(big, 0, live_out::nothing(), 10000));

    // A same-array read not sharing W is rejected by analyzeDependences.
    LoopNest bad("bad", IVec{0, 0}, IVec{3, 3});
    Statement s;
    s.name = "A";
    s.write = uniformAccess("A", IVec{0, 0});
    Access r;
    r.array = "A";
    r.coef = IMatrix({{1, 0}, {1, 1}});
    r.offset = IVec{-1, 0};
    s.reads = {r};
    bad.addStatement(std::move(s));
    EXPECT_THROW(analyzeRegions(bad, 0, live_out::nothing()),
                 UovUserError);
}

} // namespace
} // namespace uov
