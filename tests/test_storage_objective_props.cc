/**
 * @file
 * Property tests pinning the integer storage objective to the
 * constructions it replaced: Polyhedron::projectionCount against the
 * Rational floor(maxDot) - ceil(minDot) + 1 formula, and
 * unimodularCompletion against the identity-product construction,
 * both on SplitMix64-seeded random inputs.  Also checks that the
 * allocated cell count never undercounts the occupied classes.
 */

#include <gtest/gtest.h>

#include <optional>

#include "core/storage_count.h"
#include "geometry/lattice.h"
#include "geometry/polyhedron.h"
#include "support/checked.h"
#include "support/error.h"
#include "support/rng.h"

namespace uov {
namespace {

/** The Rational-path count, or nullopt when it overflows. */
std::optional<int64_t>
rationalProjectionCount(const Polyhedron &p, const IVec &dir)
{
    try {
        int64_t hi = p.maxDot(dir).floor();
        int64_t lo = p.minDot(dir).ceil();
        return hi < lo ? 0 : checkedAdd(checkedSub(hi, lo), 1);
    } catch (const UovOverflowError &) {
        return std::nullopt;
    }
}

IVec
randomVec(SplitMix64 &rng, size_t d, int64_t lo, int64_t hi)
{
    IVec v(d);
    for (size_t c = 0; c < d; ++c)
        v[c] = rng.nextInRange(lo, hi);
    return v;
}

/** Random box of dimension d with sides of 1..max_side points. */
Polyhedron
randomBox(SplitMix64 &rng, size_t d, int64_t max_side)
{
    IVec lo = randomVec(rng, d, -20, 20);
    IVec hi = lo;
    for (size_t c = 0; c < d; ++c)
        hi[c] += rng.nextInRange(0, max_side - 1);
    return Polyhedron::box(lo, hi);
}

/** Hull of random points around a fixed triangle (full-dimensional). */
Polyhedron
randomHull2D(SplitMix64 &rng)
{
    std::vector<IVec> pts = {IVec{-16, -16}, IVec{16, -16}, IVec{0, 16}};
    for (int k = 0; k < 6; ++k)
        pts.push_back(randomVec(rng, 2, -20, 20));
    return Polyhedron::fromVertices2D(pts);
}

/**
 * Every integer-point count must equal the Rational formula wherever
 * the Rational path answers, over @p dirs random directions.
 */
void
expectMatchesRational(SplitMix64 &rng, const Polyhedron &p, int dirs,
                      int64_t coord)
{
    for (int k = 0; k < dirs; ++k) {
        IVec dir = randomVec(rng, p.dim(), -coord, coord);
        std::optional<int64_t> want = rationalProjectionCount(p, dir);
        ASSERT_TRUE(want.has_value()) << dir.str();
        EXPECT_EQ(p.projectionCount(dir), *want) << "dir " << dir.str();
        Polyhedron::DotRange r = p.integerDotRange({dir.data(), dir.dim()});
        EXPECT_EQ(r.lo, p.minDot(dir).ceil()) << dir.str();
        EXPECT_EQ(r.hi, p.maxDot(dir).floor()) << dir.str();
    }
}

TEST(ProjectionCountProps, MatchesRationalFormulaOnRandomBoxes)
{
    SplitMix64 rng(0x5eed0001);
    for (size_t d = 2; d <= 4; ++d) {
        for (int i = 0; i < 60; ++i) {
            Polyhedron box = randomBox(rng, d, 12);
            expectMatchesRational(rng, box, 20, 9);
        }
    }
}

TEST(ProjectionCountProps, MatchesRationalFormulaOnNonIntegralVertices)
{
    // Hull-built 2-D polytopes and 3-D/4-D boxes, each cut by random
    // oblique half-spaces a.x <= a.p + slack through one of their
    // integer points p.  The cuts meet the edges at rational points,
    // so the vertex sets are largely non-integral.
    SplitMix64 rng(0x5eed0002);
    size_t fractional = 0;
    size_t total = 0;
    for (size_t d = 2; d <= 4; ++d) {
        for (int i = 0; i < 60; ++i) {
            Polyhedron base =
                d == 2 ? randomHull2D(rng) : randomBox(rng, d, 15);
            IVec p = base.integerPoints().front();
            const IMatrix &a0 = base.constraintMatrix();
            const IVec &b0 = base.constraintRhs();
            std::vector<std::vector<int64_t>> rows;
            std::vector<int64_t> rhs;
            for (size_t r = 0; r < a0.rows(); ++r) {
                rows.push_back(a0.row(r).coords());
                rhs.push_back(b0[r]);
            }
            for (int cut = 0; cut < 2; ++cut) {
                IVec a = randomVec(rng, d, -7, 7);
                if (a.isZero())
                    continue;
                rows.push_back(a.coords());
                rhs.push_back(a.dot(p) + rng.nextInRange(0, 10));
            }
            IVec b(rhs);
            Polyhedron poly =
                Polyhedron::fromConstraints(IMatrix(rows), b);
            for (const RationalVec &v : poly.vertices()) {
                ++total;
                for (const Rational &x : v) {
                    if (!x.isInteger()) {
                        ++fractional;
                        break;
                    }
                }
            }
            expectMatchesRational(rng, poly, 20, 9);
        }
    }
    // The generator must actually reach the common-denominator path.
    EXPECT_GT(fractional * 4, total)
        << fractional << " of " << total << " vertices non-integral";
}

TEST(ProjectionCountProps, LargeCoordinatesNeverFailWhereRationalAnswers)
{
    // Coordinates near 2^40 and directions near 2^22 push products
    // past int64 in the Rational path's intermediates; the __int128
    // path must answer whenever the Rational one does, with the same
    // count.
    SplitMix64 rng(0x5eed0003);
    int64_t big = int64_t{1} << 40;
    for (size_t d = 2; d <= 4; ++d) {
        for (int i = 0; i < 40; ++i) {
            IVec lo = randomVec(rng, d, -big, big);
            IVec hi = lo;
            for (size_t c = 0; c < d; ++c)
                hi[c] += rng.nextInRange(0, big);
            Polyhedron box = Polyhedron::box(lo, hi);
            for (int k = 0; k < 10; ++k) {
                IVec dir = randomVec(rng, d, -(1 << 22), 1 << 22);
                std::optional<int64_t> want =
                    rationalProjectionCount(box, dir);
                if (want) {
                    EXPECT_EQ(box.projectionCount(dir), *want)
                        << dir.str();
                }
            }
        }
    }
}

/** Reference completion: per step, an identity matrix carrying the
 *  2x2 transform multiplied into U; then a sign-flip matrix. */
IMatrix
identityProductCompletion(const IVec &v)
{
    size_t d = v.dim();
    IMatrix u = IMatrix::identity(d);
    IVec w = v;
    for (size_t i = d - 1; i >= 1; --i) {
        int64_t a = w[i - 1];
        int64_t b = w[i];
        if (b == 0)
            continue;
        ExtGcd e = extGcd(a, b);
        int64_t p = e.x, q = e.y, r = -(b / e.g), s = a / e.g;
        IMatrix t = IMatrix::identity(d);
        t(i - 1, i - 1) = p;
        t(i - 1, i) = q;
        t(i, i - 1) = r;
        t(i, i) = s;
        u = t * u;
        w[i - 1] = p * a + q * b;
        w[i] = r * a + s * b;
    }
    if (w[0] == -1) {
        IMatrix t = IMatrix::identity(d);
        t(0, 0) = -1;
        u = t * u;
    }
    return u;
}

TEST(UnimodularCompletionProps, MatchesIdentityProductConstruction)
{
    SplitMix64 rng(0x5eed0004);
    for (size_t d = 2; d <= 5; ++d) {
        for (int i = 0; i < 200; ++i) {
            IVec v = randomVec(rng, d, -30, 30);
            if (v.isZero())
                continue;
            v = v.dividedBy(v.content());
            IMatrix u = unimodularCompletion(v);
            EXPECT_EQ(u, identityProductCompletion(v)) << v.str();
            IVec e0(d);
            e0[0] = 1;
            EXPECT_EQ(u * v, e0) << v.str();
        }
    }
}

TEST(StorageCellCountProps, AllocationCoversOccupiedClasses)
{
    SplitMix64 rng(0x5eed0005);
    for (size_t d = 2; d <= 4; ++d) {
        for (int i = 0; i < 40; ++i) {
            Polyhedron box = randomBox(rng, d, d == 4 ? 4 : 7);
            for (int k = 0; k < 5; ++k) {
                IVec ov = randomVec(rng, d, -4, 4);
                if (ov.isZero())
                    continue;
                EXPECT_GE(storageCellCount(ov, box),
                          storageCellCountExact(ov, box))
                    << "ov " << ov.str();
            }
        }
    }
}

} // namespace
} // namespace uov
