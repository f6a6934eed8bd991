#include "core/storage_count.h"

#include <cmath>
#include <unordered_set>

#include "geometry/lattice.h"
#include "support/checked.h"
#include "support/error.h"

namespace uov {

IVec
mappingVector2D(const IVec &ov)
{
    UOV_REQUIRE(ov.dim() == 2, "mappingVector2D needs a 2-D OV");
    UOV_REQUIRE(!ov.isZero(), "zero occupancy vector");
    int64_t g = ov.content();
    IVec prim = ov.dividedBy(g);
    return IVec{checkedNeg(prim[1]), prim[0]};
}

int64_t
storageCellCount(const IVec &ov, const Polyhedron &isg)
{
    UOV_REQUIRE(ov.dim() == isg.dim(), "OV/ISG dimension mismatch");
    UOV_REQUIRE(!ov.isZero(), "zero occupancy vector");
    int64_t g = ov.content();

    if (ov.dim() == 2) {
        IVec mv = mappingVector2D(ov);
        return checkedMul(isg.projectionCount(mv), g);
    }

    IVec prim = ov.dividedBy(g);
    IMatrix u = unimodularCompletion(prim);
    int64_t cells = g;
    for (size_t r = 1; r < u.rows(); ++r)
        cells = checkedMul(cells, isg.projectionCount(u.rowSpan(r)));
    return cells;
}

int64_t
storageCellCountExact(const IVec &ov, const Polyhedron &isg,
                      int64_t max_scan)
{
    UOV_REQUIRE(ov.dim() == isg.dim(), "OV/ISG dimension mismatch");
    UOV_REQUIRE(!ov.isZero(), "zero occupancy vector");

    // Two points share a cell iff they differ by an integral multiple
    // of ov.  Canonicalize each point by walking it back along ov as
    // far as possible in a fixed direction and hash the representative.
    // Two points p and p + k*ov measure k apart under the Bezout
    // functional beta (beta . ov == content), so canonicalizing the
    // functional value into [0, content) picks one representative per
    // storage class.
    IVec beta = bezoutVector(ov);
    int64_t g = ov.content();
    std::unordered_set<IVec, IVecHash> classes;
    for (const auto &p : isg.integerPoints(max_scan)) {
        int64_t pos = floorDiv(beta.dot(p), g);
        classes.insert(p - ov * pos);
    }
    return static_cast<int64_t>(classes.size());
}

int64_t
knownBoundsRadiusSquared(const IVec &initial_ov, const Polyhedron &isg)
{
    UOV_REQUIRE(!initial_ov.isZero(), "zero initial OV");
    int64_t p_ovo = storageCellCount(initial_ov, isg);
    int64_t pm = isg.minProjectionCount();
    UOV_CHECK(pm >= 1, "minimum projection count must be positive");

    // |ov_best| <= p_ovo * |ov_o| / pm; square it and round up.
    int64_t len_sq = initial_ov.normSquared();
    int64_t num = checkedMul(checkedMul(p_ovo, p_ovo), len_sq);
    int64_t r_sq = ceilDiv(num, checkedMul(pm, pm));
    return std::max(r_sq, len_sq);
}

} // namespace uov
