#include "mapping/storage_mapping.h"

#include <sstream>

#include "geometry/lattice.h"
#include "support/checked.h"
#include "support/error.h"

namespace uov {

StorageMapping
StorageMapping::create(const IVec &ov, const Polyhedron &isg,
                       ModLayout layout, int64_t block_pad)
{
    UOV_REQUIRE(!ov.isZero(), "zero occupancy vector");
    UOV_REQUIRE(block_pad >= 0, "negative block padding");
    UOV_REQUIRE(ov.dim() == isg.dim(),
                "OV dimension " << ov.dim() << " != ISG dimension "
                                << isg.dim());
    size_t d = ov.dim();

    StorageMapping sm;
    sm._ov = ov;
    sm._layout = layout;
    sm._g = ov.content();
    IVec prim = ov.dividedBy(sm._g);

    // Class selector for non-prime OVs: alpha . prim == 1, so points
    // along the primitive direction cycle through the g classes
    // (Section 4.2; for ov=(2,0) this is q0 mod 2, as in Figure 5).
    if (sm._g > 1)
        sm._alpha = bezoutVector(prim);
    else
        sm._alpha = IVec(d); // unused

    // Projection rows whose joint kernel is exactly the OV line.
    if (d == 2) {
        sm._mv.push_back(IVec{checkedNeg(prim[1]), prim[0]});
    } else if (d == 1) {
        // Degenerate: every iteration lands in the same projected slot
        // (all reuse happens along the single axis).
        sm._mv.clear();
    } else {
        IMatrix u = unimodularCompletion(prim);
        for (size_t r = 1; r < u.rows(); ++r)
            sm._mv.push_back(u.row(r));
    }

    // Per-row extents over the ISG, linearized row-major.
    int64_t extent_product = 1;
    sm._lo.resize(sm._mv.size());
    std::vector<int64_t> extent(sm._mv.size());
    for (size_t k = 0; k < sm._mv.size(); ++k) {
        Polyhedron::DotRange r = isg.integerDotRange(
            {sm._mv[k].data(), sm._mv[k].dim()});
        UOV_REQUIRE(r.hi >= r.lo, "ISG projects to an empty range along "
                                      << sm._mv[k].str());
        sm._lo[k] = r.lo;
        extent[k] = checkedAdd(checkedSub(r.hi, r.lo), 1);
        extent_product = checkedMul(extent_product, extent[k]);
    }
    sm._stride.assign(sm._mv.size(), 1);
    for (size_t k = sm._mv.size(); k-- > 1;)
        sm._stride[k - 1] = checkedMul(sm._stride[k], extent[k]);

    if (layout == ModLayout::Blocked && sm._g > 1 && block_pad > 0) {
        int64_t padded = checkedAdd(extent_product, block_pad);
        sm._mod_factor = padded;
        sm._cells = checkedMul(sm._g, padded);
    } else {
        sm._cells = checkedMul(sm._g, extent_product);
        sm._mod_factor =
            layout == ModLayout::Interleaved ? 1 : extent_product;
    }
    return sm;
}

int64_t
StorageMapping::operator()(const IVec &q) const
{
    UOV_CHECK(q.dim() == _ov.dim(), "point dimension mismatch");

    int64_t linear = 0;
    for (size_t k = 0; k < _mv.size(); ++k) {
        int64_t coord = checkedSub(_mv[k].dot(q), _lo[k]);
        linear = checkedAdd(linear, checkedMul(coord, _stride[k]));
    }

    if (_g == 1)
        return linear;

    int64_t cls = floorMod(_alpha.dot(q), _g);
    if (_layout == ModLayout::Interleaved)
        return checkedAdd(checkedMul(linear, _g), cls);
    return checkedAdd(linear, checkedMul(cls, _mod_factor));
}

std::string
StorageMapping::str() const
{
    std::ostringstream oss;
    oss << "SM(q) = ";
    if (_mv.empty()) {
        oss << "0";
    } else {
        for (size_t k = 0; k < _mv.size(); ++k) {
            if (k)
                oss << " + ";
            IVec scaled =
                (_g > 1 && _layout == ModLayout::Interleaved)
                    ? _mv[k] * _g
                    : _mv[k];
            int64_t stride = _stride[k];
            oss << scaled.str() << ".q";
            if (stride != 1)
                oss << "*" << stride;
        }
    }
    if (_g > 1) {
        oss << " + (" << _alpha.str() << ".q mod " << _g << ")";
        if (_layout == ModLayout::Blocked)
            oss << "*" << _mod_factor;
    }
    // Fold the shift: the -lo terms scaled like the linear part.
    int64_t shift = 0;
    for (size_t k = 0; k < _mv.size(); ++k)
        shift += -_lo[k] * _stride[k];
    if (_g > 1 && _layout == ModLayout::Interleaved)
        shift *= _g;
    oss << " + " << shift;
    oss << "   [" << _cells << " cells, "
        << (_layout == ModLayout::Interleaved ? "interleaved" : "blocked")
        << "]";
    return oss.str();
}

} // namespace uov
