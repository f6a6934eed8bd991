#include "analysis/region.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "analysis/dependence.h"
#include "support/checked.h"
#include "support/error.h"

namespace uov {

std::string
RegionSummary::str() const
{
    std::ostringstream oss;
    oss << array << ": written=" << written << " imported=" << imported
        << " live_out=" << live_out << " temporary=" << temporary;
    return oss.str();
}

namespace {

/** A translate D - d of the iteration box, or (D - d) \ D. */
struct Translate
{
    IVec lo;
    IVec hi;
    bool minus_box; ///< flow read: only the part outside D is imported
};

/**
 * Lattice points of the union of @p ts (docs/THEORY.md, "Closed-form
 * region counts").  Rows run along @p axis; every other axis is cut at
 * the edges of the translates and of D, so all rows of one cell of
 * that grid carry the same intervals and are counted once.
 */
int64_t
unionCount(const IVec &lo, const IVec &hi, size_t axis,
           const std::vector<Translate> &ts)
{
    size_t n = lo.dim();
    std::vector<std::vector<int64_t>> cuts(n);
    for (size_t c = 0; c < n; ++c) {
        if (c == axis)
            continue;
        cuts[c] = {lo[c], checkedAdd(hi[c], 1)};
        for (const Translate &t : ts) {
            cuts[c].push_back(t.lo[c]);
            cuts[c].push_back(checkedAdd(t.hi[c], 1));
        }
        std::sort(cuts[c].begin(), cuts[c].end());
        cuts[c].erase(std::unique(cuts[c].begin(), cuts[c].end()),
                      cuts[c].end());
    }

    auto inside = [&](const IVec &x, const IVec &l, const IVec &h) {
        for (size_t c = 0; c < n; ++c)
            if (c != axis && (x[c] < l[c] || x[c] > h[c]))
                return false;
        return true;
    };

    // Odometer over the grid: cell slab[c] of axis c spans
    // [cuts[c][slab[c]], cuts[c][slab[c] + 1]).
    std::vector<size_t> slab(n, 0);
    IVec x(n);
    std::vector<std::pair<int64_t, int64_t>> rows;
    int64_t total = 0;
    for (;;) {
        int64_t weight = 1;
        for (size_t c = 0; c < n; ++c) {
            if (c == axis)
                continue;
            x[c] = cuts[c][slab[c]];
            weight = checkedMul(
                weight, checkedSub(cuts[c][slab[c] + 1], x[c]));
        }
        bool in_box = inside(x, lo, hi);
        rows.clear();
        for (const Translate &t : ts) {
            if (!inside(x, t.lo, t.hi))
                continue;
            int64_t a = t.lo[axis], b = t.hi[axis];
            if (t.minus_box && in_box) {
                if (a < lo[axis])
                    rows.emplace_back(a, std::min(b, lo[axis] - 1));
                if (b > hi[axis])
                    rows.emplace_back(std::max(a, hi[axis] + 1), b);
            } else {
                rows.emplace_back(a, b);
            }
        }
        std::sort(rows.begin(), rows.end());
        int64_t covered = 0;
        int64_t next = INT64_MIN; // first coordinate not yet counted
        for (const auto &[a, b] : rows) {
            int64_t from = std::max(a, next);
            if (b < from)
                continue;
            covered = checkedAdd(covered,
                                 checkedAdd(checkedSub(b, from), 1));
            next = checkedAdd(b, 1);
        }
        total = checkedAdd(total, checkedMul(weight, covered));

        size_t c = 0;
        for (; c < n; ++c) {
            if (c == axis)
                continue;
            if (++slab[c] + 1 < cuts[c].size())
                break;
            slab[c] = 0;
        }
        if (c == n)
            return total;
    }
}

/** Written elements W*q + ow, q in [lo, hi], that @p live accepts. */
int64_t
liveOutCount(const IVec &lo, const IVec &hi, const Access &write,
             const LiveOutPredicate &live)
{
    size_t n = lo.dim();
    std::vector<IVec> step(n);
    std::vector<IVec> rewind(n);
    for (size_t c = 0; c < n; ++c) {
        step[c] = write.coef.col(c);
        rewind[c] = step[c] * checkedSub(hi[c], lo[c]);
    }
    // Step the element with the iteration instead of recomputing it.
    IVec q = lo;
    IVec e = write.elementAt(q);
    int64_t count = 0;
    for (;;) {
        if (live(e))
            ++count;
        size_t c = n;
        while (c > 0 && q[c - 1] == hi[c - 1]) {
            --c;
            q[c] = lo[c];
            e -= rewind[c];
        }
        if (c == 0)
            return count;
        ++q[c - 1];
        e += step[c - 1];
    }
}

} // namespace

RegionSummary
analyzeRegions(const LoopNest &nest, size_t stmt_index,
               const LiveOutPredicate &live_out, int64_t max_scan)
{
    UOV_REQUIRE(nest.tripCount() <= max_scan,
                "region analysis scan over " << nest.tripCount()
                    << " iterations exceeds limit " << max_scan);
    const Statement &stmt = nest.statement(stmt_index);
    const IVec &lo = nest.lo();
    const IVec &hi = nest.hi();

    // Producer distances for reads of the written array.  It also
    // enforces what the counts rely on: W is square and unimodular
    // and every such read is W*q + o_r, so the element it reads at q
    // is W*(q - d) + ow, the one written at producer point q - d.
    DependenceInfo deps = analyzeDependences(nest, stmt_index);

    // Imported elements are W*p + ow for distinct producer points p:
    // D - d of an import read, (D - d) \ D of a flow read.
    std::vector<Translate> ts;
    for (const auto &rd : deps.reads)
        ts.push_back({lo - rd.distance, hi - rd.distance,
                      rd.kind == ReadKind::LoopCarriedFlow});
    size_t axis = 0;
    for (size_t c = 1; c < nest.depth(); ++c)
        if (hi[c] - lo[c] > hi[axis] - lo[axis])
            axis = c;

    RegionSummary s;
    s.array = stmt.write.array;
    s.written = nest.tripCount(); // W is injective
    s.imported = unionCount(lo, hi, axis, ts);
    s.live_out = live_out ? liveOutCount(lo, hi, stmt.write, live_out) : 0;
    s.temporary = s.written - s.live_out;
    return s;
}

namespace live_out {

LiveOutPredicate
nothing()
{
    return {};
}

LiveOutPredicate
everything()
{
    return [](const IVec &) { return true; };
}

LiveOutPredicate
hyperplane(size_t dim, int64_t value)
{
    return [dim, value](const IVec &e) { return e[dim] == value; };
}

} // namespace live_out

} // namespace uov
