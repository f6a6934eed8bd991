/**
 * @file
 * Array region analysis (Section 2, citing Creusillet/Irigoin):
 * which elements a loop nest imports, which it exports, and which are
 * temporaries eligible for OV storage mapping.
 *
 * The paper's method applies only to values that are *temporary* --
 * produced and fully consumed inside the nest, dead on exit except for
 * an explicitly live-out region.  This module computes those regions
 * exactly so the applicability check is real rather than asserted.
 * The counts are closed-form in the box and the read distances
 * (docs/THEORY.md, "Closed-form region counts"): no iteration point is
 * visited except to evaluate a non-empty live-out predicate.
 */

#ifndef UOV_ANALYSIS_REGION_H
#define UOV_ANALYSIS_REGION_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ir/program.h"

namespace uov {

/**
 * Which written elements remain live after the nest.  An empty
 * predicate means nothing survives and costs no per-point work.
 */
using LiveOutPredicate = std::function<bool(const IVec &element)>;

/** Exact region summary for one statement's array. */
struct RegionSummary
{
    std::string array;
    int64_t written = 0;     ///< distinct elements written
    int64_t imported = 0;    ///< distinct elements read from outside
    int64_t live_out = 0;    ///< written elements live after the nest
    int64_t temporary = 0;   ///< written and not live-out

    /** True iff the nest produces temporaries worth OV-mapping. */
    bool hasTemporaries() const { return temporary > 0; }

    std::string str() const;
};

/**
 * Analyze the regions of the statement's written array.
 *
 * @param live_out which written elements the rest of the program still
 *        needs (e.g. "the last row of A" in Figure 1); empty means none
 * @param max_scan largest trip count accepted; a larger nest throws
 *        UovUserError (a non-empty @p live_out is evaluated once per
 *        iteration)
 * @throws UovUserError also for every precondition analyzeDependences
 *         rejects
 */
RegionSummary analyzeRegions(const LoopNest &nest, size_t stmt_index,
                             const LiveOutPredicate &live_out,
                             int64_t max_scan = 10000000);

/** Convenience predicates. */
namespace live_out {

/** Nothing survives the nest (the empty predicate). */
LiveOutPredicate nothing();

/** Every written element survives. */
LiveOutPredicate everything();

/** Elements whose coordinate @p dim equals @p value survive. */
LiveOutPredicate hyperplane(size_t dim, int64_t value);

} // namespace live_out

} // namespace uov

#endif // UOV_ANALYSIS_REGION_H
