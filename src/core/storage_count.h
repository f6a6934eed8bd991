/**
 * @file
 * Storage requirements of an occupancy vector over a bounded ISG
 * (Sections 3.2 and 4.3).
 *
 * An OV partitions iteration points into storage-equivalence classes
 * (points differing by an integral multiple of the OV).  With known ISG
 * bounds the class count is the number of integer points in the
 * projection of the ISG onto the hyperplane perpendicular to the OV,
 * times the number of classes lying along the OV itself
 * (gcd of its coordinates, for non-prime OVs).
 */

#ifndef UOV_CORE_STORAGE_COUNT_H
#define UOV_CORE_STORAGE_COUNT_H

#include <cstdint>

#include "geometry/ivec.h"
#include "geometry/polyhedron.h"

namespace uov {

/**
 * The 2-D mapping direction for an occupancy vector: for prime
 * ov == (i, j) this is mv == (-j, i) (Section 4.1); for non-prime OVs
 * the primitive part is used.  @pre ov is 2-D and nonzero
 */
IVec mappingVector2D(const IVec &ov);

/**
 * Number of storage cells required when reusing storage along @p ov
 * over the iteration space @p isg:
 *
 *   2-D:  projectionCount(primitive mv) * content(ov)
 *         -- exact (Figure 6: |mv.xp1 - mv.xp2| + 1 for prime OVs).
 *
 *   d-D:  product of projected bounding-box extents (rows 1..d-1 of a
 *         unimodular completion of ov / g) * g -- exact for boxes whose
 *         projection is again a box, an upper bound otherwise.
 *
 * This is the number of cells the OV storage mapping *allocates* (the
 * range of SM over the ISG).  For non-prime OVs a few projection lines
 * near the ISG corners may hold fewer than g occupied classes, so the
 * exact occupied-class count (storageCellCountExact) can be slightly
 * smaller; allocation follows the paper's formula.
 *
 * It is the known-bounds search objective, evaluated once per search
 * node, so it runs in exact integer arithmetic: each extent is
 * Polyhedron::projectionCount over the ISG's cached common-denominator
 * vertices (docs/THEORY.md, "Integer projection counts"), read straight
 * from the completion's rows, with no Rational arithmetic.
 */
int64_t storageCellCount(const IVec &ov, const Polyhedron &isg);

/**
 * Exact cell count by enumerating integer ISG points and counting
 * distinct storage classes.  Small ISGs only (bounding-box scan).
 */
int64_t storageCellCountExact(const IVec &ov, const Polyhedron &isg,
                              int64_t max_scan = 10000000);

/**
 * The paper's Section 3.2.1 known-bounds search radius: the best OV
 * satisfies |ov_best| <= P_ovo * |ov_o| / P_M, where P_ovo is the
 * projection of the ISG perpendicular to the initial OV and P_M the
 * minimum projection on any hyperplane.  Returns the squared radius.
 */
int64_t knownBoundsRadiusSquared(const IVec &initial_ov,
                                 const Polyhedron &isg);

} // namespace uov

#endif // UOV_CORE_STORAGE_COUNT_H
