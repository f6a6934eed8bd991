/**
 * @file
 * Regression tests for the headline experimental shapes.  These pin
 * the qualitative claims of Section 5 at reduced problem sizes so the
 * full bench sweeps cannot silently drift.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "kernels/psm.h"
#include "kernels/stencil5.h"
#include "sim/machine.h"
#include "sim/memory_policy.h"

namespace uov {
namespace {

double
stencilCpi(Stencil5Variant v, int64_t len, const MachineConfig &m)
{
    Stencil5Config cfg;
    cfg.length = len;
    cfg.steps = 8;
    cfg.tile_t = 8;
    cfg.tile_s = m.l1.size_bytes / 8;
    MemorySystem ms(m);
    SimMem mem{&ms};
    VirtualArena arena;
    runStencil5(v, cfg, mem, arena);
    return ms.cycles() / static_cast<double>(len * cfg.steps);
}

TEST(Shapes, InCacheVersionsAreClose)
{
    // Figure 7's claim at regression scale.
    MachineConfig m = MachineConfig::pentiumPro();
    double lo = 1e30, hi = 0;
    for (Stencil5Variant v :
         {Stencil5Variant::StorageOptimized, Stencil5Variant::Natural,
          Stencil5Variant::Ov, Stencil5Variant::OvInterleaved}) {
        double c = stencilCpi(v, 128, m);
        lo = std::min(lo, c);
        hi = std::max(hi, c);
    }
    EXPECT_LT(hi / lo, 2.5);
}

TEST(Shapes, NaturalFallsOutOfMemoryFirst)
{
    // Figures 9-11's claim: with memory scaled down, natural thrashes
    // while OV-tiled and storage-optimized stay flat.
    MachineConfig m = MachineConfig::pentiumPro();
    m.memory_bytes = 2ll << 20;
    int64_t len = 100000; // natural: 36*L bytes = 3.6 MB > 2 MB
    double natural = stencilCpi(Stencil5Variant::Natural, len, m);
    double ov_tiled = stencilCpi(Stencil5Variant::OvTiled, len, m);
    double opt = stencilCpi(Stencil5Variant::StorageOptimized, len, m);
    EXPECT_GT(natural, 3 * ov_tiled);
    EXPECT_GT(natural, 3 * opt);
    EXPECT_LT(ov_tiled, 30.0);
}

TEST(Shapes, TilingHelpsOvPastCache)
{
    // Past L2, untiled OV pays memory latency per row; tiled does not.
    MachineConfig m = MachineConfig::pentiumPro();
    int64_t len = 300000; // 2 rows = 2.4 MB > 256 KiB L2
    double ov = stencilCpi(Stencil5Variant::Ov, len, m);
    double ov_tiled = stencilCpi(Stencil5Variant::OvTiled, len, m);
    EXPECT_GT(ov, 1.3 * ov_tiled);
}

TEST(Shapes, TilingDoesNotRescueNaturalFromThrashing)
{
    // "tiling the natural codes did not help": each natural cell is
    // touched at most twice per tile, so once the footprint exceeds
    // memory, tiled natural thrashes like untiled natural while
    // OV-tiled stays flat.
    MachineConfig m = MachineConfig::pentiumPro();
    m.memory_bytes = 2ll << 20;
    int64_t len = 100000;
    double nat_tiled = stencilCpi(Stencil5Variant::NaturalTiled, len, m);
    double ov_tiled = stencilCpi(Stencil5Variant::OvTiled, len, m);
    EXPECT_GT(nat_tiled, 3 * ov_tiled);
}

TEST(Shapes, PsmNaturalDegradesOvDoesNot)
{
    // Figures 12-14 at regression scale.
    MachineConfig m = MachineConfig::pentiumPro();
    m.memory_bytes = 4ll << 20;
    auto cpi = [&](PsmVariant v, int64_t n) {
        PsmConfig cfg;
        cfg.n0 = cfg.n1 = n;
        cfg.tile_i = cfg.tile_j = 64;
        MemorySystem ms(m);
        SimMem mem{&ms};
        VirtualArena arena;
        runPsm(v, cfg, mem, arena);
        return ms.cycles() / static_cast<double>(n * n);
    };
    int64_t n = 1000; // natural D+E: 8 MB > 4 MB memory
    double natural = cpi(PsmVariant::Natural, n);
    double ov = cpi(PsmVariant::Ov, n);
    double ov_tiled = cpi(PsmVariant::OvTiled, n);
    EXPECT_GT(natural, 3 * ov);
    EXPECT_LE(ov_tiled, ov * 1.1);
}

TEST(Shapes, BranchCostCompressesPsmGapOnUltra2)
{
    // The paper's conjecture for Figures 13/14: branch stalls rather
    // than memory dominate PSM on the Ultra2/Alpha, shrinking the
    // relative benefit of better storage.  Compare the storage gap
    // with branches charged vs a branch-free clone of the machine.
    auto gap = [&](MachineConfig m) {
        PsmConfig cfg;
        cfg.n0 = cfg.n1 = 200;
        auto run = [&](PsmVariant v) {
            MemorySystem ms(m);
            SimMem mem{&ms};
            VirtualArena arena;
            runPsm(v, cfg, mem, arena);
            return ms.cycles();
        };
        return run(PsmVariant::Natural) / run(PsmVariant::Ov);
    };
    MachineConfig u2 = MachineConfig::ultra2();
    MachineConfig no_branch = u2;
    no_branch.branch_cycles = 0;
    no_branch.branch_mispredict_rate = 0;
    EXPECT_LT(gap(u2), gap(no_branch));
}

} // namespace
} // namespace uov
