#include "analysis/pipeline.h"

#include <sstream>

#include "core/storage_count.h"
#include "support/error.h"
#include "support/logging.h"
#include "support/table.h"

namespace uov {

double
MappingPlan::expansionRatio() const
{
    return static_cast<double>(expanded_cells) /
           static_cast<double>(mapping.cellCount());
}

std::string
MappingPlan::str() const
{
    std::ostringstream oss;
    oss << "stencil " << stencil.str() << "\n"
        << "uov     " << search.best_uov << " (initial "
        << stencil.initialUov() << ")\n"
        << "mapping " << mapping.str() << "\n"
        << "regions " << regions.str() << "\n"
        << "cells   " << mapping.cellCount() << " vs " << expanded_cells
        << " expanded (" << formatDouble(expansionRatio(), 1) << "x)";
    return oss.str();
}

MappingPlan
planStorageMapping(const LoopNest &nest, size_t stmt_index,
                   const PlanOptions &options)
{
    Stencil stencil = extractStencil(nest, stmt_index);
    UOV_LOG_INFO("pipeline: " << nest.str() << " stencil "
                              << stencil.str());

    RegionSummary regions =
        analyzeRegions(nest, stmt_index, options.live_out);
    UOV_REQUIRE(regions.hasTemporaries(),
                "statement writes no temporary values ("
                    << regions.str()
                    << "); OV mapping is not applicable");

    SearchResult search;
    if (options.use_initial_uov) {
        search.best_uov = stencil.initialUov();
        if (options.objective == SearchObjective::BoundedStorage) {
            search.initial_objective =
                storageCellCount(search.best_uov, nest.domain());
        } else {
            search.initial_objective = search.best_uov.normSquared();
        }
        search.best_objective = search.initial_objective;
    } else {
        SearchOptions sopts;
        if (options.objective == SearchObjective::BoundedStorage)
            sopts.isg = nest.domain();
        search = BranchBoundSearch(stencil, options.objective, sopts)
                     .run();
    }

    StorageMapping mapping = StorageMapping::create(
        search.best_uov, nest.domain(), options.layout);

    MappingPlan plan{std::move(stencil), std::move(search),
                     std::move(mapping), std::move(regions),
                     nest.tripCount()};
    UOV_LOG_INFO("pipeline: chose UOV " << plan.search.best_uov << ", "
                                        << plan.mapping.cellCount()
                                        << " cells");
    return plan;
}

} // namespace uov
