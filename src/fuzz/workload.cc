#include "fuzz/workload.h"

#include <sstream>

#include "fuzz/oracles.h"
#include "support/rng.h"

namespace uov {
namespace fuzz {

std::vector<service::Request>
makeWorkload(const WorkloadOptions &opt)
{
    std::vector<service::Request> pool;
    SplitMix64 rng(opt.seed);
    while (pool.size() < opt.distinct) {
        FuzzCase c = makeCase(rng.next());
        if (!c.valid())
            continue;
        service::Request r;
        r.deps = c.deps;
        r.deadline_ms = opt.deadline_ms;
        if (pool.size() % 2 == 0) {
            r.verb = service::Verb::Storage;
            r.isg_lo = c.lo;
            r.isg_hi = c.hi;
        } else {
            r.verb = service::Verb::Shortest;
        }
        pool.push_back(std::move(r));
    }

    std::vector<service::Request> out;
    out.reserve(opt.requests);
    for (size_t i = 0; i < opt.requests; ++i) {
        service::Request r = pool[rng.nextBelow(pool.size())];
        r.index = i + 1;
        out.push_back(std::move(r));
    }
    return out;
}

std::string
renderRequest(const service::Request &request)
{
    std::ostringstream oss;
    oss << "query " << telemetry::FlightDigest::verbName(request.verb);
    if (request.deadline_ms != -1)
        oss << " deadline_ms " << request.deadline_ms;
    if (request.isg_lo) {
        oss << " bounds";
        for (size_t k = 0; k < request.isg_lo->dim(); ++k)
            oss << " " << (*request.isg_lo)[k] << ".."
                << (*request.isg_hi)[k];
    }
    oss << " deps";
    for (const IVec &v : request.deps) {
        oss << " [";
        for (size_t k = 0; k < v.dim(); ++k)
            oss << (k ? "," : "") << v[k];
        oss << "]";
    }
    return oss.str();
}

} // namespace fuzz
} // namespace uov
