#include "support/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "support/json.h"

namespace uov {

void
Histogram::observe(uint64_t v)
{
    size_t b = std::bit_width(v); // 0 -> bucket 0, 1 -> 1, 2..3 -> 2...
    if (b >= kBuckets)
        b = kBuckets - 1;
    // Order matters for scrape consistency: the sum and count are
    // added *before* the bucket increment is published with release
    // order.  A snapshot that observes the bucket increment (acquire)
    // is then guaranteed to also observe this observation's
    // contribution to _sum -- the rendered sum can never be missing a
    // rendered observation.  See Histogram::Snapshot.
    _sum.fetch_add(v, std::memory_order_relaxed);
    _count.fetch_add(1, std::memory_order_relaxed);
    _buckets[b].fetch_add(1, std::memory_order_release);
}

Histogram::Snapshot
Histogram::snapshot() const
{
    Snapshot s;
    for (size_t b = 0; b < kBuckets; ++b) {
        s.buckets[b] = _buckets[b].load(std::memory_order_acquire);
        s.count += s.buckets[b];
    }
    // Read after the acquiring bucket loads: every observation whose
    // bucket increment we saw has already contributed to _sum.
    s.sum = _sum.load(std::memory_order_relaxed);
    return s;
}

uint64_t
Histogram::Snapshot::percentile(double q) const
{
    return bucketPercentile(buckets, kBuckets, count, q);
}

uint64_t
Histogram::count() const
{
    return _count.load(std::memory_order_relaxed);
}

uint64_t
Histogram::sum() const
{
    return _sum.load(std::memory_order_relaxed);
}

uint64_t
Histogram::bucketCount(size_t b) const
{
    return b < kBuckets ? _buckets[b].load(std::memory_order_relaxed)
                        : 0;
}

namespace {

/**
 * Nearest rank of the @p q quantile among @p count > 0 samples:
 * ceil(q * count), clamped to [1, count].  A product that lies within
 * rounding error above an integer (0.07 * 100 == 7.000000000000001)
 * keeps that integer rank.
 */
uint64_t
nearestRank(double q, uint64_t count)
{
    double x = std::clamp(q, 0.0, 1.0) * static_cast<double>(count);
    auto rank = static_cast<uint64_t>(std::ceil(x - 1e-9 * x));
    return std::clamp<uint64_t>(rank, 1, count);
}

} // namespace

uint64_t
Histogram::quantileUpperBound(double q) const
{
    uint64_t total = count();
    if (total == 0)
        return 0;
    uint64_t target = nearestRank(q, total);
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
        seen += bucketCount(b);
        if (seen >= target)
            return b == 0 ? 0 : (uint64_t{1} << b) - 1;
    }
    return ~uint64_t{0};
}

uint64_t
bucketPercentile(const uint64_t *buckets, size_t n, uint64_t count,
                 double q)
{
    if (count == 0)
        return 0;
    uint64_t target = nearestRank(q, count);
    uint64_t seen = 0;
    for (size_t b = 0; b < n; ++b) {
        uint64_t in_bucket = buckets[b];
        if (seen + in_bucket < target) {
            seen += in_bucket;
            continue;
        }
        if (b == 0)
            return 0;
        // Bucket b holds values in [2^(b-1), 2^b - 1]; interpolate
        // the rank's position within the bucket toward the upper
        // bound (frac = 1 at the last rank in the bucket).
        uint64_t lower = uint64_t{1} << (b - 1);
        uint64_t upper = (uint64_t{1} << b) - 1;
        double frac = static_cast<double>(target - seen) /
                      static_cast<double>(in_bucket);
        return lower + static_cast<uint64_t>(
                           frac * static_cast<double>(upper - lower));
    }
    // Unreachable when count matches the bucket total (target <=
    // count), but keep the saturating answer for safety.
    return (uint64_t{1} << (n - 1)) - 1;
}

uint64_t
Histogram::percentile(double q) const
{
    return snapshot().percentile(q);
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto &slot = _counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto &slot = _gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto &slot = _histograms[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    MetricsSnapshot s;
    s.counters.reserve(_counters.size());
    for (const auto &[name, c] : _counters)
        s.counters.emplace_back(name, c->value());
    s.gauges.reserve(_gauges.size());
    for (const auto &[name, g] : _gauges)
        s.gauges.emplace_back(name, g->value());
    s.histograms.reserve(_histograms.size());
    for (const auto &[name, h] : _histograms)
        s.histograms.emplace_back(name, h->snapshot());
    return s;
}

Table
MetricsRegistry::table() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    Table t("Service metrics");
    t.header({"Metric", "Type", "Value"});
    for (const auto &[name, c] : _counters)
        t.addRow().cell(name).cell("counter").cell(c->value());
    for (const auto &[name, g] : _gauges)
        t.addRow().cell(name).cell("gauge").cell(g->value());
    for (const auto &[name, h] : _histograms) {
        std::ostringstream oss;
        oss << "count=" << h->count() << " sum=" << h->sum()
            << " p50=" << h->percentile(0.5)
            << " p95=" << h->percentile(0.95)
            << " p99=" << h->percentile(0.99);
        t.addRow().cell(name).cell("histogram").cell(oss.str());
    }
    return t;
}

std::string
MetricsRegistry::json() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::ostringstream oss;
    oss << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, c] : _counters) {
        oss << (first ? "" : ",") << "\"" << jsonEscape(name)
            << "\":" << c->value();
        first = false;
    }
    oss << "},\"gauges\":{";
    first = true;
    for (const auto &[name, g] : _gauges) {
        oss << (first ? "" : ",") << "\"" << jsonEscape(name)
            << "\":" << g->value();
        first = false;
    }
    oss << "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : _histograms) {
        oss << (first ? "" : ",") << "\"" << jsonEscape(name)
            << "\":{\"count\":"
            << h->count() << ",\"sum\":" << h->sum()
            << ",\"p50_le\":" << h->quantileUpperBound(0.5)
            << ",\"p99_le\":" << h->quantileUpperBound(0.99) << "}";
        first = false;
    }
    oss << "}}";
    return oss.str();
}

} // namespace uov
