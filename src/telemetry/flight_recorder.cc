#include "telemetry/flight_recorder.h"

#include <algorithm>
#include <sstream>
#include <thread>
#include <type_traits>

#include "support/json.h"
#include "support/logging.h"

namespace uov {
namespace telemetry {

static_assert(std::is_trivially_copyable_v<FlightDigest>,
              "digests are copied through the seqlock word buffer");

void
FlightDigest::setCause(const std::string &text)
{
    size_t n = std::min(text.size(), kCauseBytes - 1);
    std::memcpy(cause, text.data(), n);
    cause[n] = '\0';
}

std::string
FlightDigest::causeStr() const
{
    return std::string(cause,
                       strnlen(cause, kCauseBytes));
}

const char *
FlightDigest::verbName(Verb v)
{
    switch (v) {
      case Verb::Shortest: return "shortest";
      case Verb::Storage:  return "storage";
      case Verb::Native:   return "native";
      case Verb::Tune:     return "tune";
      case Verb::Unknown:  return "unknown";
    }
    return "?";
}

const char *
FlightDigest::outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::Optimal:  return "optimal";
      case Outcome::Degraded: return "degraded";
      case Outcome::Shed:     return "shed";
      case Outcome::Error:    return "error";
    }
    return "?";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : _capacity(std::max<size_t>(capacity, 8)),
      _slots(std::make_unique<Slot[]>(_capacity))
{
}

void
FlightRecorder::record(FlightDigest digest)
{
    uint64_t idx = _next.fetch_add(1, std::memory_order_relaxed);
    digest.seq = idx + 1;
    Slot &slot = _slots[idx % _capacity];

    uint64_t buf[kDigestWords] = {};
    std::memcpy(buf, &digest, sizeof(digest));

    // Per-slot seqlock: odd = write in progress.  The payload words
    // are themselves atomic, so a racing snapshot reads defined
    // values and discards any it cannot certify as one generation.
    // Writers of one slot go in claim order: a writer that lapped the
    // ring waits until the slot's previous generation is published.
    // Two writers storing into one slot at once (the earlier one
    // preempted mid-copy) would otherwise leave a mix of two digests
    // under an even, unchanged sequence word.
    uint64_t prev = idx < _capacity ? 0 : 2 * (idx - _capacity) + 2;
    while (slot.state.load(std::memory_order_acquire) != prev)
        std::this_thread::yield();
    slot.state.store(2 * idx + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    for (size_t w = 0; w < kDigestWords; ++w)
        slot.words[w].store(buf[w], std::memory_order_relaxed);
    slot.state.store(2 * idx + 2, std::memory_order_release);
}

std::vector<FlightDigest>
FlightRecorder::snapshot() const
{
    std::vector<FlightDigest> out;
    out.reserve(_capacity);
    for (size_t s = 0; s < _capacity; ++s) {
        const Slot &slot = _slots[s];
        uint64_t s1 = slot.state.load(std::memory_order_acquire);
        if (s1 == 0 || (s1 & 1) != 0)
            continue; // never written, or mid-write: skip this scan
        uint64_t buf[kDigestWords];
        for (size_t w = 0; w < kDigestWords; ++w)
            buf[w] = slot.words[w].load(std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        uint64_t s2 = slot.state.load(std::memory_order_relaxed);
        if (s1 != s2)
            continue; // overwritten while copying
        FlightDigest d;
        std::memcpy(&d, buf, sizeof(d));
        out.push_back(d);
    }
    std::sort(out.begin(), out.end(),
              [](const FlightDigest &a, const FlightDigest &b) {
                  return a.seq < b.seq;
              });
    return out;
}

uint64_t
FlightRecorder::recorded() const
{
    return _next.load(std::memory_order_relaxed);
}

std::string
FlightRecorder::json() const
{
    std::vector<FlightDigest> digests = snapshot();
    std::ostringstream oss;
    oss << "{\"capacity\":" << _capacity
        << ",\"recorded\":" << recorded() << ",\"digests\":[";
    for (size_t i = 0; i < digests.size(); ++i) {
        const FlightDigest &d = digests[i];
        if (i)
            oss << ",";
        oss << "{\"seq\":" << d.seq << ",\"trace_id\":\""
            << traceIdHex(d.trace_id) << "\",\"key_hash\":\""
            << traceIdHex(d.key_hash) << "\",\"index\":"
            << d.request_index << ",\"verb\":\""
            << FlightDigest::verbName(d.verb) << "\",\"outcome\":\""
            << FlightDigest::outcomeName(d.outcome) << "\",\"cause\":\""
            << jsonEscape(d.causeStr()) << "\",\"nodes\":" << d.nodes
            << ",\"cache_hit\":" << (d.cache_hit ? "true" : "false")
            << ",\"store_hit\":" << (d.store_hit ? "true" : "false")
            << ",\"coalesced\":" << (d.coalesced ? "true" : "false")
            << ",\"wall_us\":" << d.wall_us << "}";
    }
    oss << "]}";
    return oss.str();
}

} // namespace telemetry
} // namespace uov
