/**
 * @file
 * Flight recorder: a lock-light ring buffer of the last K request
 * digests, answering "why was request X degraded/shed?" *after* the
 * fact without a trace session armed in advance.
 *
 * Every mapped answer is a pure function of its canonical key (the
 * paper's schedule-independence result), so a request's provenance --
 * cache hit, store hit, fresh search, shed floor -- plus its outcome
 * and wall time is a tiny fixed-size record that is cheap to keep and
 * links (via the trace id) to the structured log and any exported
 * Perfetto span for the same request.
 *
 * Concurrency: record() claims a slot with one fetch_add and
 * publishes it under a per-slot seqlock (odd = being written).  A
 * concurrent snapshot() copies each slot and keeps it only when the
 * sequence word was even and unchanged across the copy -- readers
 * never block writers, and a digest is either observed whole or not
 * at all.  A writer waits only when it laps the ring onto a slot whose
 * previous writer has not finished its copy.  Digests are trivially
 * copyable by construction (fixed char cause field, no heap), so a
 * slot's payload is stored and copied as whole words, each one an
 * atomic: the copy itself is free of data races.  The ordering that
 * makes a kept copy consistent rests on the release/acquire fences
 * around it, which ThreadSanitizer does not model (gcc warns that
 * atomic_thread_fence is unsupported under -fsanitize=thread); a torn
 * copy would show up in the tests' digest checks, not as a TSan
 * report.
 */

#ifndef UOV_TELEMETRY_FLIGHT_RECORDER_H
#define UOV_TELEMETRY_FLIGHT_RECORDER_H

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace uov {
namespace telemetry {

/** One request's post-hoc digest (fixed-size, trivially copyable). */
struct FlightDigest
{
    enum class Verb : uint8_t { Shortest, Storage, Native, Tune, Unknown };
    enum class Outcome : uint8_t { Optimal, Degraded, Shed, Error };

    static constexpr size_t kCauseBytes = 24;

    uint64_t seq = 0;      ///< recorder-assigned, monotone from 1
    uint64_t trace_id = 0; ///< links log / span / response token
    uint64_t key_hash = 0; ///< canonical-key hash (0 = never keyed)
    uint64_t request_index = 0;
    uint64_t nodes = 0;    ///< branch-and-bound nodes expanded
    uint64_t wall_us = 0;
    Verb verb = Verb::Unknown;
    Outcome outcome = Outcome::Optimal;
    bool cache_hit = false;
    bool store_hit = false;
    bool coalesced = false;
    char cause[kCauseBytes] = {}; ///< degraded reason / error head

    /** Truncating NUL-terminated copy into the cause field. */
    void setCause(const std::string &text);
    std::string causeStr() const;

    static const char *verbName(Verb v);
    static const char *outcomeName(Outcome o);
};

class FlightRecorder
{
  public:
    /** @p capacity is rounded up to at least 8 digests. */
    explicit FlightRecorder(size_t capacity = 256);

    /** Record one digest (seq is assigned here). Lock-free. */
    void record(FlightDigest digest);

    /**
     * Consistent copies of the retained digests, oldest first.
     * Slots mid-write during the scan are skipped (they reappear in
     * the next snapshot); the result is therefore always a set of
     * whole digests in seq order.
     */
    std::vector<FlightDigest> snapshot() const;

    /** Total digests ever recorded (monotone). */
    uint64_t recorded() const;

    size_t capacity() const { return _capacity; }

    /** The /flight JSON document: capacity, recorded, digests[]. */
    std::string json() const;

  private:
    /** Digest payload as whole words, copied through atomics so the
     *  copy is free of data races; its ordering rests on fences that
     *  TSan does not check. */
    static constexpr size_t kDigestWords =
        (sizeof(FlightDigest) + 7) / 8;

    struct Slot
    {
        std::atomic<uint64_t> state{0}; ///< odd = write in progress
        std::atomic<uint64_t> words[kDigestWords] = {};
    };

    size_t _capacity;
    std::unique_ptr<Slot[]> _slots;
    std::atomic<uint64_t> _next{0};
};

} // namespace telemetry
} // namespace uov

#endif // UOV_TELEMETRY_FLIGHT_RECORDER_H
