// sim/rss.h — multi-queue RSS dispatch over descriptor rings (ISSUE 6).
// The dispatcher is the emulator's front end and its only batch ingress: it
// hashes each packet's flow tuple (the flow hash of sim/flow_hash.h, which
// Emulator::steer_worker names workers with, so same flow -> same queue ->
// same worker shard, always) and enqueues an RX descriptor into that
// queue's ring, dropping on overflow. The emulator builds one via
// Emulator::make_rings() and services it via Emulator::poll(); with one
// worker it has one queue, the in-order configuration whose poll matches a
// process() loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/batch.h"
#include "sim/match_batch.h"
#include "sim/packet.h"
#include "sim/queue_pair.h"

namespace pipeleon::sim {

/// The RSS flow hash: flow_hash over the steering tuple's 64-bit values.
/// Shared by Emulator::steer_worker and RssDispatcher so the two agree
/// packet-for-packet.
std::uint64_t rss_hash(const Packet& packet, const FieldId* fields,
                       std::size_t n_fields);

/// Owns the per-worker queue pairs plus the steering-tuple snapshot used to
/// hash packets onto them. Single-producer: one thread dispatches (the
/// driver/trafficgen side); the emulator's workers are the per-queue
/// consumers.
class RssDispatcher {
public:
    RssDispatcher(std::size_t queues, std::vector<FieldId> steer_fields,
                  const RingConfig& cfg = {});

    RssDispatcher(RssDispatcher&&) = default;
    RssDispatcher& operator=(RssDispatcher&&) = default;
    RssDispatcher(const RssDispatcher&) = delete;
    RssDispatcher& operator=(const RssDispatcher&) = delete;

    std::size_t queue_count() const { return queues_.size(); }
    QueuePair& queue(std::size_t i) { return *queues_[i]; }
    const QueuePair& queue(std::size_t i) const { return *queues_[i]; }

    /// Replaces the steering tuple (Emulator::poll refreshes it after an
    /// epoch swap recompiles the program, so steering follows the deployed
    /// key set).
    void set_steer_fields(std::vector<FieldId> fields, std::uint64_t epoch);
    std::uint64_t steer_epoch() const { return steer_epoch_; }

    /// Installs a NUMA-aware indirection table (RETA): queue =
    /// reta[hash & (reta.size()-1)]. Size must be a power of two; an empty
    /// table restores plain `hash % queues`. The emulator shares its own
    /// RETA here (make_rings) so ring dispatch and steer_worker agree
    /// packet-for-packet even when steering is node-aware (DESIGN.md §15).
    void set_steer_map(std::vector<std::uint32_t> reta);
    const std::vector<std::uint32_t>& steer_map() const { return reta_; }

    /// Hashes the packet onto a queue and enqueues a copy of it as an RX
    /// descriptor stamped with the next arrival seq and `now` (virtual
    /// seconds; pass < 0 to skip queueing-delay accounting). Returns the
    /// queue index, or -1 when that queue's ring was full and the packet
    /// was dropped (the producer never blocks).
    int dispatch(const Packet& packet, double now = -1.0);

    /// dispatch() with the steering hash already computed (must equal
    /// rss_hash over the current steer fields). The batched front end hashes
    /// groups of kHashGroup packets with hash_group(), then funnels each
    /// through here — one hash per packet.
    int dispatch_hashed(const Packet& packet, std::uint64_t h,
                        double now = -1.0);

    /// Dispatches every packet of the batch; returns how many were
    /// accepted (the rest overflowed their ring and were dropped).
    std::size_t dispatch_batch(const PacketBatch& batch, double now = -1.0);

    /// Arrival sequence numbers handed out so far (== packets offered).
    std::uint64_t next_seq() const { return seq_; }

    /// Aggregate RX accounting summed over all queues (absolute values).
    RingStats stats() const;

    /// Accounting delta since the previous take_delta() call — the per-poll
    /// increments Emulator::poll feeds into the ring.* telemetry. `depth`
    /// in the returned struct is the current absolute backlog.
    RingStats take_delta();

private:
    // unique_ptr slots keep QueuePair (whose rings are non-movable because
    // of the alignas'd atomics) stable while the dispatcher itself stays
    // movable.
    std::vector<std::unique_ptr<QueuePair>> queues_;
    std::vector<FieldId> steer_;
    std::vector<std::uint32_t> reta_;  ///< empty = hash % queues
    std::uint64_t steer_epoch_ = 0;
    std::uint64_t seq_ = 0;
    RingStats accounted_;  ///< totals already reported via take_delta()
};

}  // namespace pipeleon::sim
