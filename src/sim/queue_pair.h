// sim/queue_pair.h — RX/TX descriptor queue pairs (ISSUE 6). Each worker
// owns one QueuePair, mirroring a NIC hardware queue pair: the RSS
// dispatcher produces parsed-packet descriptors into the RX ring, the
// worker consumes them run-to-completion and posts a completion record to
// the TX ring, and the driver thread reaps completions at poll boundaries.
// Both rings are SPSC (dispatcher -> worker on RX, worker -> driver on TX),
// so the whole I/O path needs no locks and no atomics beyond the ring
// indices.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/batch.h"
#include "sim/descriptor_ring.h"
#include "sim/packet.h"

namespace pipeleon::sim {

/// Ring sizing for make_rings(). Capacities round up to powers of two.
struct RingConfig {
    /// RX descriptors per queue. Bounds both the burst a queue absorbs and
    /// the worst-case queueing delay a packet can accumulate (a full ring of
    /// predecessors) — small rings shed early, large rings buffer deep.
    std::size_t rx_capacity = 1024;
    /// TX completion slots per queue; 0 = match rx_capacity. One poll
    /// completes at most this many descriptors per queue: a lane stops while
    /// its TX ring is full, and the rest stay queued as RX backlog.
    std::size_t tx_capacity = 0;
};

/// One RX descriptor: the parsed packet plus its arrival metadata. The seq
/// is the dispatcher's global arrival number (it keys the sampling decision,
/// like the scalar path's packet_seq_); enq_time is the virtual-clock
/// enqueue timestamp, or < 0 when the producer did not stamp one.
struct RxDesc {
    Packet packet;
    std::uint64_t seq = 0;
    double enq_time = -1.0;
};

/// One TX completion: the per-packet result, tagged with the RX seq.
struct TxCompletion {
    ProcessResult result;
    std::uint64_t seq = 0;
};

/// Aggregated ring accounting (summed over queues by the dispatcher).
struct RingStats {
    std::uint64_t enqueued = 0;  ///< descriptors accepted into RX
    std::uint64_t dequeued = 0;  ///< descriptors consumed from RX
    std::uint64_t dropped = 0;   ///< RX overflow drops (never blocked)
    std::uint64_t depth = 0;     ///< RX backlog right now

    /// Everything the producer ever presented.
    std::uint64_t offered() const { return enqueued + dropped; }
};

/// An RX/TX ring pair owned by one worker queue.
class QueuePair {
public:
    explicit QueuePair(const RingConfig& cfg);

    DescriptorRing<RxDesc>& rx() { return rx_; }
    const DescriptorRing<RxDesc>& rx() const { return rx_; }
    DescriptorRing<TxCompletion>& tx() { return tx_; }
    const DescriptorRing<TxCompletion>& tx() const { return tx_; }

    /// This pair's RX accounting snapshot.
    RingStats rx_stats() const;

private:
    DescriptorRing<RxDesc> rx_;
    DescriptorRing<TxCompletion> tx_;
};

}  // namespace pipeleon::sim
