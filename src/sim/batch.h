// sim/batch.h — batched data-plane types. Real SmartNIC datapaths never
// process one packet per call: NIC drivers hand the cores descriptor rings,
// and an RSS hash spreads flows across cores. The rings are the emulator's
// only batch ingress (sim/rss.h): PacketBatch is a burst of parsed packets
// a producer dispatches into them, and BatchResult the per-packet
// completions one Emulator::poll reaps plus the aggregate the benches
// consume.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/packet.h"

namespace pipeleon::sim {

/// Outcome of processing one packet.
struct ProcessResult {
    double cycles = 0.0;
    bool dropped = false;
    int migrations = 0;
    int nodes_visited = 0;
    /// Cycles the packet waited in its RX ring before a worker picked it
    /// up, from the descriptor's enqueue timestamp. 0 from process() and for
    /// descriptors dispatched without a timestamp. Kept out of `cycles` (and
    /// the latency counters) so service latency matches process(); closed-
    /// loop benches add the two for sojourn time.
    double queue_cycles = 0.0;
};

/// A burst of packets for RssDispatcher::dispatch_batch, which copies each
/// into its queue's RX ring.
struct PacketBatch {
    std::vector<Packet> packets;

    PacketBatch() = default;
    explicit PacketBatch(std::size_t n) : packets(n) {}

    std::size_t size() const { return packets.size(); }
    bool empty() const { return packets.empty(); }
    void clear() { packets.clear(); }
    void reserve(std::size_t n) { packets.reserve(n); }
    void push_back(Packet p) { packets.push_back(std::move(p)); }

    Packet& operator[](std::size_t i) { return packets[i]; }
    const Packet& operator[](std::size_t i) const { return packets[i]; }

    auto begin() { return packets.begin(); }
    auto end() { return packets.end(); }
    auto begin() const { return packets.begin(); }
    auto end() const { return packets.end(); }
};

/// Per-packet completions of one poll (queue-major, FIFO within a queue)
/// plus its aggregates.
struct BatchResult {
    std::vector<ProcessResult> results;
    double total_cycles = 0.0;
    std::uint64_t dropped = 0;
    int workers_used = 1;
    /// Control ops drained at this batch's boundary, before its packets ran.
    std::uint64_t control_ops_applied = 0;
    /// RX overflow drops accounted to this poll, completions reaped, and RX
    /// backlog left behind (nonzero when a cycle budget or a full TX ring
    /// stopped a lane early).
    std::uint64_t ring_dropped = 0;
    std::uint64_t ring_completed = 0;
    std::uint64_t ring_backlog = 0;
};

}  // namespace pipeleon::sim
