#include "sim/rss.h"

#include <algorithm>

namespace pipeleon::sim {

std::uint64_t rss_hash(const Packet& packet, const FieldId* fields,
                       std::size_t n_fields) {
    return flow_hash(n_fields,
                     [&](std::size_t i) { return packet.get(fields[i]); });
}

RssDispatcher::RssDispatcher(std::size_t queues,
                             std::vector<FieldId> steer_fields,
                             const RingConfig& cfg)
    : steer_(std::move(steer_fields)) {
    if (queues == 0) queues = 1;
    queues_.reserve(queues);
    for (std::size_t i = 0; i < queues; ++i) {
        queues_.push_back(std::make_unique<QueuePair>(cfg));
    }
}

void RssDispatcher::set_steer_fields(std::vector<FieldId> fields,
                                     std::uint64_t epoch) {
    steer_ = std::move(fields);
    steer_epoch_ = epoch;
}

void RssDispatcher::set_steer_map(std::vector<std::uint32_t> reta) {
    reta_ = std::move(reta);
}

int RssDispatcher::dispatch(const Packet& packet, double now) {
    return dispatch_hashed(packet, rss_hash(packet, steer_.data(), steer_.size()),
                           now);
}

int RssDispatcher::dispatch_hashed(const Packet& packet, std::uint64_t h,
                                   double now) {
    std::size_t q = 0;
    if (queues_.size() > 1) {
        // RETA indirection when installed (clamped, so a table built for a
        // different queue count can never index out of range), plain modulo
        // otherwise.
        q = reta_.empty()
                ? static_cast<std::size_t>(
                      h % static_cast<std::uint64_t>(queues_.size()))
                : static_cast<std::size_t>(
                      reta_[static_cast<std::size_t>(h) & (reta_.size() - 1)]) %
                      queues_.size();
    }
    // Fill the ring slot in place: the slot packet's field vector reuses its
    // capacity, so a steady-state dispatch is allocation-free.
    const bool ok = queues_[q]->rx().try_emplace([&](RxDesc& d) {
        d.packet = packet;
        d.seq = seq_;
        d.enq_time = now;
    });
    ++seq_;  // a dropped packet still consumes an arrival number
    return ok ? static_cast<int>(q) : -1;
}

std::size_t RssDispatcher::dispatch_batch(const PacketBatch& batch, double now) {
    // Hash in groups of kHashGroup, then funnel each packet through the
    // single-packet path with its hash in hand — one hash per packet.
    std::size_t accepted = 0;
    std::uint64_t h[kHashGroup];
    const std::size_t n = batch.size();
    for (std::size_t i = 0; i < n; i += kHashGroup) {
        const std::size_t g = std::min(kHashGroup, n - i);
        hash_group(
            [&](std::size_t lane) -> const Packet& { return batch[i + lane]; },
            g, steer_.data(), steer_.size(), h);
        for (std::size_t lane = 0; lane < g; ++lane) {
            if (dispatch_hashed(batch[i + lane], h[lane], now) >= 0) ++accepted;
        }
    }
    return accepted;
}

RingStats RssDispatcher::stats() const {
    RingStats total;
    for (const auto& qp : queues_) {
        const RingStats s = qp->rx_stats();
        total.enqueued += s.enqueued;
        total.dequeued += s.dequeued;
        total.dropped += s.dropped;
        total.depth += s.depth;
    }
    return total;
}

RingStats RssDispatcher::take_delta() {
    const RingStats now = stats();
    RingStats delta;
    delta.enqueued = now.enqueued - accounted_.enqueued;
    delta.dequeued = now.dequeued - accounted_.dequeued;
    delta.dropped = now.dropped - accounted_.dropped;
    delta.depth = now.depth;  // absolute, not a delta
    accounted_ = now;
    return delta;
}

}  // namespace pipeleon::sim
