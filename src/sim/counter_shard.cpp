#include "sim/counter_shard.h"

#include <algorithm>

#include "sim/flow_hash.h"
#include "telemetry/telemetry.h"

namespace pipeleon::sim {

std::uint64_t& ReplayCounterTable::slot_for(std::uint64_t key) {
    const std::uint64_t stored = key + 1;
    std::size_t mask = slots_.size() - 1;
    // The flow hash's finisher avalanches the packed key, so linear probing
    // spreads even though cache/origin ids are tiny sequential integers.
    std::size_t i = static_cast<std::size_t>(flow_hash_finish(key)) & mask;
    while (true) {
        Slot& s = slots_[i];
        if (s.key_plus_one == stored) return s.count;
        if (s.key_plus_one == 0) {
            s.key_plus_one = stored;
            ++size_;
            return s.count;
        }
        i = (i + 1) & mask;
    }
}

void ReplayCounterTable::add(std::uint64_t key, std::uint64_t delta) {
    if (slots_.empty() || size_ * 10 >= slots_.size() * 7) grow();
    slot_for(key) += delta;
}

void ReplayCounterTable::prefetch(std::uint64_t key) const {
    if (!slots_.empty()) {
        const std::size_t mask = slots_.size() - 1;
        __builtin_prefetch(
            &slots_[static_cast<std::size_t>(flow_hash_finish(key)) & mask]);
    }
}

void ReplayCounterTable::grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
    size_ = 0;
    for (const Slot& s : old) {
        if (s.key_plus_one != 0) slot_for(s.key_plus_one - 1) = s.count;
    }
}

void ReplayCounterTable::clear() {
    // Zero in place: shards call clear() once per batch, and dropping the
    // slot array here would put a reallocation on every batch's first
    // replayed cache hit.
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
}

void CounterShard::reset_for(const ir::Program& program) {
    const std::size_t n = program.node_count();
    // Zero in place when the shape already matches — worker shards are reset
    // once per batch, and reallocating every per-node vector each time would
    // put an allocator call on the batch path.
    if (action_hits.size() == n && misses.size() == n) {
        bool shape_ok = true;
        for (const ir::Node& node : program.nodes()) {
            auto i = static_cast<std::size_t>(node.id);
            std::size_t want = node.is_table() ? node.table.actions.size() : 0;
            if (action_hits[i].size() != want) {
                shape_ok = false;
                break;
            }
        }
        if (shape_ok) {
            for (auto& v : action_hits) std::fill(v.begin(), v.end(), 0);
            std::fill(misses.begin(), misses.end(), 0);
            std::fill(branch_true.begin(), branch_true.end(), 0);
            std::fill(branch_false.begin(), branch_false.end(), 0);
            std::fill(cache_hits.begin(), cache_hits.end(), 0);
            std::fill(cache_misses.begin(), cache_misses.end(), 0);
            replays.clear();
            latency = util::RunningStats{};
            if constexpr (telemetry::kEnabled) latency_hist.reset();
            packets_total = 0;
            packets_dropped = 0;
            return;
        }
    }
    action_hits.assign(n, {});
    for (const ir::Node& node : program.nodes()) {
        if (node.is_table()) {
            action_hits[static_cast<std::size_t>(node.id)].assign(
                node.table.actions.size(), 0);
        }
    }
    misses.assign(n, 0);
    branch_true.assign(n, 0);
    branch_false.assign(n, 0);
    cache_hits.assign(n, 0);
    cache_misses.assign(n, 0);
    replays.clear();
    latency = util::RunningStats{};
    if constexpr (telemetry::kEnabled) latency_hist.reset();
    packets_total = 0;
    packets_dropped = 0;
}

void CounterShard::absorb(const CounterShard& other) {
    for (std::size_t i = 0; i < action_hits.size() && i < other.action_hits.size();
         ++i) {
        for (std::size_t a = 0;
             a < action_hits[i].size() && a < other.action_hits[i].size(); ++a) {
            action_hits[i][a] += other.action_hits[i][a];
        }
    }
    auto add_vec = [](std::vector<std::uint64_t>& dst,
                      const std::vector<std::uint64_t>& src) {
        for (std::size_t i = 0; i < dst.size() && i < src.size(); ++i) {
            dst[i] += src[i];
        }
    };
    add_vec(misses, other.misses);
    add_vec(branch_true, other.branch_true);
    add_vec(branch_false, other.branch_false);
    add_vec(cache_hits, other.cache_hits);
    add_vec(cache_misses, other.cache_misses);
    other.replays.for_each(
        [this](std::uint64_t key, std::uint64_t count) { replays.add(key, count); });
    latency.merge(other.latency);
    if constexpr (telemetry::kEnabled) latency_hist.merge(other.latency_hist);
    packets_total += other.packets_total;
    packets_dropped += other.packets_dropped;
}

}  // namespace pipeleon::sim
