#include "sim/counter_shard.h"

namespace pipeleon::sim {

void CounterShard::reset_for(const ir::Program& program,
                             std::size_t replay_slots) {
    const std::size_t n = program.node_count();
    // assign() zeroes in place once the capacity is there: worker shards
    // are reset once per batch, and an allocator call here would sit on the
    // batch path.
    action_hits.resize(n);
    for (const ir::Node& node : program.nodes()) {
        action_hits[static_cast<std::size_t>(node.id)].assign(
            node.is_table() ? node.table.actions.size() : 0, 0);
    }
    misses.assign(n, 0);
    branch_true.assign(n, 0);
    branch_false.assign(n, 0);
    cache_hits.assign(n, 0);
    cache_misses.assign(n, 0);
    replays.assign(replay_slots, 0);
    latency = util::RunningStats{};
    latency_hist.reset();
    packets_total = 0;
    packets_dropped = 0;
}

void CounterShard::absorb(const CounterShard& other) {
    auto add_vec = [](std::vector<std::uint64_t>& dst,
                      const std::vector<std::uint64_t>& src) {
        for (std::size_t i = 0; i < dst.size() && i < src.size(); ++i) {
            dst[i] += src[i];
        }
    };
    for (std::size_t i = 0; i < action_hits.size() && i < other.action_hits.size();
         ++i) {
        add_vec(action_hits[i], other.action_hits[i]);
    }
    add_vec(misses, other.misses);
    add_vec(branch_true, other.branch_true);
    add_vec(branch_false, other.branch_false);
    add_vec(cache_hits, other.cache_hits);
    add_vec(cache_misses, other.cache_misses);
    add_vec(replays, other.replays);
    latency.merge(other.latency);
    latency_hist.merge(other.latency_hist);
    packets_total += other.packets_total;
    packets_dropped += other.packets_dropped;
}

}  // namespace pipeleon::sim
