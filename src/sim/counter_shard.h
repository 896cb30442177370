// sim/counter_shard.h — per-worker window counters. Each batch worker owns a
// private CounterShard and bumps plain (non-atomic) integers on the hot
// path, the way per-core P4 counters work on real multicore NICs; shards
// merge into the emulator's master shard at batch end, in worker order, so
// the merged values are deterministic. Cache replays count per replay slot:
// the emulator numbers the epoch's (cache, origin table, origin action)
// triples densely at compile time, so a replay bumps one vector cell.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ir/program.h"
#include "telemetry/histogram.h"
#include "util/stats.h"

namespace pipeleon::sim {

/// One worker's view of the measurement window: every per-node counter the
/// emulator keeps, plus latency/packet totals, all private to the worker
/// while a batch is in flight.
struct CounterShard {
    std::vector<std::vector<std::uint64_t>> action_hits;
    std::vector<std::uint64_t> misses;
    std::vector<std::uint64_t> branch_true, branch_false;
    std::vector<std::uint64_t> cache_hits, cache_misses;
    /// Cache replays, indexed by the epoch's replay slot.
    std::vector<std::uint64_t> replays;

    util::RunningStats latency;
    /// Per-packet emulated latency (cycles) bucketed HDR-style — recorded
    /// alongside `latency` on the hot path, merged shard-wise like every
    /// other counter.
    telemetry::LatencyHistogram latency_hist;
    std::uint64_t packets_total = 0;
    std::uint64_t packets_dropped = 0;

    /// Zeroes everything and sizes the per-node vectors for `program` and
    /// the replay counters for `replay_slots` slots.
    void reset_for(const ir::Program& program, std::size_t replay_slots);

    /// Adds `other` into this shard (counter sums, latency merge).
    void absorb(const CounterShard& other);
};

}  // namespace pipeleon::sim
