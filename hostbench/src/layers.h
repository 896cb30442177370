// hostbench/src/layers.h — per-layer costs measured by replaying the
// workload's own inputs through a layer's public functions, after the timed
// phase, on the state the workload left behind.
#pragma once

#include "workloads.h"

namespace hostbench {

struct LayerReplay {
    double rss_hash_ns_per_pkt = 0.0;  ///< MatchBatcher::rss_group, steering tuple
    double key_hash_ns = 0.0;          ///< MatchBatcher::key_group, front-cache key
    double tiered_lookup_ns = 0.0;     ///< standalone TieredStore, one shard's keys
    double exact_lookup_ns = 0.0;      ///< TableState::lookup, exact tables
    double ternary_lookup_ns = 0.0;    ///< TableState::lookup, ternary tables
    double insert_us = 0.0;            ///< TableState::insert at the live size
    double rebuild_us = 0.0;           ///< TableState::set_entries at the live size
    double set_entries_us = 0.0;       ///< Emulator::set_entries at the live size
    double pool_run_us_p50 = 0.0;      ///< WorkerPool::run of an empty job
    double pool_run_us_p99 = 0.0;
};

/// Runs every replay against `rig` (its deployed program, tables and
/// steering) with the workload's input pool.
LayerReplay replay_layers(const Workload& workload, Rig& rig);

}  // namespace hostbench
