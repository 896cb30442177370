// sim/emulator.h — the run-to-completion SmartNIC emulator. This is our
// stand-in for the paper's three targets: it executes the (optimized) IR
// directly, charging emulated cycles according to the active NicModel — m
// hash probes per key match, one L_act per action primitive, branch cost,
// counter-update cost when instrumented, CPU-core slowdown, and migration
// cost on ASIC<->CPU crossings. Flow caches learn entries on misses (LRU +
// insertion rate limiting) and replay recorded outcomes on hits. The
// emulator exposes P4-counter readings (RawCounters) and supports live
// reconfiguration (or reflash downtime, per NicModel).
//
// Data plane (DESIGN.md §7, §12). Assumptions, referred to by name:
//
//   INGRESS: every batch enters through descriptor rings — make_rings()
//            builds an RssDispatcher, the producer dispatches into its RX
//            queues, and poll() runs each queue's lane and reaps its TX
//            ring. Same flow -> same queue -> same worker, always; each
//            worker owns a cache shard and a private CounterShard (no
//            hot-path atomics), merged in worker order at the poll's end.
//   ORACLE:  process(Packet&) runs one packet on the calling thread and is
//            the reference every ring mode is tested against. A one-worker
//            poll is bit-identical to a process() loop; parallel polls
//            match its integer counters.
//   NOWANT:  we do not want the following:
//            - caller-built batches handed straight to the engine
//            - a switch that turns the group-of-8 probe pipeline off
//            - per-call steering plans (the dispatcher steers on arrival)
//            - a second flow hash or a per-CPU kernel choice
//            - a deterministic flag (one worker is the in-order mode)
//            - a poll mode chosen by the dispatcher's shape (the worker
//              count alone picks it)
//            - a public cache-invalidation op (mirror() invalidates, as an
//              entry update does in §3.2.2)
//
// Control plane: every mutation (entry ops and their mirrored store
// changes, window resets, worker/instrumentation changes, program swaps)
// travels a typed MPSC ControlOp queue. A caller enqueues and returns
// immediately — it NEVER blocks on a batch in flight. Pending ops are
// drained, in enqueue order, at well-defined drain points:
//
//   - batch boundaries: poll() (and process()) drains the backlog before
//     any packet runs, so a batch observes either none or all of an op's
//     effect, never a torn one;
//   - any control call that finds the data plane idle: the caller drains
//     synchronously (single-threaded use is therefore exactly as strict as
//     the old mutex fence — mutate, then read, sees the mutation);
//   - an explicit drain_control() call.
//
// Mutators return their op's real result when applied synchronously and
// optimistic defaults when deferred behind a running batch (the op applies
// at the next boundary; ops addressing tables a queued swap removes degrade
// to no-ops). Every op that applies with `false`, whoever drained it, counts
// in ControlPlaneStats::ops_failed and the sim.control_op_failures counter.
// Reads (read_counters, entry_count, latency_stats, ...) lock
// out the data plane (they wait for an in-flight batch, never interleave
// with one) and observe the state as of the last drain point. Program swaps
// bump epoch(); an EpochSwap op carries the new program plus its remapped
// entry set so both install in one epoch transition.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ir/program.h"
#include "profile/counter_map.h"
#include "profile/profile.h"
#include "sim/batch.h"
#include "sim/control_queue.h"
#include "sim/counter_shard.h"
#include "sim/match_batch.h"
#include "sim/nic_model.h"
#include "sim/packet.h"
#include "sim/rss.h"
#include "sim/table_state.h"
#include "sim/tiered_store.h"
#include "sim/worker_pool.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "util/stats.h"

namespace pipeleon::sim {

class Emulator {
public:
    Emulator(NicModel model, ir::Program program,
             profile::InstrumentationConfig instrumentation = {});

    const ir::Program& program() const { return program_; }
    const NicModel& model() const { return model_; }
    FieldTable& fields() { return fields_; }
    const FieldTable& fields() const { return fields_; }
    const profile::InstrumentationConfig& instrumentation() const {
        return instrumentation_;
    }
    void set_instrumentation(profile::InstrumentationConfig cfg);

    // ------------------------------------------------------- control plane
    //
    // Every mutator below is an enqueue + opportunistic drain: the op joins
    // the MPSC queue and, when the data plane is idle, the caller drains the
    // backlog (its own op included) before returning — so the bool results
    // are exact in single-threaded use. Behind an in-flight batch the call
    // returns immediately with the optimistic default and the op applies at
    // the next batch boundary.

    /// Entry operations address *deployed* table names. (The runtime layer
    /// maps original-program API calls onto deployed tables, §2.3.)
    bool insert_entry(const std::string& table, const ir::TableEntry& entry);
    bool delete_entry(const std::string& table,
                      const std::vector<ir::FieldMatch>& key);
    bool modify_entry(const std::string& table, const ir::TableEntry& entry);
    /// Bulk-replaces entries (deployment of merged tables).
    bool set_entries(const std::string& table,
                     std::vector<ir::TableEntry> entries);
    /// Mirrors one change of the runtime's original-space entry store
    /// (runtime::ApiMapper, §2.3) as ONE control op, so no batch runs
    /// between its parts: the deployed Original-role table named
    /// `change.table` takes the change in place — unchecked against its
    /// declared size, like set_entries, because the store is authoritative
    /// — each load in `change.merged` replaces that merged table's entries,
    /// and every flow cache covering the original table is cleared.
    void mirror(StoreChange change);
    std::size_t entry_count(const std::string& table) const;
    /// A deployed table's live entries (TableState::entries: not in
    /// insertion order once an entry was erased); nullptr for caches and
    /// unknown names.
    const std::vector<ir::TableEntry>* entries(const std::string& table) const;

    /// Number of live entries in the cache table's store (summed over all
    /// worker shards).
    std::size_t cache_size(const std::string& table) const;

    /// Applies every pending control op now (waits for an in-flight batch
    /// first). Returns the number of ops applied. Reads already observe all
    /// ops up to the last drain point; call this to force the epoch forward
    /// without pumping a batch.
    std::size_t drain_control();

    /// Ops enqueued but not yet applied.
    std::size_t control_pending() const { return queue_.depth(); }

    /// True while a batch is executing on the data plane (the window in
    /// which control ops defer instead of applying synchronously).
    bool batch_in_flight() const {
        return in_batch_.load(std::memory_order_acquire);
    }

    /// Control-plane pipeline observability (the micro_controlplane bench
    /// and the stress tests read these; all counters are monotonic).
    struct ControlPlaneStats {
        std::uint64_t ops_submitted = 0;     ///< total ops pushed
        std::uint64_t ops_applied_sync = 0;  ///< drained by their submitter
        std::uint64_t ops_deferred = 0;      ///< returned before application
        std::uint64_t ops_drained = 0;       ///< total ops applied
        std::uint64_t ops_failed = 0;        ///< applied ops that returned false
        std::size_t queue_depth = 0;         ///< pending right now
        std::size_t max_queue_depth = 0;     ///< backlog high-water mark
        std::uint64_t epoch = 0;             ///< program swaps applied
    };
    ControlPlaneStats control_stats() const;

    /// The deployment epoch: bumped by every applied program swap
    /// (reconfigure, reconfigure_incremental, apply_epoch, queued Swap ops).
    std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

    // ---------------------------------------------------------- data plane

    /// Runs the packet to completion; mutates the packet's fields. The
    /// ORACLE: the scalar reference for every ring mode.
    ProcessResult process(Packet& packet);

    // -------------------------------------------------- descriptor-ring I/O
    //
    // The NIC-realistic front end (ISSUE 6): producers enqueue packets into
    // per-worker RX rings through the RSS dispatcher (drop-on-overflow,
    // never blocking), and poll() services the rings — each worker drains
    // its own RX queue run-to-completion and posts completions to its TX
    // ring, which the driver thread reaps. Batch size is ring occupancy,
    // not a caller-chosen count.

    /// Builds a dispatcher wired to this emulator: one queue per worker,
    /// steering by the same flow hash as steer_worker(). Rebuild it after a
    /// worker-count change to spread traffic over the new workers.
    RssDispatcher make_rings(const RingConfig& cfg = {}) const;

    /// Services the rings once. A poll is a batch boundary: the control
    /// backlog drains before any descriptor is consumed (ring-drain
    /// boundary). With one worker, every queue then runs in order on the
    /// calling thread, exactly like a process() loop. With W > 1 workers,
    /// lane w serves queues w, w+W, w+2W, ... in parallel on the worker
    /// pool (the calling thread runs a lane too, see sim/worker_pool.h);
    /// a dispatcher built before a worker-count change keeps one consumer
    /// per queue, and each flow keeps its queue and so its cache shard.
    /// `cycle_budget > 0` bounds the emulated cycles spent (split evenly
    /// across workers). A lane also stops while its queue's TX ring is
    /// full. Unconsumed descriptors stay queued for the next poll.
    /// Completions land in `out.results` in reap order (queue-major, FIFO
    /// within a queue).
    void poll(RssDispatcher& io, BatchResult& out, double cycle_budget = 0.0);
    BatchResult poll(RssDispatcher& io, double cycle_budget = 0.0);

    // ------------------------------------------------------------- workers

    /// Sets the number of data-plane workers, clamped to [1, model().cores]
    /// (a NIC cannot run more run-to-completion pipelines than it has
    /// cores). Worker cache shards beyond the first start cold; shard 0
    /// stays warm, so shrinking back to one worker keeps the scalar path's
    /// cache. Fenced like any control-plane call.
    void set_worker_count(int workers);
    int worker_count() const { return workers_; }

    /// The worker a packet's flow steers to (stable across batches: it
    /// depends only on the packet's key-field values and the worker count).
    int steer_worker(const Packet& packet) const;

    /// The host topology this emulator pins against (detected once at
    /// construction; synthetic single-node fallback off-Linux). Each worker
    /// thread pins to a CPU picked locality-first from it, and its counter
    /// shard / cache shard / scratch are first-touched from that CPU (the
    /// last lane's from the calling thread, which runs that lane itself;
    /// see sim/worker_pool.h).
    const util::Topology& topology() const { return topology_; }

    /// Workers whose affinity call succeeded (0 with no pool or pinning
    /// off). Settles once the pool has run its warm pass.
    /// PIPELEON_PIN_WORKERS=0 in the environment turns pinning off; the
    /// pool reads it whenever a worker-count change builds one.
    int pinned_workers() const;

    // -------------------------------------------------------- virtual time
    //
    // Under the control lock: a control caller that finds the data plane
    // idle drains on its own thread, and the drain reads the clock (window
    // start) and moves it (reflash downtime).

    double now_seconds() const;
    void set_time(double seconds);
    void advance_time(double dt);

    // ------------------------------------------------ measurement / window

    /// Starts a fresh measurement window: zeroes all P4 counters, latency
    /// stats, and per-table update counts.
    void begin_window();

    /// Exports the window's counters. Sampled instrumentation counters are
    /// scaled back by 1/sampling_rate so probabilities and rates read true.
    profile::RawCounters read_counters() const;

    /// Ground-truth per-packet latency over the window (cycles). Returns a
    /// snapshot taken under the control lock — safe to hold across a
    /// concurrent batch (epoch semantics: state as of the last drain point).
    util::RunningStats latency_stats() const;

    /// The same window's per-packet latency as an HDR-style histogram
    /// (percentiles within ~3% relative error). Copy taken under the control
    /// lock, same epoch semantics as latency_stats().
    telemetry::LatencyHistogram latency_histogram() const;

    // ------------------------------------------------------------ telemetry

    /// Lifetime metrics registry (sim.* names: packets/drops/batches/
    /// control_ops/epochs counters, workers gauge, batch_wall_ns and
    /// batch_cycles histograms; the ring.* and tier.* families). The
    /// emulator writes it at poll boundaries only. Register extra app
    /// metrics freely, from any thread, while polls run.
    telemetry::MetricsRegistry& metrics() { return metrics_; }

    /// Waits out an in-flight poll and returns a snapshot of the registry
    /// as of the last poll boundary.
    telemetry::MetricsSnapshot telemetry_snapshot() const;

    /// Ground-truth totals (not subject to sampling).
    std::uint64_t packets_processed() const { return counters_.packets_total; }
    std::uint64_t packets_dropped() const { return counters_.packets_dropped; }

    /// Converts an average packet latency into aggregate Gbps given the
    /// model's clock, core count, and line rate.
    double throughput_gbps(double avg_cycles, double packet_bytes = 512.0) const;

    // ----------------------------------------------------- reconfiguration

    /// Deploys a new program. Entries of same-named tables with identical
    /// keys survive; caches start cold; merged tables start empty (the
    /// runtime deployer installs their cross-product entries). Counters are
    /// re-sized and zeroed (read them first). Returns the service downtime
    /// in seconds (0 on live-reconfigurable targets).
    double reconfigure(ir::Program new_program);

    /// Result of an incremental deployment.
    struct ReconfigureStats {
        std::size_t tables_total = 0;
        std::size_t tables_changed = 0;  ///< added, removed, or redefined
        std::size_t caches_kept_warm = 0;
        double downtime_s = 0.0;
    };

    /// Incremental deployment (§6 "compile and deploy updates
    /// incrementally", after [48, 63, 64]): like reconfigure(), but flow
    /// caches whose definition (name, keys, origin set, config) is unchanged
    /// keep their learned entries, and on reflash targets the downtime
    /// scales with the fraction of tables that actually changed.
    ReconfigureStats reconfigure_incremental(ir::Program new_program);

    /// Installs a program *and* its remapped entry sets in one epoch
    /// transition — the data plane never observes the new layout with stale
    /// or missing entries. Drains synchronously when the data plane is idle;
    /// otherwise the swap applies at the next batch boundary and the
    /// returned stats carry only downtime_s = 0 (live path).
    ReconfigureStats apply_epoch(EpochSwap swap);

    /// Fire-and-forget apply_epoch: always just enqueues (even when idle).
    /// Returns the op's queue sequence number.
    std::uint64_t queue_epoch(EpochSwap swap);

private:
    struct CompiledPrimitive {
        ir::PrimitiveKind kind;
        FieldId dst = kNoField;
        FieldId src = kNoField;
        std::uint64_t value = 0;
        int arg_index = -1;
    };
    /// An action as a step runs it: its primitives without the NoOps, the
    /// charge `n × l_act × scale` (n counts the IR primitives, NoOps
    /// included; scale is the owning node's), and the successor it selects.
    struct CompiledAction {
        std::vector<CompiledPrimitive> primitives;
        double cost = 0.0;
        ir::NodeId next = ir::kNoNode;
        bool drops = false;
    };
    /// A flow cache whose origin set includes a table, and where the
    /// table's part of that cache's replay block starts (relative to the
    /// block's first slot; the part's first slot is the miss).
    struct Cover {
        ir::NodeId cache = ir::kNoNode;
        std::uint32_t part = 0;
    };
    /// One step of the epoch's compiled program, indexed by node id.
    /// compile() resolves everything the IR fixes for the epoch, so
    /// run_packet never reads ir::Program or ir::Node: the node's kind and
    /// core, its charges, its successors, its table state and a branch's
    /// comparison. Each charge is the expression the walk used to evaluate
    /// per packet, over the same operands in the same order, so the cycles
    /// keep their bits. A table's probe stays `(m × l_mat) × scale` at run
    /// time because m moves with the entries of LPM and ternary tables.
    struct CompiledNode {
        enum class Kind : std::uint8_t { Branch, Table, Cache };
        Kind kind = Kind::Table;
        ir::CoreKind core = ir::CoreKind::Asic;
        /// MergedCache-role table: its hits and misses also count as cache
        /// hits and misses.
        bool merged_cache = false;
        double counter = 0.0;  ///< l_counter × scale, charged when sampled
        double branch = 0.0;   ///< l_branch × scale
        double l_mat = 0.0;    ///< resolved for the node's memory tier
        double scale = 1.0;    ///< cpu_slowdown on a CPU core, else 1
        double probe = 0.0;    ///< l_mat × scale: the cache's tier-0 probe
        /// Branch: taken. Cache: hit.
        ir::NodeId next = ir::kNoNode;
        /// Branch: not taken. Table: miss (the default action's successor,
        /// or the miss edge without a default). Cache: miss.
        ir::NodeId miss_next = ir::kNoNode;
        /// Table: the default action a miss runs; null without a default.
        const CompiledAction* miss_action = nullptr;
        TableState* state = nullptr;  ///< non-cache tables
        /// Branch: taken when `field(branch_field) <branch_op> branch_value`.
        FieldId branch_field = kNoField;
        ir::CmpOp branch_op = ir::CmpOp::Eq;
        std::uint64_t branch_value = 0;
        std::vector<FieldId> key_fields;
        std::vector<CompiledAction> actions;
        std::vector<Cover> covered_by;
        /// Cache nodes: the first slot of the cache's replay block.
        std::uint32_t first_slot = 0;
    };
    /// One replay slot of the epoch: an (origin table, action) outcome the
    /// cache can record, action -1 being the origin's miss. `apply` is what
    /// a hit replays for it: the action, the origin's default for a miss,
    /// or nothing (null) for a miss of a table without a default. A replay
    /// is charged at the cache's scale, so `cost` is the action's
    /// `n × l_act × scale` with the cache's scale.
    struct ReplaySlot {
        ir::NodeId cache = ir::kNoNode;
        ir::NodeId origin = ir::kNoNode;
        int action = -1;
        const CompiledAction* apply = nullptr;
        double cost = 0.0;
    };

    /// One worker's set of per-node cache stores (index = node id). Each
    /// store is the hierarchical SRAM -> DRAM -> host TieredStore; cache
    /// tables without a tier config run it in single-tier mode, which is
    /// bit-identical to the bare flat-LRU CacheStore.
    using CacheSet = std::vector<std::unique_ptr<TieredStore>>;

    /// A pending cache fill collected while a packet walks the pipeline:
    /// the missed cache node, the missed key, and the replay run recorded
    /// from the covered tables downstream.
    struct FillCtx {
        ir::NodeId cache_node;
        KeyVec key;
        CacheStore::CacheEntry entry;
    };

    /// Per-worker reusable scratch (ISSUE 5): the key gather buffer and the
    /// pending-fill list run_packet used to construct per packet. Owned and
    /// first-touched by the worker, so the hot path performs no heap
    /// allocation on cache hits (misses still allocate for the fill copy).
    /// A cache line of its own: every node visit writes `key`, and lanes
    /// run in parallel.
    struct alignas(64) WorkerScratch {
        KeyVec key;
        std::vector<FillCtx> fills;
    };

    /// A precomputed probe hint for run_packet (batched pipeline): when the
    /// walk reaches `node`, the front cache's lookup reuses `key_hash`
    /// (already computed by the group's hash pass, slot already prefetched)
    /// instead of hashing the gathered key again. Valid only for the
    /// program's root cache node — fields are unmutated before the first
    /// node, so the gathered key is identical.
    struct ProbeHint {
        ir::NodeId node = ir::kNoNode;
        std::uint64_t key_hash = 0;
    };

    void compile();
    CacheSet make_cache_set() const;
    /// Batch boundary for the tiered stores (no-op unless some cache table
    /// has lower tiers enabled): flushes partial DMA batches, applies
    /// pending promotions, and folds tier.* metric deltas. Runs under
    /// control_mu_ with the workers quiesced.
    void flush_tier_stores_unlocked();
    /// Sums the monotonic TierStats over every live store and the stores a
    /// worker-count shrink dropped.
    TierStats tier_totals_unlocked() const;
    /// Sizes per-worker state (cache shards, counter shards, scratch) to
    /// workers_. Existing cache shards (and their warm entries) are kept;
    /// new shards are constructed by the thread that runs their lane when
    /// the pool exists, so the backing pages are first-touched on that
    /// thread's CPU/NUMA node (the pinned worker's, or the caller's for the
    /// last lane).
    void populate_worker_state();
    /// Builds or resets worker `w`'s shard state; runs on lane w's runner
    /// when called through the pool's warm pass.
    void init_worker_state(int w);

    /// True when packet `seq` is sampled: every sample_period_-th packet.
    bool sampled_for(std::uint64_t seq) const {
        return sample_period_ != 0 && seq % sample_period_ == 0;
    }
    /// The scalar per-packet loop, parameterized over the counter shard,
    /// cache shard, and scratch it uses. Thread-safe for distinct shards.
    ProcessResult run_packet(Packet& packet, bool sampled, CounterShard& counters,
                             CacheSet& caches, WorkerScratch& scratch,
                             const ProbeHint* hint = nullptr);
    /// Services one RX queue with worker `w`'s cache shard and scratch:
    /// groups of up to kHashGroup descriptors are peeked, their root-cache
    /// probes hashed and prefetched when the program root is a cache, then
    /// each packet runs into `counters` and posts its completion. Sampling numbers come from `*seq` (bumped per packet)
    /// when `seq` is set, else from the descriptors' arrival seqs. Stops
    /// when the RX ring is empty, the TX ring is full, or `used` reaches
    /// `budget` (> 0); the packet that reaches it still runs.
    void service_lane(QueuePair& qp, std::size_t w, CounterShard& counters,
                      std::uint64_t* seq, double budget, double& used);
    void begin_window_unlocked();
    /// Deploys `new_program` and installs `loads`. Same-named tables the
    /// loads do not cover keep their compatible entries, in insertion order.
    double reconfigure_unlocked(ir::Program new_program,
                                std::vector<ir::EntryLoad> loads);
    ReconfigureStats reconfigure_incremental_unlocked(
        ir::Program new_program, std::vector<ir::EntryLoad> loads);
    ReconfigureStats apply_epoch_unlocked(EpochSwap swap);

    bool insert_entry_unlocked(const std::string& table,
                               const ir::TableEntry& entry);
    bool delete_entry_unlocked(const std::string& table,
                               const std::vector<ir::FieldMatch>& key);
    bool modify_entry_unlocked(const std::string& table,
                               const ir::TableEntry& entry);
    bool set_entries_unlocked(const std::string& table,
                              std::vector<ir::TableEntry> entries);
    /// Clears every flow cache whose origin set contains the table, across
    /// all worker shards: "an update in any of the original tables will
    /// invalidate the entire cache" (§3.2.2).
    void invalidate_caches_unlocked(const std::string& origin_table);
    void mirror_unlocked(StoreChange& change);
    void set_worker_count_unlocked(int workers);

    /// Enqueues the op, then opportunistically drains: when control_mu_ is
    /// free (no batch in flight) the caller applies the whole backlog —
    /// including its own op — and returns that op's real result; when a
    /// batch holds the lock the op stays queued and `true` comes back.
    /// Never blocks on the data plane.
    bool submit(ControlOp op, ReconfigureStats* swap_result = nullptr);

    /// Applies every queued op in enqueue order. Caller holds control_mu_.
    /// When own_seq is set, the matching op's result lands in *own_ok /
    /// *own_swap; every failed op counts in ops_failed_.
    /// Returns the number of ops applied.
    std::size_t drain_queue_unlocked(const std::uint64_t* own_seq = nullptr,
                                     bool* own_ok = nullptr,
                                     ReconfigureStats* own_swap = nullptr);
    /// Applies one op. Returns false only for a failed entry op.
    bool apply_op_unlocked(ControlOp& op, ReconfigureStats* swap_out);

    NicModel model_;
    ir::Program program_;
    profile::InstrumentationConfig instrumentation_;
    /// Sampling period of instrumentation_: 0 samples nothing, 1 every
    /// packet, n every n-th. Set wherever instrumentation_ is.
    std::uint64_t sample_period_ = 0;
    FieldTable fields_;

    /// The epoch's step program (index = node id); the walk enters it at
    /// program_.root().
    std::vector<CompiledNode> compiled_;
    /// The epoch's replay slots: each cache's block, in node order, laid out
    /// by origin_tables rank with the miss slot first in each origin's part.
    /// Cache entries name slots relative to their block, so a warm cache
    /// stays valid across an epoch that keeps its block's layout.
    std::vector<ReplaySlot> replay_slots_;
    std::vector<std::unique_ptr<TableState>> tables_;  // per node (may be null)
    /// Per-worker cache stores: cache_shards_[worker][node]. Shard 0 is the
    /// scalar path's cache; flows are pinned to shards by the steering hash,
    /// so each shard's LRU evolves deterministically.
    std::vector<CacheSet> cache_shards_;

    /// Merged window counters (sampled when instrumentation.sampling_rate
    /// < 1). Workers accumulate into worker_counters_ and merge here.
    CounterShard counters_;
    /// A worker's shard on cache lines of its own: the shards sit side by
    /// side in worker_counters_ and parallel lanes write them per node.
    /// (Aligning CounterShard itself would over-align the Emulator, which
    /// holds counters_.)
    struct alignas(64) LaneCounters {
        CounterShard shard;
    };
    std::vector<LaneCounters> worker_counters_;

    /// Lifetime telemetry, written under control_mu_ at poll boundaries
    /// from the folded shard totals.
    telemetry::MetricsRegistry metrics_;
    struct MetricIds {
        telemetry::MetricId packets = 0, drops = 0, batches = 0;
        telemetry::MetricId control_ops = 0, control_op_failures = 0;
        telemetry::MetricId epochs = 0;
        telemetry::MetricId workers_gauge = 0;
        telemetry::MetricId batch_wall_ns = 0, batch_cycles = 0;
        /// Descriptor-ring I/O (ISSUE 6): per-poll deltas from the serviced
        /// dispatcher, plus the RX backlog gauge and the per-poll drop-rate
        /// histogram (drops / offered, recorded when packets were offered).
        telemetry::MetricId ring_enqueued = 0, ring_dequeued = 0;
        telemetry::MetricId ring_dropped = 0;
        telemetry::MetricId ring_depth = 0;
        telemetry::MetricId ring_drop_rate = 0;
        /// Hierarchical flow-state memory (DESIGN.md §14): per-tier
        /// hit/miss/promote/demote/DMA counters, folded as deltas from the
        /// stores' monotonic TierStats at batch boundaries.
        telemetry::MetricId tier_lookups = 0;
        telemetry::MetricId tier_sram_hits = 0, tier_dram_hits = 0;
        telemetry::MetricId tier_host_hits = 0, tier_misses = 0;
        telemetry::MetricId tier_promotions = 0, tier_demotions = 0;
        telemetry::MetricId tier_drops = 0;
        telemetry::MetricId tier_dma_batches = 0, tier_dma_fetches = 0;
        telemetry::MetricId tier_cycles = 0;  ///< gauge: cumulative extra cycles
    } mid_;

    /// Union of every table's key fields — the emulator's RSS flow tuple.
    std::vector<FieldId> steer_fields_;

    /// NUMA-aware RSS indirection table (DESIGN.md §15): 128 buckets of
    /// contiguous equal-size blocks in node-major worker order, rebuilt by
    /// populate_worker_state(). Empty with one worker (plain modulo).
    /// make_rings() installs a copy on the dispatcher so ring dispatch and
    /// steer_worker() agree packet-for-packet.
    std::vector<std::uint32_t> reta_;
    /// The program's root cache node when it has one (the only node the
    /// group prefetch can target: fields are unmutated at the root), else
    /// ir::kNoNode — gates the batched probe pipeline per program.
    ir::NodeId front_cache_ = ir::kNoNode;

    /// Per-worker scratch, indexed like cache_shards_ / worker_counters_.
    std::vector<WorkerScratch> scratch_;

    /// True when any cache table of the deployed program has lower tiers
    /// enabled — gates the per-batch tier flush so single-tier programs pay
    /// nothing.
    bool has_tiered_ = false;
    /// Last tier totals folded into the tier.* metrics (delta baseline).
    TierStats tier_reported_;
    /// Lifetime stats of the shards a worker-count shrink dropped, kept in
    /// the totals so the tier.* counters never run backwards.
    TierStats tier_retired_;

    int workers_ = 1;
    util::Topology topology_ = util::Topology::detect();
    std::unique_ptr<WorkerPool> pool_;

    /// Serializes control-op application against in-flight batches. Callers
    /// never wait on it to *enqueue* — only to apply (submit try-locks) or
    /// to read.
    mutable std::mutex control_mu_;

    /// Pending control ops (the "update ring").
    ControlQueue queue_;
    std::atomic<std::uint64_t> ops_sync_{0};      ///< applied by submitter
    std::atomic<std::uint64_t> ops_deferred_{0};  ///< returned before apply
    std::atomic<std::uint64_t> ops_drained_{0};   ///< total applied
    std::atomic<std::uint64_t> ops_failed_{0};    ///< applied, returned false
    std::atomic<std::uint64_t> epoch_{0};         ///< program swaps applied
    std::atomic<bool> in_batch_{false};

    std::uint64_t packet_seq_ = 0;
    double clock_seconds_ = 0.0;
    double window_start_ = 0.0;
};

}  // namespace pipeleon::sim
