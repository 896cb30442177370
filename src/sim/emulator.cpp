#include "sim/emulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>

namespace pipeleon::sim {

using ir::kNoNode;
using ir::Node;
using ir::NodeId;
using ir::TableRole;

namespace {

/// The sampling period of `cfg` (Emulator::sample_period_).
std::uint64_t sample_period(const profile::InstrumentationConfig& cfg) {
    if (!cfg.enabled || cfg.sampling_rate <= 0.0) return 0;
    if (cfg.sampling_rate >= 1.0) return 1;
    const auto period =
        static_cast<std::uint64_t>(std::llround(1.0 / cfg.sampling_rate));
    return period == 0 ? 1 : period;
}

/// Runs an action's primitives (compile() dropped its NoOps) on the packet.
/// The caller charges the action's cost, one `+=` per action.
template <class Primitives>
inline void run_primitives(const Primitives& primitives, Packet& packet,
                           std::span<const std::uint64_t> args) {
    for (const auto& p : primitives) {
        std::uint64_t value = p.value;
        if (p.arg_index >= 0 &&
            static_cast<std::size_t>(p.arg_index) < args.size()) {
            value = args[static_cast<std::size_t>(p.arg_index)];
        }
        switch (p.kind) {
            case ir::PrimitiveKind::SetConst: packet.set(p.dst, value); break;
            case ir::PrimitiveKind::CopyField:
                packet.set(p.dst, packet.get(p.src));
                break;
            case ir::PrimitiveKind::AddConst:
                packet.set(p.dst, packet.get(p.dst) + value);
                break;
            case ir::PrimitiveKind::SubConst:
                packet.set(p.dst, packet.get(p.dst) - value);
                break;
            case ir::PrimitiveKind::Drop: packet.mark_dropped(); break;
            case ir::PrimitiveKind::Forward:
                packet.set_egress_port(value);
                break;
            case ir::PrimitiveKind::NoOp: break;
        }
    }
}

}  // namespace

Emulator::Emulator(NicModel model, ir::Program program,
                   profile::InstrumentationConfig instrumentation)
    : model_(std::move(model)),
      program_(std::move(program)),
      instrumentation_(instrumentation),
      sample_period_(sample_period(instrumentation)) {
    program_.validate();
    mid_.packets = metrics_.counter("sim.packets");
    mid_.drops = metrics_.counter("sim.drops");
    mid_.batches = metrics_.counter("sim.batches");
    mid_.control_ops = metrics_.counter("sim.control_ops");
    mid_.control_op_failures = metrics_.counter("sim.control_op_failures");
    mid_.epochs = metrics_.counter("sim.epochs");
    mid_.workers_gauge = metrics_.gauge("sim.workers");
    mid_.batch_wall_ns = metrics_.histogram("sim.batch_wall_ns");
    mid_.batch_cycles = metrics_.histogram("sim.batch_cycles");
    mid_.ring_enqueued = metrics_.counter("ring.enqueued");
    mid_.ring_dequeued = metrics_.counter("ring.dequeued");
    mid_.ring_dropped = metrics_.counter("ring.dropped");
    mid_.ring_depth = metrics_.gauge("ring.depth");
    mid_.ring_drop_rate = metrics_.histogram("ring.drop_rate");
    mid_.tier_lookups = metrics_.counter("tier.lookups");
    mid_.tier_sram_hits = metrics_.counter("tier.sram_hits");
    mid_.tier_dram_hits = metrics_.counter("tier.dram_hits");
    mid_.tier_host_hits = metrics_.counter("tier.host_hits");
    mid_.tier_misses = metrics_.counter("tier.misses");
    mid_.tier_promotions = metrics_.counter("tier.promotions");
    mid_.tier_demotions = metrics_.counter("tier.demotions");
    mid_.tier_drops = metrics_.counter("tier.drops");
    mid_.tier_dma_batches = metrics_.counter("tier.dma_batches");
    mid_.tier_dma_fetches = metrics_.counter("tier.dma_fetches");
    mid_.tier_cycles = metrics_.gauge("tier.cycles");
    metrics_.set_gauge(mid_.workers_gauge, static_cast<double>(workers_));
    compile();
    begin_window_unlocked();
}

void Emulator::compile() {
    const std::size_t n = program_.node_count();
    compiled_.assign(n, {});
    tables_.clear();
    tables_.resize(n);

    const cost::CostParams& costs = model_.costs;
    auto compile_action = [&](const ir::Action& a, double scale, NodeId next) {
        CompiledAction ca;
        ca.cost = static_cast<double>(a.primitives.size()) * costs.l_act * scale;
        ca.next = next;
        ca.drops = a.drops();
        for (const ir::Primitive& p : a.primitives) {
            if (p.kind == ir::PrimitiveKind::NoOp) continue;
            CompiledPrimitive cp;
            cp.kind = p.kind;
            cp.value = p.value;
            cp.arg_index = p.arg_index;
            if (!p.dst_field.empty()) cp.dst = fields_.intern(p.dst_field);
            if (!p.src_field.empty()) cp.src = fields_.intern(p.src_field);
            ca.primitives.push_back(cp);
        }
        return ca;
    };

    for (const Node& node : program_.nodes()) {
        CompiledNode& cn = compiled_[static_cast<std::size_t>(node.id)];
        cn.core = node.core;
        cn.scale = node.core == ir::CoreKind::Cpu ? costs.cpu_slowdown : 1.0;
        cn.counter = costs.l_counter * cn.scale;
        if (node.is_branch()) {
            cn.kind = CompiledNode::Kind::Branch;
            cn.branch = costs.l_branch * cn.scale;
            cn.branch_field = fields_.intern(node.cond.field);
            cn.branch_op = node.cond.op;
            cn.branch_value = node.cond.value;
            cn.next = node.true_next;
            cn.miss_next = node.false_next;
            continue;
        }
        const ir::Table& t = node.table;
        cn.l_mat = costs.l_mat;
        if (t.tier == ir::MemTier::Fast && costs.l_mat_fast > 0.0) {
            cn.l_mat = costs.l_mat_fast;
        } else if (t.tier == ir::MemTier::Host && costs.l_tier_host > 0.0) {
            // A table placed in host memory pays the PCIe crossing on every
            // probe (no DMA batching for table state: entries are fetched on
            // demand).
            cn.l_mat = costs.l_mat + costs.l_tier_host;
        }
        cn.probe = cn.l_mat * cn.scale;
        for (const ir::MatchKey& k : t.keys) {
            cn.key_fields.push_back(fields_.intern(k.field));
        }
        for (std::size_t a = 0; a < t.actions.size(); ++a) {
            cn.actions.push_back(compile_action(
                t.actions[a], cn.scale, node.next_for_action(static_cast<int>(a))));
        }
        if (t.role == TableRole::Cache) {
            cn.kind = CompiledNode::Kind::Cache;
            cn.next = node.next_by_action.empty() ? kNoNode : node.next_by_action[0];
            cn.miss_next = node.miss_next;
            continue;
        }
        cn.merged_cache = t.role == TableRole::MergedCache;
        if (t.default_action >= 0) {
            cn.miss_action = &cn.actions[static_cast<std::size_t>(t.default_action)];
            cn.miss_next = node.next_for_action(t.default_action);
        } else {
            cn.miss_next = node.miss_next;
        }
        tables_[static_cast<std::size_t>(node.id)] = std::make_unique<TableState>(t);
        cn.state = tables_[static_cast<std::size_t>(node.id)].get();
    }

    // Replay slots: each cache's block holds, per deployed origin table in
    // origin_tables order, the table's miss slot and one slot per action.
    // Defaults resolve here, once per epoch, instead of on every hit.
    replay_slots_.clear();
    for (const Node& node : program_.nodes()) {
        if (!node.is_table() || node.table.role != TableRole::Cache) continue;
        CompiledNode& cache = compiled_[static_cast<std::size_t>(node.id)];
        cache.first_slot = static_cast<std::uint32_t>(replay_slots_.size());
        for (const std::string& origin : node.table.origin_tables) {
            const NodeId covered = program_.find_table(origin);
            if (covered == kNoNode) continue;
            CompiledNode& cn = compiled_[static_cast<std::size_t>(covered)];
            const ir::Table& t = program_.node(covered).table;
            cn.covered_by.push_back(Cover{
                node.id, static_cast<std::uint32_t>(replay_slots_.size()) -
                             cache.first_slot});
            // A replay runs at the cache's scale, not the origin's.
            auto slot = [&](int action) {
                const int a = action >= 0 ? action : t.default_action;
                if (a < 0) return ReplaySlot{node.id, covered, action, nullptr, 0.0};
                const ir::Action& ia = t.actions[static_cast<std::size_t>(a)];
                return ReplaySlot{
                    node.id, covered, action, &cn.actions[static_cast<std::size_t>(a)],
                    static_cast<double>(ia.primitives.size()) * costs.l_act *
                        cache.scale};
            };
            replay_slots_.push_back(slot(-1));
            for (std::size_t a = 0; a < cn.actions.size(); ++a) {
                replay_slots_.push_back(slot(static_cast<int>(a)));
            }
        }
    }

    // The steering tuple: the union of every table's key fields. Packets of
    // one flow agree on all of them, so the RSS hash pins the flow to one
    // worker shard.
    steer_fields_.clear();
    for (const CompiledNode& cn : compiled_) {
        steer_fields_.insert(steer_fields_.end(), cn.key_fields.begin(),
                             cn.key_fields.end());
    }
    std::sort(steer_fields_.begin(), steer_fields_.end());
    steer_fields_.erase(std::unique(steer_fields_.begin(), steer_fields_.end()),
                        steer_fields_.end());

    // Batched match pipeline (DESIGN.md §15): the group prefetch can only
    // target the program's *root* node — fields are unmutated before the
    // first node, so the key gathered up front equals the key run_packet
    // gathers when the walk arrives. A root cache table with a non-empty key
    // enables the pipeline for this program.
    front_cache_ = kNoNode;
    if (program_.root() != kNoNode) {
        const CompiledNode& root = compiled_[static_cast<std::size_t>(program_.root())];
        if (root.kind == CompiledNode::Kind::Cache && !root.key_fields.empty()) {
            front_cache_ = program_.root();
        }
    }

    // Hierarchical memory: does any deployed cache have lower tiers?
    has_tiered_ = false;
    for (const Node& node : program_.nodes()) {
        if (node.is_table() && node.table.role == TableRole::Cache &&
            node.table.cache.tiers.enabled()) {
            has_tiered_ = true;
            break;
        }
    }

    // Every shard starts cold on a (re)compile; the rebuild happens on the
    // owning workers (first touch) when the pool exists. Tier metric deltas
    // restart from the fresh stores' zeroed stats.
    cache_shards_.clear();
    tier_reported_ = TierStats{};
    tier_retired_ = TierStats{};
    populate_worker_state();
}

Emulator::CacheSet Emulator::make_cache_set() const {
    CacheSet set(program_.node_count());
    const TierCosts costs{model_.costs.l_tier_dram, model_.costs.l_tier_host,
                          model_.costs.dma_setup, model_.costs.dma_per_entry};
    for (const Node& node : program_.nodes()) {
        if (node.is_table() && node.table.role == TableRole::Cache) {
            set[static_cast<std::size_t>(node.id)] =
                std::make_unique<TieredStore>(node.table.cache, costs);
        }
    }
    return set;
}

TierStats Emulator::tier_totals_unlocked() const {
    TierStats total = tier_retired_;
    for (const CacheSet& shard : cache_shards_) {
        for (const auto& store : shard) {
            if (store) total += store->stats();
        }
    }
    return total;
}

void Emulator::flush_tier_stores_unlocked() {
    if (!has_tiered_) return;
    // Batch boundary: workers are quiesced and control_mu_ is held, so the
    // per-worker stores can complete partial DMA batches and apply queued
    // promotions without racing the hot path.
    for (CacheSet& shard : cache_shards_) {
        for (auto& store : shard) {
            if (store && store->tiered()) store->flush_batch();
        }
    }
    const TierStats t = tier_totals_unlocked();
    metrics_.add(mid_.tier_lookups, t.lookups - tier_reported_.lookups);
    metrics_.add(mid_.tier_sram_hits, t.sram_hits - tier_reported_.sram_hits);
    metrics_.add(mid_.tier_dram_hits, t.dram_hits - tier_reported_.dram_hits);
    metrics_.add(mid_.tier_host_hits, t.host_hits - tier_reported_.host_hits);
    metrics_.add(mid_.tier_misses, t.misses - tier_reported_.misses);
    metrics_.add(mid_.tier_promotions,
                 t.promotions - tier_reported_.promotions);
    metrics_.add(mid_.tier_demotions, t.demotions - tier_reported_.demotions);
    metrics_.add(mid_.tier_drops, t.drops - tier_reported_.drops);
    metrics_.add(mid_.tier_dma_batches,
                 t.dma_batches - tier_reported_.dma_batches);
    metrics_.add(mid_.tier_dma_fetches,
                 t.dma_fetches - tier_reported_.dma_fetches);
    metrics_.set_gauge(mid_.tier_cycles, t.tier_cycles);
    tier_reported_ = t;
}

void Emulator::init_worker_state(int w) {
    // Through the pool this runs on the thread that runs lane w: worker w
    // (pinned), the calling thread for the last lane, or whichever thread
    // took the lane of a worker that woke late. The shard's vectors, the
    // cache store's slot/index arrays, and the scratch buffers are then
    // allocated and first-touched by the lane's runner, so the OS places
    // their pages on that CPU's NUMA node.
    auto wi = static_cast<std::size_t>(w);
    if (cache_shards_[wi].empty()) cache_shards_[wi] = make_cache_set();
    worker_counters_[wi].shard.reset_for(program_, replay_slots_.size());
    scratch_[wi].key.reserve(16);
    scratch_[wi].fills.reserve(8);
}

void Emulator::populate_worker_state() {
    const auto n = static_cast<std::size_t>(workers_);
    // Cheap bookkeeping on the control thread; heavy allocations deferred to
    // init_worker_state on the owners. Shard 0 (the scalar path's cache) and
    // any other surviving shard keep their warm entries; a shrink's dropped
    // shards leave their tier stats behind in tier_retired_.
    for (std::size_t w = n; w < cache_shards_.size(); ++w) {
        for (const auto& store : cache_shards_[w]) {
            if (store) tier_retired_ += store->stats();
        }
    }
    cache_shards_.resize(n);
    worker_counters_.resize(n);
    scratch_.resize(n);

    // Rebuild the NUMA-aware RETA (DESIGN.md §15): 128 buckets sliced into
    // contiguous equal blocks over the workers in node-major pin order, so
    // adjacent hash buckets map to workers whose shards share a socket and a
    // multi-socket host keeps per-batch merge traffic mostly node-local.
    // Single-worker mode steers trivially and skips the table.
    if (workers_ > 1) {
        constexpr std::size_t kRetaSize = 128;  // power of two (hash & mask)
        const std::vector<int> order = topology_.node_major_order(workers_);
        reta_.assign(kRetaSize, 0);
        for (std::size_t b = 0; b < kRetaSize; ++b) {
            const std::size_t w = b * static_cast<std::size_t>(workers_) /
                                  kRetaSize;
            reta_[b] = static_cast<std::uint32_t>(
                order[std::min(w, order.size() - 1)]);
        }
    } else {
        reta_.clear();
    }
    if (pool_ && workers_ > 1) {
        pool_->run([this](int w) { init_worker_state(w); });
    } else {
        for (int w = 0; w < workers_; ++w) init_worker_state(w);
    }
}

void Emulator::set_worker_count_unlocked(int workers) {
    workers = std::max(1, std::min(workers, std::max(1, model_.cores)));
    if (workers == workers_) return;
    workers_ = workers;
    // Pool first, then populate: new shards are built by the threads that
    // run their lanes (first touch) — the pinned workers, and this thread
    // only for the last lane, which it runs in every poll too.
    WorkerPoolOptions opts;
    opts.topology = &topology_;
    pool_ = workers_ > 1 ? std::make_unique<WorkerPool>(workers_, opts)
                         : nullptr;
    populate_worker_state();
    metrics_.set_gauge(mid_.workers_gauge, static_cast<double>(workers_));
}

int Emulator::pinned_workers() const {
    std::lock_guard<std::mutex> lock(control_mu_);
    return pool_ ? pool_->pinned_count() : 0;
}

void Emulator::set_worker_count(int workers) {
    ControlOp op;
    op.kind = ControlOp::Kind::SetWorkerCount;
    op.workers = workers;
    submit(std::move(op));
}

void Emulator::set_instrumentation(profile::InstrumentationConfig cfg) {
    ControlOp op;
    op.kind = ControlOp::Kind::SetInstrumentation;
    op.instrumentation = cfg;
    submit(std::move(op));
}

bool Emulator::insert_entry_unlocked(const std::string& table,
                                     const ir::TableEntry& entry) {
    NodeId id = program_.find_table(table);
    if (id == kNoNode || !tables_[static_cast<std::size_t>(id)]) return false;
    return tables_[static_cast<std::size_t>(id)]->insert(entry);
}

bool Emulator::insert_entry(const std::string& table, const ir::TableEntry& entry) {
    ControlOp op;
    op.kind = ControlOp::Kind::InsertEntry;
    op.table = table;
    op.entry = entry;
    return submit(std::move(op));
}

bool Emulator::delete_entry_unlocked(const std::string& table,
                                     const std::vector<ir::FieldMatch>& key) {
    NodeId id = program_.find_table(table);
    if (id == kNoNode || !tables_[static_cast<std::size_t>(id)]) return false;
    return tables_[static_cast<std::size_t>(id)]->erase(key);
}

bool Emulator::delete_entry(const std::string& table,
                            const std::vector<ir::FieldMatch>& key) {
    ControlOp op;
    op.kind = ControlOp::Kind::DeleteEntry;
    op.table = table;
    op.key = key;
    return submit(std::move(op));
}

bool Emulator::modify_entry_unlocked(const std::string& table,
                                     const ir::TableEntry& entry) {
    NodeId id = program_.find_table(table);
    if (id == kNoNode || !tables_[static_cast<std::size_t>(id)]) return false;
    return tables_[static_cast<std::size_t>(id)]->modify(entry);
}

bool Emulator::modify_entry(const std::string& table, const ir::TableEntry& entry) {
    ControlOp op;
    op.kind = ControlOp::Kind::ModifyEntry;
    op.table = table;
    op.entry = entry;
    return submit(std::move(op));
}

bool Emulator::set_entries_unlocked(const std::string& table,
                                    std::vector<ir::TableEntry> entries) {
    NodeId id = program_.find_table(table);
    if (id == kNoNode || !tables_[static_cast<std::size_t>(id)]) return false;
    tables_[static_cast<std::size_t>(id)]->set_entries(std::move(entries));
    return true;
}

bool Emulator::set_entries(const std::string& table,
                           std::vector<ir::TableEntry> entries) {
    ControlOp op;
    op.kind = ControlOp::Kind::SetEntries;
    op.table = table;
    op.entries = std::move(entries);
    return submit(std::move(op));
}

std::size_t Emulator::entry_count(const std::string& table) const {
    std::lock_guard<std::mutex> lock(control_mu_);
    NodeId id = program_.find_table(table);
    if (id == kNoNode) return 0;
    auto i = static_cast<std::size_t>(id);
    if (tables_[i]) return tables_[i]->entries().size();
    std::size_t total = 0;
    for (const CacheSet& shard : cache_shards_) {
        if (shard[i]) total += shard[i]->size();
    }
    return total;
}

const std::vector<ir::TableEntry>* Emulator::entries(
    const std::string& table) const {
    std::lock_guard<std::mutex> lock(control_mu_);
    NodeId id = program_.find_table(table);
    if (id == kNoNode || !tables_[static_cast<std::size_t>(id)]) return nullptr;
    return &tables_[static_cast<std::size_t>(id)]->entries();
}

void Emulator::invalidate_caches_unlocked(const std::string& origin_table) {
    for (const Node& node : program_.nodes()) {
        if (!node.is_table() || node.table.role != TableRole::Cache) continue;
        const auto& origins = node.table.origin_tables;
        if (std::find(origins.begin(), origins.end(), origin_table) !=
            origins.end()) {
            for (CacheSet& shard : cache_shards_) {
                shard[static_cast<std::size_t>(node.id)]->clear();
            }
        }
    }
}

void Emulator::mirror_unlocked(StoreChange& change) {
    const NodeId id = program_.find_table(change.table);
    if (id != kNoNode && tables_[static_cast<std::size_t>(id)] &&
        program_.node(id).table.role == TableRole::Original) {
        TableState& state = *tables_[static_cast<std::size_t>(id)];
        switch (change.kind) {
            case StoreChange::Kind::Insert: state.append(std::move(change.entry)); break;
            case StoreChange::Kind::Erase: state.erase(change.key); break;
            case StoreChange::Kind::Modify: state.modify(change.entry); break;
        }
    }
    for (ir::EntryLoad& load : change.merged) {
        set_entries_unlocked(load.table, std::move(load.entries));
    }
    invalidate_caches_unlocked(change.table);
}

void Emulator::mirror(StoreChange change) {
    ControlOp op;
    op.kind = ControlOp::Kind::Mirror;
    op.change = std::move(change);
    submit(std::move(op));
}

// --------------------------------------------------------------- op plumbing

bool Emulator::submit(ControlOp op, ReconfigureStats* swap_result) {
    const std::uint64_t seq = queue_.push(std::move(op));
    std::unique_lock<std::mutex> lock(control_mu_, std::try_to_lock);
    if (!lock.owns_lock()) {
        // A batch is in flight (or another control caller is applying). The
        // op stays queued for the next drain point; report the optimistic
        // default without waiting.
        ops_deferred_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    bool ok = true;
    drain_queue_unlocked(&seq, &ok, swap_result);
    ops_sync_.fetch_add(1, std::memory_order_relaxed);
    return ok;
}

std::size_t Emulator::drain_queue_unlocked(const std::uint64_t* own_seq,
                                           bool* own_ok,
                                           ReconfigureStats* own_swap) {
    // Span only non-empty drains: batch boundaries drain unconditionally,
    // and an empty drain is two atomic loads — tracing it would be noise.
    std::optional<telemetry::ScopedSpan> span;
    if (!queue_.empty()) span.emplace("emulator.drain_control");
    std::vector<ControlOp> ops = queue_.drain();
    for (ControlOp& op : ops) {
        ReconfigureStats swap_stats;
        bool ok = apply_op_unlocked(op, &swap_stats);
        if (!ok) {
            ops_failed_.fetch_add(1, std::memory_order_relaxed);
            metrics_.add(mid_.control_op_failures, 1);
        }
        if (own_seq != nullptr && op.seq == *own_seq) {
            if (own_ok != nullptr) *own_ok = ok;
            if (own_swap != nullptr) *own_swap = swap_stats;
        }
    }
    ops_drained_.fetch_add(ops.size(), std::memory_order_relaxed);
    return ops.size();
}

bool Emulator::apply_op_unlocked(ControlOp& op, ReconfigureStats* swap_out) {
    switch (op.kind) {
        case ControlOp::Kind::InsertEntry:
            return insert_entry_unlocked(op.table, op.entry);
        case ControlOp::Kind::DeleteEntry:
            return delete_entry_unlocked(op.table, op.key);
        case ControlOp::Kind::ModifyEntry:
            return modify_entry_unlocked(op.table, op.entry);
        case ControlOp::Kind::SetEntries:
            return set_entries_unlocked(op.table, std::move(op.entries));
        case ControlOp::Kind::BeginWindow:
            begin_window_unlocked();
            return true;
        case ControlOp::Kind::SetInstrumentation:
            instrumentation_ = op.instrumentation;
            sample_period_ = sample_period(instrumentation_);
            return true;
        case ControlOp::Kind::SetWorkerCount:
            set_worker_count_unlocked(op.workers);
            return true;
        case ControlOp::Kind::Swap: {
            ReconfigureStats stats = apply_epoch_unlocked(std::move(*op.swap));
            if (swap_out != nullptr) *swap_out = stats;
            return true;
        }
        case ControlOp::Kind::Mirror:
            mirror_unlocked(op.change);
            return true;
    }
    return true;
}

std::size_t Emulator::drain_control() {
    std::lock_guard<std::mutex> lock(control_mu_);
    return drain_queue_unlocked();
}

Emulator::ControlPlaneStats Emulator::control_stats() const {
    ControlPlaneStats s;
    s.ops_submitted = queue_.total_pushed();
    s.ops_applied_sync = ops_sync_.load(std::memory_order_relaxed);
    s.ops_deferred = ops_deferred_.load(std::memory_order_relaxed);
    s.ops_drained = ops_drained_.load(std::memory_order_relaxed);
    s.ops_failed = ops_failed_.load(std::memory_order_relaxed);
    s.queue_depth = queue_.depth();
    s.max_queue_depth = queue_.max_depth();
    s.epoch = epoch_.load(std::memory_order_acquire);
    return s;
}

std::size_t Emulator::cache_size(const std::string& table) const {
    std::lock_guard<std::mutex> lock(control_mu_);
    NodeId id = program_.find_table(table);
    if (id == kNoNode) return 0;
    auto i = static_cast<std::size_t>(id);
    std::size_t total = 0;
    for (const CacheSet& shard : cache_shards_) {
        if (shard[i]) total += shard[i]->size();
    }
    return total;
}

int Emulator::steer_worker(const Packet& packet) const {
    std::lock_guard<std::mutex> lock(control_mu_);
    if (workers_ <= 1) return 0;
    // The shared RSS hash (sim/rss.h) through the NUMA-aware RETA: the
    // queue a dispatcher from make_rings() picks for the same packet.
    const std::uint64_t h =
        rss_hash(packet, steer_fields_.data(), steer_fields_.size());
    if (reta_.empty()) {
        return static_cast<int>(h % static_cast<std::uint64_t>(workers_));
    }
    return static_cast<int>(
        reta_[static_cast<std::size_t>(h) & (reta_.size() - 1)]);
}

ProcessResult Emulator::run_packet(Packet& packet, bool sampled,
                                   CounterShard& counters, CacheSet& caches,
                                   WorkerScratch& scratch,
                                   const ProbeHint* hint) {
    ProcessResult result;

    // Reused per-worker buffers: clear() keeps capacity, so the warm hit
    // path gathers keys and walks the pipeline without touching the heap.
    std::vector<FillCtx>& fills = scratch.fills;
    fills.clear();

    NodeId cur = program_.root();
    std::size_t guard = compiled_.size() * 4 + 16;
    while (cur != kNoNode) {
        if (guard-- == 0) {
            throw std::runtime_error("Emulator::process: execution did not "
                                     "terminate (cyclic wiring?)");
        }
        const auto idx = static_cast<std::size_t>(cur);
        const CompiledNode& cn = compiled_[idx];
        ++result.nodes_visited;

        if (sampled) result.cycles += cn.counter;

        NodeId next = kNoNode;
        if (cn.kind == CompiledNode::Kind::Branch) {
            result.cycles += cn.branch;
            const bool taken =
                ir::compare(cn.branch_op, packet.get(cn.branch_field), cn.branch_value);
            if (sampled) {
                if (taken) {
                    ++counters.branch_true[idx];
                } else {
                    ++counters.branch_false[idx];
                }
            }
            next = taken ? cn.next : cn.miss_next;
        } else {
            KeyVec& key = scratch.key;
            key.clear();
            for (FieldId f : cn.key_fields) key.push_back(packet.get(f));

            if (cn.kind == CompiledNode::Kind::Cache) {
                TieredStore& store = *caches[idx];
                result.cycles += cn.probe;  // the tier-0 probe
                // Batched pipeline: the lane's group pass already hashed
                // this key and prefetched its slot — reuse the hash instead
                // of hashing the key again. Bit-identical to lookup().
                const TieredStore::Result tr =
                    hint != nullptr && hint->node == cur
                        ? store.lookup_hashed(key, hint->key_hash)
                        : store.lookup(key);
                // A lower-tier hit costs extra cycles (DRAM access, or the
                // host DMA fetch) on top of the probe.
                result.cycles += tr.extra_cycles * cn.scale;
                const CacheStore::CacheEntry* hit = tr.entry;
                if (hit != nullptr) {
                    if (sampled) ++counters.cache_hits[idx];
                    // Decode the run in place (CacheStore::CacheEntry):
                    // each outcome is a header word, slot relative to this
                    // cache's block and argument count, then its arguments.
                    // One +=, of the slot's cost, per replayed action.
                    bool dropped = false;
                    const std::uint64_t* w = hit->words.data();
                    const std::uint64_t* const end = w + hit->words.size();
                    while (w != end && !dropped) {
                        const std::uint64_t header = *w++;
                        const std::size_t slot =
                            cn.first_slot + static_cast<std::uint32_t>(header);
                        const std::span<const std::uint64_t> args(
                            w, static_cast<std::size_t>(header >> 32));
                        w += args.size();
                        if (sampled) ++counters.replays[slot];
                        const ReplaySlot& rs = replay_slots_[slot];
                        if (rs.apply != nullptr) {
                            result.cycles += rs.cost;
                            run_primitives(rs.apply->primitives, packet, args);
                            dropped = rs.apply->drops;
                        }
                    }
                    if (dropped) break;
                    next = cn.next;
                } else {
                    if (sampled) ++counters.cache_misses[idx];
                    // Miss path: copy the scratch key into the pending fill
                    // (the scratch buffer is reused by downstream nodes).
                    fills.push_back(FillCtx{cur, key, {}});
                    next = cn.miss_next;
                }
            } else {
                const TableState& state = *cn.state;
                result.cycles += static_cast<double>(state.m()) * cn.l_mat * cn.scale;
                const std::optional<MatchOutcome> outcome = state.lookup(key);

                const CompiledAction* action = cn.miss_action;
                std::span<const std::uint64_t> args;
                std::uint64_t header = 0;  // a miss: the part's first slot
                if (outcome.has_value()) {
                    const ir::TableEntry& e = state.entries()[outcome->entry_index];
                    const auto a = static_cast<std::size_t>(e.action_index);
                    action = &cn.actions[a];
                    args = e.action_data;
                    header = 1u + a;
                    if (sampled) {
                        ++counters.action_hits[idx][a];
                        if (cn.merged_cache) ++counters.cache_hits[idx];
                    }
                } else if (sampled) {
                    ++counters.misses[idx];
                    if (cn.merged_cache) ++counters.cache_misses[idx];
                }

                // Record the outcome for any flow cache collecting a fill
                // for this table: a header word (the outcome's slot in this
                // table's part of the cache's block, whose first slot is the
                // miss, plus the argument count), then the arguments. Most
                // tables are uncovered and skip the fill list unread.
                if (!cn.covered_by.empty() && !fills.empty()) {
                    header |= static_cast<std::uint64_t>(args.size()) << 32;
                    for (FillCtx& fill : fills) {
                        for (const Cover& cover : cn.covered_by) {
                            if (cover.cache != fill.cache_node) continue;
                            std::vector<std::uint64_t>& words = fill.entry.words;
                            words.push_back(header + cover.part);
                            words.insert(words.end(), args.begin(), args.end());
                            break;
                        }
                    }
                }

                if (action != nullptr) {
                    result.cycles += action->cost;
                    run_primitives(action->primitives, packet, args);
                    if (action->drops) break;
                }
                next = outcome.has_value() ? action->next : cn.miss_next;
            }
        }

        if (next != kNoNode &&
            compiled_[static_cast<std::size_t>(next)].core != cn.core) {
            result.cycles += model_.costs.l_migration;
            ++result.migrations;
        }
        cur = next;
    }

    // Install collected cache fills (LRU + rate limiting applied inside).
    for (auto& fill : fills) {
        caches[static_cast<std::size_t>(fill.cache_node)]->insert(
            fill.key, std::move(fill.entry), clock_seconds_);
    }

    result.dropped = packet.dropped();
    ++counters.packets_total;
    if (result.dropped) ++counters.packets_dropped;
    counters.latency.add(result.cycles);
    counters.latency_hist.record(result.cycles);
    return result;
}

ProcessResult Emulator::process(Packet& packet) {
    std::lock_guard<std::mutex> lock(control_mu_);
    if (!queue_.empty()) drain_queue_unlocked();  // drain point
    const bool sampled = sampled_for(packet_seq_);
    ++packet_seq_;
    ProcessResult r =
        run_packet(packet, sampled, counters_, cache_shards_[0], scratch_[0]);
    // The scalar path is a degenerate batch of one: still a tier boundary
    // (no-op unless some cache has lower tiers enabled).
    flush_tier_stores_unlocked();
    return r;
}

namespace {
/// Clears a flag on scope exit (in_batch_ stays true for exactly the window
/// in which control ops defer, even if a packet loop throws).
struct FlagGuard {
    std::atomic<bool>& flag;
    explicit FlagGuard(std::atomic<bool>& f) : flag(f) {
        flag.store(true, std::memory_order_release);
    }
    ~FlagGuard() { flag.store(false, std::memory_order_release); }
};
}  // namespace

void Emulator::service_lane(QueuePair& qp, std::size_t w,
                            CounterShard& counters, std::uint64_t* seq,
                            double budget, double& used) {
    CacheSet& caches = cache_shards_[w];
    WorkerScratch& scratch = scratch_[w];
    // Batched match pipeline (DESIGN.md §15): when the program root is a
    // cache, a group's keys are hashed in one pass and all its slots
    // prefetched; run_packet then probes with the hash in hand (ProbeHint).
    // TieredStore::lookup is lookup_hashed with the same hash, so results
    // are exact.
    const CompiledNode* front =
        front_cache_ != kNoNode
            ? &compiled_[static_cast<std::size_t>(front_cache_)]
            : nullptr;
    // Nothing reaps this TX ring while the lane runs, so a packet runs only
    // while its completion has a slot; the rest stay queued as RX backlog.
    std::size_t room = qp.tx().capacity() - qp.tx().size();
    bool stop = budget > 0.0 && used >= budget;
    RxDesc* group[kHashGroup];
    std::uint64_t h8[kHashGroup];
    while (!stop && room > 0) {
        const std::size_t g = qp.rx().peek(group, std::min(kHashGroup, room));
        if (g == 0) break;
        ProbeHint hint;
        const ProbeHint* hp = nullptr;
        if (front != nullptr) {
            hash_group(
                [&](std::size_t lane) -> const Packet& {
                    return group[lane]->packet;
                },
                g, front->key_fields.data(), front->key_fields.size(), h8);
            const TieredStore& store =
                *caches[static_cast<std::size_t>(front_cache_)];
            for (std::size_t lane = 0; lane < g; ++lane) store.prefetch(h8[lane]);
            hint.node = front_cache_;
            hp = &hint;
        }
        std::size_t done = 0;
        while (done < g && !stop) {
            RxDesc& d = *group[done];
            if (hp != nullptr) hint.key_hash = h8[done];
            const std::uint64_t s = seq != nullptr ? (*seq)++ : d.seq;
            ProcessResult r = run_packet(d.packet, sampled_for(s), counters,
                                         caches, scratch, hp);
            if (d.enq_time >= 0.0) {
                r.queue_cycles = std::max(0.0, clock_seconds_ - d.enq_time) *
                                 model_.cycles_per_second;
            }
            used += r.cycles;
            qp.tx().try_push(TxCompletion{r, d.seq});  // room was reserved
            ++done;
            stop = budget > 0.0 && used >= budget;
        }
        qp.rx().advance(done);
        room -= done;
    }
}

RssDispatcher Emulator::make_rings(const RingConfig& cfg) const {
    std::lock_guard<std::mutex> lock(control_mu_);
    // One queue per worker so each RX ring stays SPSC against its consumer.
    const auto queues = static_cast<std::size_t>(workers_);
    RssDispatcher io(queues, steer_fields_, cfg);
    io.set_steer_fields(steer_fields_,
                        epoch_.load(std::memory_order_acquire));
    // Share the NUMA-aware RETA so ring dispatch lands each flow on the
    // worker steer_worker() names (the multi-queue case; the single-queue
    // configuration steers trivially).
    if (queues > 1) io.set_steer_map(reta_);
    return io;
}

BatchResult Emulator::poll(RssDispatcher& io, double cycle_budget) {
    BatchResult out;
    poll(io, out, cycle_budget);
    return out;
}

void Emulator::poll(RssDispatcher& io, BatchResult& out, double cycle_budget) {
    std::lock_guard<std::mutex> lock(control_mu_);
    out.results.clear();
    out.total_cycles = 0.0;
    out.dropped = 0;
    out.workers_used = 1;
    out.ring_dropped = 0;
    out.ring_completed = 0;
    out.ring_backlog = 0;
    // Ring-drain boundary == batch boundary: the whole control backlog
    // applies before any descriptor is consumed.
    out.control_ops_applied = drain_queue_unlocked();
    // An epoch swap may have recompiled the program (new steering tuple);
    // re-sync the dispatcher so post-swap arrivals steer by the deployed
    // key set.
    const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
    if (io.steer_epoch() != epoch) io.set_steer_fields(steer_fields_, epoch);
    FlagGuard in_batch(in_batch_);

    const auto wall_start = std::chrono::steady_clock::now();

    const std::size_t nq = io.queue_count();
    if (workers_ <= 1) {
        // In order on the calling thread, queue-major, into the window
        // counters with the emulator's own arrival numbering and one budget
        // (one serving core). With the single queue make_rings builds for
        // one worker this is exactly a process() loop: same seq numbering,
        // same shard-0 state, same float accumulation order.
        double used = 0.0;
        for (std::size_t q = 0; q < nq; ++q) {
            service_lane(io.queue(q), 0, counters_, &packet_seq_,
                         cycle_budget, used);
        }
    } else {
        out.workers_used = workers_;
        const auto lanes = static_cast<std::size_t>(workers_);
        const double per_budget = cycle_budget / static_cast<double>(workers_);
        const std::uint64_t dequeued_before = io.stats().dequeued;
        // The job reaches the pool as a function pointer + reference to this
        // lambda (WorkerPool::run is a template), so dispatch allocates
        // nothing. Each descriptor keeps its arrival seq, so its sampling
        // decision matches what a process() loop would have made. Lane w
        // serves queues w, w+W, ... (W = workers_): one consumer per queue
        // even when the dispatcher was built for another worker count (a
        // lane past the last queue idles), and a flow's queue fixes its
        // cache shard.
        pool_->run([&](int w) {
            auto wi = static_cast<std::size_t>(w);
            CounterShard& shard = worker_counters_[wi].shard;
            shard.reset_for(program_, replay_slots_.size());
            double used = 0.0;
            for (std::size_t q = wi; q < nq; q += lanes) {
                service_lane(io.queue(q), wi, shard, nullptr, per_budget, used);
            }
        });
        packet_seq_ += io.stats().dequeued - dequeued_before;
        // Merge in worker order: deterministic given deterministic per-queue
        // consumption.
        for (const LaneCounters& lane : worker_counters_) {
            counters_.absorb(lane.shard);
        }
    }

    // Reap completions queue-major (FIFO within a queue) into the reused
    // result vector.
    for (std::size_t q = 0; q < nq; ++q) {
        io.queue(q).tx().consume([&](TxCompletion& c) {
            out.results.push_back(c.result);
            out.total_cycles += c.result.cycles;
            out.dropped += c.result.dropped ? 1 : 0;
            return true;
        });
    }
    out.ring_completed = out.results.size();

    const RingStats delta = io.take_delta();
    out.ring_dropped = delta.dropped;
    out.ring_backlog = delta.depth;

    // Ring-drain boundary is a tier boundary too.
    flush_tier_stores_unlocked();

    const auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
    metrics_.add(mid_.batches);
    metrics_.add(mid_.packets, out.ring_completed);
    metrics_.add(mid_.drops, out.dropped);
    metrics_.add(mid_.control_ops, out.control_ops_applied);
    metrics_.add(mid_.ring_enqueued, delta.enqueued);
    metrics_.add(mid_.ring_dequeued, delta.dequeued);
    metrics_.add(mid_.ring_dropped, delta.dropped);
    metrics_.set_gauge(mid_.ring_depth, static_cast<double>(delta.depth));
    const std::uint64_t offered = delta.enqueued + delta.dropped;
    if (offered > 0) {
        metrics_.record(mid_.ring_drop_rate,
                        static_cast<double>(delta.dropped) /
                            static_cast<double>(offered));
    }
    metrics_.record(mid_.batch_wall_ns, static_cast<double>(wall_ns));
    metrics_.record(mid_.batch_cycles, out.total_cycles);
}

void Emulator::begin_window_unlocked() {
    counters_.reset_for(program_, replay_slots_.size());
    window_start_ = clock_seconds_;
    for (auto& t : tables_) {
        if (t) t->reset_update_count();
    }
    for (CacheSet& shard : cache_shards_) {
        for (auto& store : shard) {
            if (store) store->reset_inserts_dropped();
        }
    }
}

void Emulator::begin_window() {
    ControlOp op;
    op.kind = ControlOp::Kind::BeginWindow;
    submit(std::move(op));
}

double Emulator::now_seconds() const {
    std::lock_guard<std::mutex> lock(control_mu_);
    return clock_seconds_;
}

void Emulator::set_time(double seconds) {
    std::lock_guard<std::mutex> lock(control_mu_);
    clock_seconds_ = seconds;
}

void Emulator::advance_time(double dt) {
    std::lock_guard<std::mutex> lock(control_mu_);
    clock_seconds_ += dt;
}

util::RunningStats Emulator::latency_stats() const {
    std::lock_guard<std::mutex> lock(control_mu_);
    return counters_.latency;
}

telemetry::LatencyHistogram Emulator::latency_histogram() const {
    std::lock_guard<std::mutex> lock(control_mu_);
    return counters_.latency_hist;
}

telemetry::MetricsSnapshot Emulator::telemetry_snapshot() const {
    // A poll holds control_mu_ from its drain to its last metric write, so
    // a snapshot taken under it sees whole poll boundaries only.
    std::lock_guard<std::mutex> lock(control_mu_);
    return metrics_.snapshot();
}

profile::RawCounters Emulator::read_counters() const {
    std::lock_guard<std::mutex> lock(control_mu_);
    profile::RawCounters raw;
    raw.reset_for(program_, std::max(1e-9, clock_seconds_ - window_start_));

    const double inv_sampling =
        (instrumentation_.enabled && instrumentation_.sampling_rate > 0.0 &&
         instrumentation_.sampling_rate < 1.0)
            ? 1.0 / instrumentation_.sampling_rate
            : 1.0;
    auto scale = [inv_sampling](std::uint64_t v) {
        return static_cast<std::uint64_t>(
            std::llround(static_cast<double>(v) * inv_sampling));
    };

    for (const Node& node : program_.nodes()) {
        auto i = static_cast<std::size_t>(node.id);
        if (node.is_branch()) {
            raw.branch_true[i] = scale(counters_.branch_true[i]);
            raw.branch_false[i] = scale(counters_.branch_false[i]);
            continue;
        }
        for (std::size_t a = 0; a < counters_.action_hits[i].size(); ++a) {
            raw.action_hits[i][a] = scale(counters_.action_hits[i][a]);
        }
        raw.misses[i] = scale(counters_.misses[i]);
        raw.cache_hits[i] = scale(counters_.cache_hits[i]);
        raw.cache_misses[i] = scale(counters_.cache_misses[i]);
        for (const CacheSet& shard : cache_shards_) {
            if (shard[i]) raw.inserts_dropped[i] += shard[i]->inserts_dropped();
        }

        if (tables_[i]) {
            profile::EntrySnapshot snap;
            snap.entry_count = tables_[i]->entries().size();
            snap.entry_updates = tables_[i]->update_count();
            snap.lpm_prefix_count = tables_[i]->lpm_prefix_count();
            snap.ternary_mask_count = tables_[i]->ternary_mask_count();
            raw.entries[node.table.name] = snap;
        }
    }

    // Replay counters keyed by (cache node, origin table name, action name);
    // a replayed miss reads as the origin's default action.
    for (std::size_t s = 0; s < replay_slots_.size(); ++s) {
        const ReplaySlot& slot = replay_slots_[s];
        if (counters_.replays[s] == 0 || slot.apply == nullptr) continue;
        const ir::Table& origin = program_.node(slot.origin).table;
        const int a = slot.action >= 0 ? slot.action : origin.default_action;
        raw.replays[{slot.cache, origin.name,
                     origin.actions[static_cast<std::size_t>(a)].name}] +=
            scale(counters_.replays[s]);
    }
    return raw;
}

double Emulator::throughput_gbps(double avg_cycles, double packet_bytes) const {
    if (avg_cycles <= 0.0) return model_.line_rate_gbps;
    double pps = model_.cycles_per_second * static_cast<double>(model_.cores) /
                 avg_cycles;
    double gbps = pps * packet_bytes * 8.0 / 1e9;
    return std::min(gbps, model_.line_rate_gbps);
}

double Emulator::reconfigure_unlocked(ir::Program new_program,
                                      std::vector<ir::EntryLoad> loads) {
    new_program.validate();

    // Preserve entries of same-named tables with identical key structure,
    // in insertion order (it decides their tie-breaks). Tables the loads
    // replace are skipped: each table is rebuilt once per swap.
    auto loaded = [&loads](const std::string& name) {
        return std::any_of(loads.begin(), loads.end(),
                           [&name](const ir::EntryLoad& l) { return l.table == name; });
    };
    std::vector<std::pair<std::string, std::vector<ir::TableEntry>>> saved;
    for (const Node& node : program_.nodes()) {
        auto i = static_cast<std::size_t>(node.id);
        if (node.is_table() && tables_[i] && !loaded(node.table.name)) {
            saved.emplace_back(node.table.name, tables_[i]->entries_in_order());
        }
    }

    program_ = std::move(new_program);
    compile();
    begin_window_unlocked();

    for (auto& [name, entries] : saved) {
        NodeId id = program_.find_table(name);
        if (id == kNoNode || !tables_[static_cast<std::size_t>(id)]) continue;
        std::vector<ir::TableEntry> keep;
        for (ir::TableEntry& e : entries) {
            if (e.compatible_with(program_.node(id).table)) keep.push_back(std::move(e));
        }
        tables_[static_cast<std::size_t>(id)]->set_entries(std::move(keep));
        tables_[static_cast<std::size_t>(id)]->reset_update_count();
    }
    // The remapped entry sets install in the same transition; they are
    // deployment state, not window churn, so update counts stay zero.
    for (ir::EntryLoad& load : loads) {
        NodeId id = program_.find_table(load.table);
        if (id == kNoNode || !tables_[static_cast<std::size_t>(id)]) continue;
        tables_[static_cast<std::size_t>(id)]->set_entries(std::move(load.entries));
        tables_[static_cast<std::size_t>(id)]->reset_update_count();
    }

    double downtime = model_.live_reconfig ? 0.0 : model_.reload_downtime_s;
    clock_seconds_ += downtime;
    window_start_ = clock_seconds_;
    return downtime;
}

double Emulator::reconfigure(ir::Program new_program) {
    EpochSwap swap;
    swap.program = std::move(new_program);
    return apply_epoch(std::move(swap)).downtime_s;
}

Emulator::ReconfigureStats Emulator::reconfigure_incremental(
    ir::Program new_program) {
    EpochSwap swap;
    swap.program = std::move(new_program);
    swap.incremental = true;
    return apply_epoch(std::move(swap));
}

Emulator::ReconfigureStats Emulator::apply_epoch(EpochSwap swap) {
    // Validate on the caller's thread: a malformed program must throw here,
    // not inside a later batch's drain.
    swap.program.validate();
    ControlOp op;
    op.kind = ControlOp::Kind::Swap;
    op.swap = std::make_shared<EpochSwap>(std::move(swap));
    ReconfigureStats stats;
    submit(std::move(op), &stats);
    return stats;
}

std::uint64_t Emulator::queue_epoch(EpochSwap swap) {
    swap.program.validate();
    ControlOp op;
    op.kind = ControlOp::Kind::Swap;
    op.swap = std::make_shared<EpochSwap>(std::move(swap));
    const std::uint64_t seq = queue_.push(std::move(op));
    ops_deferred_.fetch_add(1, std::memory_order_relaxed);
    return seq;
}

Emulator::ReconfigureStats Emulator::apply_epoch_unlocked(EpochSwap swap) {
    TELEMETRY_SPAN("emulator.epoch_swap");
    ReconfigureStats stats;
    if (swap.incremental) {
        stats = reconfigure_incremental_unlocked(std::move(swap.program),
                                                 std::move(swap.entries));
    } else {
        for (const Node& node : swap.program.nodes()) {
            if (node.is_table()) ++stats.tables_total;
        }
        stats.tables_changed = stats.tables_total;  // full redeploy
        stats.downtime_s = reconfigure_unlocked(std::move(swap.program),
                                                std::move(swap.entries));
    }
    epoch_.fetch_add(1, std::memory_order_release);
    metrics_.add(mid_.epochs);
    return stats;
}

Emulator::ReconfigureStats Emulator::reconfigure_incremental_unlocked(
    ir::Program new_program, std::vector<ir::EntryLoad> loads) {
    new_program.validate();
    ReconfigureStats stats;

    // Diff between the deployed and the new program: a table counts as
    // changed when its definition differs OR its wiring does (successor
    // names), so pure reorders are costed too. Copies, not pointers: the
    // deployed program is replaced below.
    auto successor_names = [](const ir::Program& prog, const Node& node) {
        std::vector<std::string> names;
        for (NodeId s : node.successors()) {
            const Node& succ = prog.node(s);
            names.push_back(succ.is_table() ? succ.table.name : "<branch>");
        }
        std::sort(names.begin(), names.end());
        return names;
    };
    std::map<std::string, ir::Table> old_tables;
    std::map<std::string, std::vector<std::string>> old_succ;
    for (const Node& node : program_.nodes()) {
        if (!node.is_table()) continue;
        old_tables.emplace(node.table.name, node.table);
        old_succ.emplace(node.table.name, successor_names(program_, node));
    }
    for (const Node& node : new_program.nodes()) {
        if (!node.is_table()) continue;
        ++stats.tables_total;
        auto it = old_tables.find(node.table.name);
        auto sit = old_succ.find(node.table.name);
        const bool same = it != old_tables.end() && it->second == node.table &&
                          sit != old_succ.end() &&
                          sit->second == successor_names(new_program, node);
        if (!same) ++stats.tables_changed;
    }
    // Removed tables also count as changes.
    for (const auto& [name, table] : old_tables) {
        if (new_program.find_table(name) == kNoNode) ++stats.tables_changed;
    }

    // Save warm cache stores (one per worker shard) whose definition is
    // unchanged.
    std::map<std::string, std::vector<std::unique_ptr<TieredStore>>> saved_caches;
    for (const Node& node : program_.nodes()) {
        auto i = static_cast<std::size_t>(node.id);
        if (!node.is_table() || node.table.role != TableRole::Cache) continue;
        if (!cache_shards_[0][i]) continue;
        std::vector<std::unique_ptr<TieredStore>> stores;
        for (CacheSet& shard : cache_shards_) {
            stores.push_back(std::move(shard[i]));
        }
        saved_caches.emplace(node.table.name, std::move(stores));
    }

    double full_downtime = model_.live_reconfig ? 0.0 : model_.reload_downtime_s;
    double changed_fraction =
        stats.tables_total + stats.tables_changed == 0
            ? 0.0
            : static_cast<double>(stats.tables_changed) /
                  static_cast<double>(std::max<std::size_t>(
                      1, stats.tables_total));
    // Full reconfigure (which would drop warm caches), then splice the
    // saved stores back where definitions match.
    reconfigure_unlocked(std::move(new_program), std::move(loads));
    clock_seconds_ -= full_downtime;  // replace with the incremental cost
    stats.downtime_s = full_downtime * std::min(1.0, changed_fraction);
    clock_seconds_ += stats.downtime_s;
    window_start_ = clock_seconds_;

    // A warm entry names replay slots relative to its cache's block, and
    // the block's layout follows the origin tables: a cache stays warm only
    // when it and each of its origin tables are defined as before (an
    // origin absent before stays absent).
    auto same_as_before = [&](const std::string& name) {
        const auto oit = old_tables.find(name);
        const NodeId id = program_.find_table(name);
        if (oit == old_tables.end() || id == kNoNode) {
            return oit == old_tables.end() && id == kNoNode;
        }
        return oit->second == program_.node(id).table;
    };
    for (const Node& node : program_.nodes()) {
        auto i = static_cast<std::size_t>(node.id);
        if (!node.is_table() || node.table.role != TableRole::Cache) continue;
        auto sit = saved_caches.find(node.table.name);
        if (sit == saved_caches.end()) continue;
        if (same_as_before(node.table.name) &&
            std::all_of(node.table.origin_tables.begin(),
                        node.table.origin_tables.end(), same_as_before)) {
            std::size_t n = std::min(sit->second.size(), cache_shards_.size());
            for (std::size_t w = 0; w < n; ++w) {
                if (!sit->second[w]) continue;
                // The swap began a window, and limiter drops count per window.
                sit->second[w]->reset_inserts_dropped();
                cache_shards_[w][i] = std::move(sit->second[w]);
            }
            ++stats.caches_kept_warm;
        }
    }
    // Spliced-back stores carry their lifetime TierStats; re-baseline so
    // the tier.* metric deltas do not re-count them.
    tier_reported_ = tier_totals_unlocked();
    return stats;
}

}  // namespace pipeleon::sim
