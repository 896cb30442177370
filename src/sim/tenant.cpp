#include "sim/tenant.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace pipeleon::sim {

// ---------------------------------------------------------------- TokenBucket

void TokenBucket::refill(double now) {
    if (!primed_) {
        tokens_ = burst_;
        last_ = now;
        primed_ = true;
        return;
    }
    double dt = now - last_;
    if (dt > 0.0) {
        tokens_ = std::min(burst_, tokens_ + dt * rate_pps_);
        last_ = now;
    }
}

bool TokenBucket::try_consume(double now, double n) {
    if (unlimited()) return true;
    refill(now);
    if (tokens_ + 1e-9 < n) return false;
    tokens_ -= n;
    return true;
}

double TokenBucket::available(double now) {
    if (unlimited()) return std::numeric_limits<double>::infinity();
    refill(now);
    return tokens_;
}

// ------------------------------------------------------------- TenantRegistry

TenantRegistry::TenantRegistry(NicModel base_model, RingConfig ring_cfg)
    : base_(std::move(base_model)), ring_cfg_(ring_cfg) {}

namespace {

bool is_cache_table(const ir::Table& t) {
    return t.role == ir::TableRole::Cache ||
           t.role == ir::TableRole::MergedCache;
}

/// Clamps each selected table's capacity to an equal share of `grant`
/// (at least one entry each — a zero-capacity cache/table is a config
/// error, not a quota).
void clamp_capacities(ir::Program& program, std::size_t grant, bool caches) {
    if (grant == 0) return;
    std::size_t n = 0;
    for (const ir::Node& node : program.nodes()) {
        if (node.is_table() && is_cache_table(node.table) == caches) ++n;
    }
    if (n == 0) return;
    std::size_t per = std::max<std::size_t>(1, grant / n);
    for (ir::NodeId id = 0; static_cast<std::size_t>(id) < program.node_count();
         ++id) {
        ir::Node& node = program.node(id);
        if (!node.is_table() || is_cache_table(node.table) != caches) continue;
        if (caches) {
            node.table.cache.capacity = std::min(node.table.cache.capacity, per);
        } else {
            node.table.size = std::min(node.table.size, per);
        }
    }
}

/// Clamps each cache node's lower-tier capacities (ir::TierConfig) to an
/// equal share of the tenant's DRAM/host grants. Unlike tier 0, a zero
/// share disables the tier outright — lower tiers are an optimization, not
/// a correctness requirement, so a starved tenant just runs flat.
void clamp_tier_capacities(ir::Program& program, std::size_t dram_grant,
                           std::size_t host_grant) {
    if (dram_grant == 0 && host_grant == 0) return;
    std::size_t n = 0;
    for (const ir::Node& node : program.nodes()) {
        if (node.is_table() && is_cache_table(node.table)) ++n;
    }
    if (n == 0) return;
    for (ir::NodeId id = 0; static_cast<std::size_t>(id) < program.node_count();
         ++id) {
        ir::Node& node = program.node(id);
        if (!node.is_table() || !is_cache_table(node.table)) continue;
        ir::TierConfig& tiers = node.table.cache.tiers;
        if (dram_grant > 0) {
            tiers.dram_entries = std::min(tiers.dram_entries, dram_grant / n);
        }
        if (host_grant > 0) {
            tiers.host_entries = std::min(tiers.host_entries, host_grant / n);
        }
    }
}

}  // namespace

TenantId TenantRegistry::add_tenant(const std::string& name, ir::Program program,
                                    TenantQuota quota,
                                    profile::InstrumentationConfig instrumentation) {
    if (name.empty()) throw std::invalid_argument("tenant name must be non-empty");
    if (find(name) != kNoTenant) {
        throw std::invalid_argument("duplicate tenant name: " + name);
    }

    auto t = std::make_unique<Tenant>();
    t->name = name;
    t->quota = quota;
    if (quota.ingress_pps > 0.0) {
        double burst = quota.ingress_burst > 0.0
                           ? quota.ingress_burst
                           : std::max(64.0, quota.ingress_pps / 100.0);
        t->bucket = TokenBucket(quota.ingress_pps, burst);
    }

    // Carve the quota out of the shared NIC: cache/table capacity clamps on
    // the program, core clamp on the model the tenant's emulator sees.
    clamp_capacities(program, quota.cache_entries, /*caches=*/true);
    clamp_capacities(program, quota.table_entries, /*caches=*/false);
    clamp_tier_capacities(program, quota.dram_cache_entries,
                          quota.host_cache_entries);
    NicModel model = base_;
    if (quota.cores > 0) model.cores = std::min(model.cores, quota.cores);

    t->emu = std::make_unique<Emulator>(std::move(model), std::move(program),
                                        std::move(instrumentation));
    t->emu->set_time(now_);

    const std::string p = "tenant." + name + ".";
    t->mid.offered = metrics_.counter(p + "offered");
    t->mid.rate_limited = metrics_.counter(p + "rate_limited");
    t->mid.enqueued = metrics_.counter(p + "enqueued");
    t->mid.ring_dropped = metrics_.counter(p + "ring_dropped");
    t->mid.completed = metrics_.counter(p + "completed");
    t->mid.policy_dropped = metrics_.counter(p + "policy_dropped");
    t->mid.backlog = metrics_.gauge(p + "backlog");
    t->mid.epoch = metrics_.gauge(p + "epoch");

    tenants_.push_back(std::move(t));
    return static_cast<TenantId>(tenants_.size() - 1);
}

TenantRegistry::Tenant& TenantRegistry::tenant(TenantId id) {
    if (id >= tenants_.size()) throw std::out_of_range("bad TenantId");
    return *tenants_[id];
}

const TenantRegistry::Tenant& TenantRegistry::tenant(TenantId id) const {
    if (id >= tenants_.size()) throw std::out_of_range("bad TenantId");
    return *tenants_[id];
}

TenantId TenantRegistry::find(const std::string& name) const {
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        if (tenants_[i]->name == name) return static_cast<TenantId>(i);
    }
    return kNoTenant;
}

const std::string& TenantRegistry::name(TenantId id) const {
    return tenant(id).name;
}

const TenantQuota& TenantRegistry::quota(TenantId id) const {
    return tenant(id).quota;
}

Emulator& TenantRegistry::emulator(TenantId id) { return *tenant(id).emu; }
const Emulator& TenantRegistry::emulator(TenantId id) const {
    return *tenant(id).emu;
}

std::uint64_t TenantRegistry::epoch(TenantId id) const {
    return tenant(id).emu->epoch();
}

void TenantRegistry::apply_quota(TenantId id, ir::Program& program) const {
    const TenantQuota& q = tenant(id).quota;
    clamp_capacities(program, q.cache_entries, /*caches=*/true);
    clamp_capacities(program, q.table_entries, /*caches=*/false);
    clamp_tier_capacities(program, q.dram_cache_entries,
                          q.host_cache_entries);
}

double TenantRegistry::reconfigure(TenantId id, ir::Program program) {
    apply_quota(id, program);
    return tenant(id).emu->reconfigure(std::move(program));
}

void TenantRegistry::ensure_rings(Tenant& t) {
    int workers = t.emu->worker_count();
    if (t.rings && t.rings_workers == workers) return;
    // Never strand queued descriptors: a stale dispatcher keeps serving
    // until its rings drain (Emulator::poll gives each of its queues one
    // lane, whatever the worker count).
    if (t.rings && t.rings->stats().depth != 0) return;
    t.rings.emplace(t.emu->make_rings(ring_cfg_));
    t.rings_workers = workers;
}

TenantRegistry::Admit TenantRegistry::offer(TenantId id, const Packet& packet) {
    Tenant& t = tenant(id);
    ++t.stats.offered;
    if (!t.bucket.try_consume(now_)) {
        ++t.stats.rate_limited;
        return Admit::RateLimited;
    }
    ensure_rings(t);
    if (t.rings->dispatch(packet, now_) < 0) {
        ++t.stats.ring_dropped;
        return Admit::RingDropped;
    }
    ++t.stats.enqueued;
    ++t.stats.backlog;
    return Admit::Enqueued;
}

std::size_t TenantRegistry::offer(TenantId id, const PacketBatch& batch) {
    std::size_t accepted = 0;
    for (const Packet& p : batch) {
        if (offer(id, p) == Admit::Enqueued) ++accepted;
    }
    sync_metrics(tenant(id));
    return accepted;
}

const BatchResult& TenantRegistry::poll(TenantId id, double cycle_budget) {
    Tenant& t = tenant(id);
    ensure_rings(t);
    t.emu->poll(*t.rings, t.out, cycle_budget);
    t.stats.completed += t.out.results.size();
    t.stats.policy_dropped += t.out.dropped;
    t.stats.backlog = t.out.ring_backlog;
    for (const ProcessResult& r : t.out.results) {
        t.stats.latency_cycles += r.cycles + r.queue_cycles;
    }
    sync_metrics(t);
    return t.out;
}

double TenantRegistry::resolved_share(TenantId id) const {
    const Tenant& me = tenant(id);
    if (me.quota.cycles_share > 0.0) return me.quota.cycles_share;
    double reserved = 0.0;
    std::size_t unreserved = 0;
    for (const auto& t : tenants_) {
        if (t->quota.cycles_share > 0.0) {
            reserved += t->quota.cycles_share;
        } else {
            ++unreserved;
        }
    }
    double leftover = std::max(0.0, 1.0 - reserved);
    return unreserved ? leftover / static_cast<double>(unreserved) : 0.0;
}

void TenantRegistry::poll_all(double total_cycle_budget) {
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        TenantId id = static_cast<TenantId>(i);
        double budget = total_cycle_budget > 0.0
                            ? total_cycle_budget * resolved_share(id)
                            : 0.0;
        poll(id, budget);
    }
}

void TenantRegistry::advance_time(double dt) {
    now_ += dt;
    for (auto& t : tenants_) t->emu->advance_time(dt);
}

const TenantStats& TenantRegistry::stats(TenantId id) const {
    return tenant(id).stats;
}

void TenantRegistry::sync_metrics(Tenant& t) {
    metrics_.add(t.mid.offered, t.stats.offered - t.reported.offered);
    metrics_.add(t.mid.rate_limited,
                 t.stats.rate_limited - t.reported.rate_limited);
    metrics_.add(t.mid.enqueued, t.stats.enqueued - t.reported.enqueued);
    metrics_.add(t.mid.ring_dropped,
                 t.stats.ring_dropped - t.reported.ring_dropped);
    metrics_.add(t.mid.completed, t.stats.completed - t.reported.completed);
    metrics_.add(t.mid.policy_dropped,
                 t.stats.policy_dropped - t.reported.policy_dropped);
    metrics_.set_gauge(t.mid.backlog, static_cast<double>(t.stats.backlog));
    metrics_.set_gauge(t.mid.epoch, static_cast<double>(t.emu->epoch()));
    t.reported = t.stats;
}

telemetry::MetricsSnapshot TenantRegistry::telemetry_snapshot() const {
    return metrics_.snapshot();
}

}  // namespace pipeleon::sim
