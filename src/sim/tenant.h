// sim/tenant.h — PF/VF-style multi-tenancy over the emulator (ISSUE 8). One
// physical NIC (a NicModel) is carved into N tenants, each owning its own
// program, tables, caches, counters, descriptor rings, and deployment
// epochs — the software analogue of SR-IOV virtual functions. The registry
// is the PF manager: it admits ingress traffic through per-tenant token
// buckets, carves the shared on-NIC memory (cache/table capacity) and core
// budget into per-tenant quotas, and services every tenant's rings from one
// driver loop.
//
// Isolation contract (test-enforced, tests/test_tenant.cpp): because each
// tenant runs on a private Emulator with a private control queue, one
// tenant's reconfigure storm, table churn, or deny-all deploy can change
// another tenant's packet results and latency accumulation by exactly zero
// bits. Epochs are per tenant — EpochSwap generalizes from "the program
// epoch" to "tenant T's program epoch" — so a reconfigure never stalls
// another tenant's batches. A single-tenant registry is bit-identical to
// driving the Emulator's make_rings/dispatch/poll path directly.
//
// Accounting contract (the conservation law the tests pin down): for every
// tenant, offered == enqueued + rate_limited + ring_dropped, and
// enqueued == completed + backlog once the rings are drained. Admission
// drops (token bucket) and overflow drops (RX ring) are counted separately
// so a noisy neighbor's sheds are attributable.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/program.h"
#include "profile/profile.h"
#include "sim/emulator.h"
#include "sim/nic_model.h"
#include "sim/packet.h"
#include "sim/queue_pair.h"
#include "sim/rss.h"
#include "telemetry/metrics.h"

namespace pipeleon::sim {

/// Dense tenant handle, assigned by the registry in add order.
using TenantId = std::uint32_t;
inline constexpr TenantId kNoTenant = 0xFFFFFFFFu;

/// Ingress admission: a token bucket against the virtual clock. rate <= 0
/// means unlimited (every packet admitted). The bucket seeds a full burst at
/// first use, so a tenant can always send its burst from a cold start.
class TokenBucket {
public:
    TokenBucket() = default;
    TokenBucket(double rate_pps, double burst)
        : rate_pps_(rate_pps), burst_(burst) {}

    bool unlimited() const { return rate_pps_ <= 0.0; }

    /// Refills for the elapsed virtual time and consumes `n` tokens if
    /// available. Time moving backwards refills nothing (clock resets in
    /// tests must not mint tokens).
    bool try_consume(double now, double n = 1.0);

    /// Tokens available at `now` (after refill), for observability.
    double available(double now);

private:
    void refill(double now);

    double rate_pps_ = 0.0;
    double burst_ = 0.0;
    double tokens_ = 0.0;
    double last_ = 0.0;
    bool primed_ = false;
};

/// The per-tenant carve-out of the shared NIC. Zeros mean "uncapped /
/// default" so a quota-less tenant behaves exactly like a solo emulator.
struct TenantQuota {
    /// Ingress rate limit (packets/sec of virtual time); 0 = unlimited.
    double ingress_pps = 0.0;
    /// Token-bucket depth; 0 = auto (max(64, ingress_pps / 100)).
    double ingress_burst = 0.0;

    /// Total flow-cache entries granted across the tenant's cache nodes —
    /// the tenant's slice of the shared on-NIC cache memory. Applied by
    /// clamping each cache node's CacheConfig::capacity to an equal share
    /// of the grant. 0 = uncapped.
    std::size_t cache_entries = 0;
    /// Per-tier carve-outs of the hierarchical flow-state memory
    /// (DESIGN.md §14): the tenant's slice of tier-1 (NIC DRAM) and tier-2
    /// (host memory) cache capacity, clamped onto every cache node's
    /// ir::TierConfig the same equal-share way on every deploy. 0 =
    /// uncapped. (`cache_entries` above is the tier-0 SRAM grant.)
    std::size_t dram_cache_entries = 0;
    std::size_t host_cache_entries = 0;
    /// Total match-table entries granted across non-cache tables (clamps
    /// ir::Table::size the same way). 0 = uncapped.
    std::size_t table_entries = 0;

    /// Run-to-completion cores visible to this tenant's emulator; 0 = all
    /// of the base model's cores.
    int cores = 0;

    /// Fraction of the registry's poll_all cycle budget reserved for this
    /// tenant — a hard partition, independent of how many tenants exist
    /// (the PF/VF analogue of pinning VFs to core sets). 0 = auto: tenants
    /// without an explicit share split the unreserved remainder equally.
    double cycles_share = 0.0;
};

/// Per-tenant ingress/egress accounting (monotonic counters except
/// `backlog`). Conservation: offered == enqueued + rate_limited +
/// ring_dropped always; enqueued == completed + backlog between polls.
struct TenantStats {
    std::uint64_t offered = 0;       ///< packets presented for admission
    std::uint64_t rate_limited = 0;  ///< shed by the token bucket
    std::uint64_t enqueued = 0;      ///< accepted into an RX ring
    std::uint64_t ring_dropped = 0;  ///< RX ring overflow drops
    std::uint64_t completed = 0;     ///< serviced to completion
    std::uint64_t policy_dropped = 0;  ///< completed with a drop verdict
    std::uint64_t backlog = 0;       ///< descriptors waiting in RX now
    /// Sum of per-packet (service + ring wait) cycles over completed
    /// packets — the bit-exact latency accumulator the isolation test
    /// compares.
    double latency_cycles = 0.0;
};

/// The PF manager: owns every tenant's emulator + rings and the shared
/// admission/budget policy. Driver-loop methods (offer/poll/advance_time)
/// are single-threaded by design — one driver services all tenants, like
/// one PMD thread servicing all VF queues. Control-plane calls against a
/// tenant's emulator (entry ops, epoch swaps) may come from any thread;
/// the emulator's own MPSC control queue makes that safe.
class TenantRegistry {
public:
    explicit TenantRegistry(NicModel base_model, RingConfig ring_cfg = {});

    // ------------------------------------------------------------ lifecycle

    /// Registers a tenant: carves the quota out of `program` (cache/table
    /// capacity clamps), builds its emulator on the carved NicModel, and
    /// returns its handle. Tenant names must be unique and non-empty.
    TenantId add_tenant(const std::string& name, ir::Program program,
                        TenantQuota quota = {},
                        profile::InstrumentationConfig instrumentation = {});

    std::size_t tenant_count() const { return tenants_.size(); }
    TenantId find(const std::string& name) const;
    const std::string& name(TenantId id) const;
    const TenantQuota& quota(TenantId id) const;

    /// The tenant's private data plane. Control-plane mutations through
    /// this reference affect only this tenant (per-tenant epochs).
    Emulator& emulator(TenantId id);
    const Emulator& emulator(TenantId id) const;

    /// Tenant T's deployment epoch (independent of every other tenant's).
    std::uint64_t epoch(TenantId id) const;

    /// Clamps the program's cache/table capacities to the tenant's quota
    /// (idempotent). Deploy paths call this so a tenant cannot grow past
    /// its carve-out by redeploying.
    void apply_quota(TenantId id, ir::Program& program) const;

    /// Quota-respecting full redeploy of the tenant's program: clamps, then
    /// reconfigures that tenant's emulator (bumping its epoch only).
    double reconfigure(TenantId id, ir::Program program);

    // ------------------------------------------------------- admission path

    enum class Admit {
        Enqueued,     ///< accepted into the tenant's RX ring
        RateLimited,  ///< shed by the tenant's token bucket
        RingDropped,  ///< admitted but the RX ring was full
    };

    /// Admits one packet at the current virtual time: token bucket first,
    /// then RSS dispatch into the tenant's rings (drop-on-overflow, never
    /// blocking).
    Admit offer(TenantId id, const Packet& packet);

    /// Admits a whole batch; returns how many were enqueued.
    std::size_t offer(TenantId id, const PacketBatch& batch);

    // --------------------------------------------------------- service path

    /// Services one tenant's rings (one poll == one batch boundary for that
    /// tenant only). `cycle_budget` bounds the emulated cycles spent; 0 =
    /// unbudgeted. Returns the tenant's reused poll result.
    const BatchResult& poll(TenantId id, double cycle_budget = 0.0);

    /// Services every tenant, splitting `total_cycle_budget` by resolved
    /// shares (hard partition; see TenantQuota::cycles_share). 0 = every
    /// tenant polls unbudgeted.
    void poll_all(double total_cycle_budget = 0.0);

    /// The cycles_share actually in effect for the tenant (explicit, or the
    /// auto equal split of the unreserved remainder).
    double resolved_share(TenantId id) const;

    // --------------------------------------------------------- virtual time

    double now_seconds() const { return now_; }
    /// Advances every tenant's clock in lock-step (tenants share the NIC's
    /// wall clock even though their data planes are isolated).
    void advance_time(double dt);

    // ----------------------------------------------------------- accounting

    const TenantStats& stats(TenantId id) const;

    /// Registry-level metrics: per-tenant lanes named tenant.<name>.*
    /// (offered/rate_limited/enqueued/ring_dropped/completed/policy_dropped
    /// counters plus backlog/epoch gauges), synced at offer/poll boundaries.
    telemetry::MetricsRegistry& metrics() { return metrics_; }
    telemetry::MetricsSnapshot telemetry_snapshot() const;

private:
    struct Tenant {
        std::string name;
        TenantQuota quota;
        TokenBucket bucket;
        std::unique_ptr<Emulator> emu;
        std::optional<RssDispatcher> rings;
        int rings_workers = 0;
        TenantStats stats;
        TenantStats reported;  ///< counter values already pushed to metrics
        BatchResult out;       ///< reused poll output
        struct {
            telemetry::MetricId offered = 0, rate_limited = 0, enqueued = 0;
            telemetry::MetricId ring_dropped = 0, completed = 0;
            telemetry::MetricId policy_dropped = 0;
            telemetry::MetricId backlog = 0, epoch = 0;  ///< gauges
        } mid;
    };

    Tenant& tenant(TenantId id);
    const Tenant& tenant(TenantId id) const;
    /// (Re)builds the tenant's dispatcher when its worker count moved since
    /// the rings were built. Only rebuilds while the rings are empty, so no
    /// descriptor is ever stranded.
    void ensure_rings(Tenant& t);
    /// Pushes counter deltas (stats - reported) and the gauges into the
    /// metrics registry.
    void sync_metrics(Tenant& t);

    NicModel base_;
    RingConfig ring_cfg_;
    double now_ = 0.0;
    std::vector<std::unique_ptr<Tenant>> tenants_;
    mutable telemetry::MetricsRegistry metrics_;
};

}  // namespace pipeleon::sim
