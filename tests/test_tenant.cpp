// tests/test_tenant.cpp — the multi-tenant data plane (ISSUE 8). The load-
// bearing guarantees: (1) zero-bit isolation — with deterministic virtual
// time, a noisy neighbor's reconfigure storm, table churn, and deny-all
// deploys change a steady tenant's per-packet results and latency
// accumulator by exactly zero bits; (2) conservation — per tenant,
// offered == enqueued + rate_limited + ring_dropped under mixed-tenant
// overload; (3) compatibility — a single-tenant registry is bit-identical
// to driving the emulator's make_rings/dispatch/poll path directly;
// (4) control-plane isolation — a storming or verify-rejected tenant is
// quarantined without delaying its neighbors' deploys or ticks; (5) the
// Eq. 5 budget splits across tenants by measured load. The two-tenant
// storm stress at the bottom is the TSan target.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "ir/builder.h"
#include "runtime/tenant_controller.h"
#include "search/budget_split.h"
#include "sim/tenant.h"
#include "trafficgen/workload.h"
#include "util/strings.h"

namespace pipeleon {
namespace {

using ir::Program;
using ir::TableSpec;
using runtime::MultiController;
using runtime::MultiControllerConfig;
using sim::Emulator;
using sim::NicModel;
using sim::TenantId;
using sim::TenantQuota;
using sim::TenantRegistry;
using sim::TenantStats;
using sim::TokenBucket;

NicModel nic(int cores = 4) {
    NicModel m = sim::emulated_nic_model();
    m.cores = cores;
    m.cycles_per_second = 1e9;
    return m;
}

Program chain(const char* name = "tenant_p") {
    return ir::chain_of_exact_tables(name, 4, 2, 1);
}

trafficgen::FlowSet make_flows(int n, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < 4; ++i) {
        tuple.push_back({util::format("f%d", i), 0, 255});
    }
    return trafficgen::FlowSet::generate(tuple, static_cast<std::size_t>(n),
                                         rng);
}

/// A program whose only table drops every packet (the deny-all deploy the
/// noisy neighbor pushes).
Program deny_all() {
    ir::ProgramBuilder b("deny_all");
    b.append(TableSpec("wall").key("f0").drop_action("deny").default_to("deny")
                 .build());
    return b.build();
}

void assert_conserved(const TenantStats& s) {
    ASSERT_EQ(s.offered, s.enqueued + s.rate_limited + s.ring_dropped);
    ASSERT_EQ(s.enqueued, s.completed + s.backlog);
}

// ------------------------------------------------------------- token bucket

TEST(TokenBucket, DefaultIsUnlimited) {
    TokenBucket b;
    for (int i = 0; i < 1000; ++i) EXPECT_TRUE(b.try_consume(0.0));
}

TEST(TokenBucket, BurstThenRefillAtRate) {
    TokenBucket b(/*rate_pps=*/100.0, /*burst=*/10.0);
    // Cold start seeds the full burst.
    for (int i = 0; i < 10; ++i) EXPECT_TRUE(b.try_consume(1.0)) << i;
    EXPECT_FALSE(b.try_consume(1.0));
    // 50 ms at 100 pps mints 5 tokens.
    for (int i = 0; i < 5; ++i) EXPECT_TRUE(b.try_consume(1.05)) << i;
    EXPECT_FALSE(b.try_consume(1.05));
    // Time moving backwards mints nothing.
    EXPECT_FALSE(b.try_consume(0.5));
    // Refill caps at the burst.
    EXPECT_LE(b.available(100.0), 10.0 + 1e-9);
}

// ----------------------------------------------------------------- registry

TEST(TenantRegistry, NamesQuotasAndLookup) {
    TenantRegistry reg(nic());
    TenantQuota qa;
    qa.ingress_pps = 1000.0;
    TenantId a = reg.add_tenant("a", chain(), qa);
    TenantId b = reg.add_tenant("b", chain("p_b"));
    EXPECT_EQ(reg.tenant_count(), 2u);
    EXPECT_EQ(reg.find("a"), a);
    EXPECT_EQ(reg.find("b"), b);
    EXPECT_EQ(reg.find("nope"), sim::kNoTenant);
    EXPECT_EQ(reg.name(b), "b");
    EXPECT_EQ(reg.quota(a).ingress_pps, 1000.0);
    EXPECT_THROW(reg.add_tenant("a", chain()), std::invalid_argument);
    EXPECT_THROW(reg.add_tenant("", chain()), std::invalid_argument);
    EXPECT_THROW(reg.stats(99), std::out_of_range);
}

TEST(TenantRegistry, QuotaCarvesCachesTablesAndCores) {
    Program p = chain();
    // Hand-promote t3 to a flow cache so the cache carve has a target.
    ir::NodeId cache_id = p.find_table("t3");
    ASSERT_NE(cache_id, ir::kNoNode);
    p.node(cache_id).table.role = ir::TableRole::Cache;
    p.node(cache_id).table.cache.capacity = 4096;

    TenantQuota q;
    q.cache_entries = 100;
    q.table_entries = 30;  // across t0..t2 -> 10 each
    q.cores = 2;
    TenantRegistry reg(nic(/*cores=*/8));
    TenantId t = reg.add_tenant("carved", p, q);

    const Program& deployed = reg.emulator(t).program();
    EXPECT_EQ(deployed.node(cache_id).table.cache.capacity, 100u);
    for (const char* name : {"t0", "t1", "t2"}) {
        ir::NodeId id = deployed.find_table(name);
        ASSERT_NE(id, ir::kNoNode);
        EXPECT_EQ(deployed.node(id).table.size, 10u) << name;
    }
    EXPECT_EQ(reg.emulator(t).model().cores, 2);
    // The carve is a clamp, not a grant: set_worker_count saturates at the
    // carved core count.
    reg.emulator(t).set_worker_count(8);
    EXPECT_EQ(reg.emulator(t).worker_count(), 2);

    // Redeploying an over-quota program re-clamps.
    Program again = p;
    again.node(cache_id).table.cache.capacity = 100000;
    reg.reconfigure(t, again);
    EXPECT_EQ(reg.emulator(t).program().node(cache_id).table.cache.capacity,
              100u);
}

TEST(TenantRegistry, TierQuotaClampedOnEveryDeploy) {
    Program p = chain();
    // Two cache nodes so the equal-share split is visible.
    std::vector<ir::NodeId> cache_ids;
    for (const char* name : {"t2", "t3"}) {
        ir::NodeId id = p.find_table(name);
        ASSERT_NE(id, ir::kNoNode);
        p.node(id).table.role = ir::TableRole::Cache;
        p.node(id).table.cache.capacity = 4096;
        p.node(id).table.cache.tiers.dram_entries = 100000;
        p.node(id).table.cache.tiers.host_entries = 100000;
        cache_ids.push_back(id);
    }

    TenantQuota q;
    q.dram_cache_entries = 100;  // across 2 caches -> 50 each
    q.host_cache_entries = 50;   // -> 25 each
    TenantRegistry reg(nic());
    TenantId t = reg.add_tenant("tiered", p, q);

    auto check_conserved = [&](const Program& deployed) {
        std::size_t dram_total = 0, host_total = 0;
        for (ir::NodeId id : cache_ids) {
            const ir::TierConfig& tiers = deployed.node(id).table.cache.tiers;
            dram_total += tiers.dram_entries;
            host_total += tiers.host_entries;
        }
        // Conservation: a tenant's carved tier capacity never exceeds its
        // grant, no matter what the deployed program asked for.
        EXPECT_LE(dram_total, q.dram_cache_entries);
        EXPECT_LE(host_total, q.host_cache_entries);
    };

    const Program& deployed = reg.emulator(t).program();
    for (ir::NodeId id : cache_ids) {
        EXPECT_EQ(deployed.node(id).table.cache.tiers.dram_entries, 50u);
        EXPECT_EQ(deployed.node(id).table.cache.tiers.host_entries, 25u);
    }
    check_conserved(deployed);

    // Redeploying an over-quota program re-clamps (quota applies on every
    // deploy, not just admission).
    Program again = p;
    again.node(cache_ids[0]).table.cache.tiers.dram_entries = 500000;
    again.node(cache_ids[0]).table.cache.tiers.host_entries = 500000;
    reg.reconfigure(t, again);
    check_conserved(reg.emulator(t).program());

    // An unbudgeted quota leaves tier configs alone; a tenant whose program
    // stays under the grant is untouched too.
    TenantId open = reg.add_tenant("open", p);
    const Program& free_plan = reg.emulator(open).program();
    EXPECT_EQ(free_plan.node(cache_ids[0]).table.cache.tiers.dram_entries,
              100000u);
}

TEST(TenantRegistry, RateLimitAndConservationUnderMixedOverload) {
    sim::RingConfig rings;
    rings.rx_capacity = 32;  // small on purpose: force overflow drops
    TenantRegistry reg(nic(), rings);

    TenantQuota qa;
    qa.ingress_pps = 2000.0;
    qa.ingress_burst = 50.0;
    TenantId a = reg.add_tenant("a", chain(), qa);
    TenantId b = reg.add_tenant("b", chain("p_b"));  // unlimited ingress

    trafficgen::FlowSet fa = make_flows(64, 21);
    trafficgen::FlowSet fb = make_flows(64, 22);
    trafficgen::Workload wa(fa, trafficgen::Locality::Uniform, 0.0, 31);
    trafficgen::Workload wb(fb, trafficgen::Locality::Zipf, 1.1, 32);

    for (int round = 0; round < 40; ++round) {
        // Both tenants blast far beyond their ring and A's bucket.
        sim::PacketBatch ba = wa.next_batch(reg.emulator(a).fields(), 120);
        sim::PacketBatch bb = wb.next_batch(reg.emulator(b).fields(), 120);
        reg.offer(a, ba);
        reg.offer(b, bb);
        assert_conserved(reg.stats(a));
        assert_conserved(reg.stats(b));
        // Budgeted polls leave backlog some rounds; conservation must hold
        // mid-flight, not just at quiescence.
        reg.poll_all(round % 3 == 0 ? 2000.0 : 0.0);
        assert_conserved(reg.stats(a));
        assert_conserved(reg.stats(b));
        reg.advance_time(0.005);
    }
    // Drain and settle.
    reg.poll_all(0.0);
    const TenantStats& sa = reg.stats(a);
    const TenantStats& sb = reg.stats(b);
    assert_conserved(sa);
    assert_conserved(sb);
    EXPECT_EQ(sa.offered, 40u * 120u);
    EXPECT_GT(sa.rate_limited, 0u);  // the bucket bit
    EXPECT_GT(sb.ring_dropped, 0u);  // the ring bit
    EXPECT_EQ(sb.rate_limited, 0u);  // no bucket on b
    EXPECT_EQ(sa.backlog, 0u);
    EXPECT_EQ(sb.backlog, 0u);
}

TEST(TenantRegistry, SingleTenantBitIdenticalToDirectEmulator) {
    sim::RingConfig rings;
    rings.rx_capacity = 256;
    const double dt = 0.001;

    // Reference: today's single-tenant path, driven by hand.
    Emulator ref(nic(), chain(), {});
    sim::RssDispatcher ref_io = ref.make_rings(rings);
    trafficgen::FlowSet flows_ref = make_flows(64, 77);
    trafficgen::Workload wl_ref(flows_ref, trafficgen::Locality::Zipf, 1.1, 99);

    // Same NIC, same program, same seeds — through the registry.
    TenantRegistry reg(nic(), rings);
    TenantId t = reg.add_tenant("solo", chain());
    trafficgen::FlowSet flows_reg = make_flows(64, 77);
    trafficgen::Workload wl_reg(flows_reg, trafficgen::Locality::Zipf, 1.1, 99);

    double ref_latency = 0.0, reg_latency = 0.0;
    for (int round = 0; round < 20; ++round) {
        sim::PacketBatch batch = wl_ref.next_batch(ref.fields(), 64);
        ref_io.dispatch_batch(batch, ref.now_seconds());
        sim::BatchResult ref_out = ref.poll(ref_io);
        ref.advance_time(dt);

        sim::PacketBatch batch2 = wl_reg.next_batch(reg.emulator(t).fields(), 64);
        reg.offer(t, batch2);
        const sim::BatchResult& reg_out = reg.poll(t);
        reg.advance_time(dt);

        ASSERT_EQ(ref_out.results.size(), reg_out.results.size());
        for (std::size_t i = 0; i < ref_out.results.size(); ++i) {
            // Exact double equality is the point: same bits or bust.
            ASSERT_EQ(ref_out.results[i].cycles, reg_out.results[i].cycles);
            ASSERT_EQ(ref_out.results[i].queue_cycles,
                      reg_out.results[i].queue_cycles);
            ASSERT_EQ(ref_out.results[i].dropped, reg_out.results[i].dropped);
            ref_latency +=
                ref_out.results[i].cycles + ref_out.results[i].queue_cycles;
            reg_latency +=
                reg_out.results[i].cycles + reg_out.results[i].queue_cycles;
        }
    }
    EXPECT_EQ(ref.packets_processed(), reg.emulator(t).packets_processed());
    EXPECT_EQ(std::memcmp(&ref_latency, &reg_latency, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&reg_latency, &reg.stats(t).latency_cycles,
                          sizeof(double)),
              0);
}

// ---------------------------------------------------------------- isolation

/// Drives tenant A identically with and without a storming neighbor and
/// returns A's observable trace. Every double is compared bit-for-bit by
/// the caller.
struct TenantTrace {
    std::vector<double> cycles;
    std::vector<double> queue_cycles;
    std::vector<bool> dropped;
    double latency_sum = 0.0;
    TenantStats stats;
    std::uint64_t epoch = 0;
};

TenantTrace drive_tenant_a(bool with_noisy_b) {
    sim::RingConfig rings;
    rings.rx_capacity = 128;
    TenantRegistry reg(nic(), rings);

    TenantId a = reg.add_tenant("a", chain());
    TenantId b = sim::kNoTenant;
    if (with_noisy_b) b = reg.add_tenant("b", chain("p_b"));

    trafficgen::FlowSet fa = make_flows(64, 5);
    trafficgen::Workload wa(fa, trafficgen::Locality::Zipf, 1.1, 6);
    trafficgen::FlowSet fb = make_flows(64, 7);
    trafficgen::Workload wb(fb, trafficgen::Locality::Uniform, 0.0, 8);

    TenantTrace trace;
    for (int round = 0; round < 30; ++round) {
        if (with_noisy_b) {
            // The noisy neighbor: a reconfigure storm (full redeploys and
            // epoch swaps), table churn, a deny-all deploy, and its own
            // traffic — all before A's offers each round.
            sim::PacketBatch bb = wb.next_batch(reg.emulator(b).fields(), 96);
            reg.offer(b, bb);
            Emulator& be = reg.emulator(b);
            for (std::uint64_t i = 0; i < 8; ++i) {
                ir::TableEntry e;
                e.key = {ir::FieldMatch::exact((round * 8 + i) % 256)};
                e.action_index = 1;
                be.insert_entry("t1", e);
            }
            be.set_entries("t2", {});
            if (round % 3 == 0) reg.reconfigure(b, deny_all());
            if (round % 3 == 1) reg.reconfigure(b, chain("p_b"));
            if (round % 3 == 2) {
                sim::EpochSwap swap;
                swap.program = chain("p_b");
                be.apply_epoch(std::move(swap));
            }
            reg.poll(b);
        }

        sim::PacketBatch ba = wa.next_batch(reg.emulator(a).fields(), 64);
        reg.offer(a, ba);
        // Unbudgeted A polls: B's presence must not shift A's service.
        const sim::BatchResult& out = reg.poll(a);
        for (const sim::ProcessResult& r : out.results) {
            trace.cycles.push_back(r.cycles);
            trace.queue_cycles.push_back(r.queue_cycles);
            trace.dropped.push_back(r.dropped);
        }
        reg.advance_time(0.002);
    }
    trace.latency_sum = reg.stats(a).latency_cycles;
    trace.stats = reg.stats(a);
    trace.epoch = reg.epoch(a);
    if (with_noisy_b) {
        // Sanity: the storm actually stormed — B's epoch moved, A's didn't.
        EXPECT_GT(reg.epoch(b), 20u);
    }
    return trace;
}

TEST(TenantIsolation, NoisyNeighborChangesZeroBits) {
    TenantTrace solo = drive_tenant_a(/*with_noisy_b=*/false);
    TenantTrace shared = drive_tenant_a(/*with_noisy_b=*/true);

    ASSERT_EQ(solo.cycles.size(), shared.cycles.size());
    ASSERT_FALSE(solo.cycles.empty());
    ASSERT_EQ(std::memcmp(solo.cycles.data(), shared.cycles.data(),
                          solo.cycles.size() * sizeof(double)),
              0);
    ASSERT_EQ(std::memcmp(solo.queue_cycles.data(), shared.queue_cycles.data(),
                          solo.queue_cycles.size() * sizeof(double)),
              0);
    EXPECT_EQ(solo.dropped, shared.dropped);
    EXPECT_EQ(std::memcmp(&solo.latency_sum, &shared.latency_sum,
                          sizeof(double)),
              0);
    EXPECT_EQ(solo.stats.offered, shared.stats.offered);
    EXPECT_EQ(solo.stats.enqueued, shared.stats.enqueued);
    EXPECT_EQ(solo.stats.completed, shared.stats.completed);
    EXPECT_EQ(solo.stats.ring_dropped, shared.stats.ring_dropped);
    EXPECT_EQ(solo.stats.rate_limited, shared.stats.rate_limited);
    // Per-tenant epochs: B's storm left A's epoch untouched.
    EXPECT_EQ(solo.epoch, 0u);
    EXPECT_EQ(shared.epoch, 0u);
    assert_conserved(shared.stats);
}

TEST(TenantRegistry, TenantMetricLanesTrackStats) {
    TenantRegistry reg(nic());
    TenantId a = reg.add_tenant("alpha", chain());
    TenantId b = reg.add_tenant("beta", chain("p_b"));

    trafficgen::FlowSet flows = make_flows(32, 9);
    trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 10);
    sim::PacketBatch batch = wl.next_batch(reg.emulator(a).fields(), 50);
    reg.offer(a, batch);
    reg.poll_all();
    reg.reconfigure(b, chain("p_b"));
    reg.poll(b);

    telemetry::MetricsSnapshot snap = reg.telemetry_snapshot();
    EXPECT_EQ(snap.counter("tenant.alpha.offered"), reg.stats(a).offered);
    EXPECT_EQ(snap.counter("tenant.alpha.enqueued"), reg.stats(a).enqueued);
    EXPECT_EQ(snap.counter("tenant.alpha.completed"), reg.stats(a).completed);
    EXPECT_EQ(snap.counter("tenant.beta.offered"), 0u);
    EXPECT_EQ(snap.gauge("tenant.beta.epoch"), 1.0);
    EXPECT_EQ(snap.gauge("tenant.alpha.epoch"), 0.0);
}

// ------------------------------------------------------------ budget split

TEST(BudgetSplit, ProportionalToLoadWithFloor) {
    search::BudgetSplitOptions opts;
    opts.floor_fraction = 0.05;
    std::vector<double> shares = search::split_shares({300.0, 100.0}, opts);
    ASSERT_EQ(shares.size(), 2u);
    EXPECT_NEAR(shares[0], 0.75, 1e-12);
    EXPECT_NEAR(shares[1], 0.25, 1e-12);

    // An idle tenant keeps the floor; the loaded one gets the rest.
    opts.floor_fraction = 0.1;
    shares = search::split_shares({1000.0, 0.0}, opts);
    EXPECT_NEAR(shares[0], 0.9, 1e-12);
    EXPECT_NEAR(shares[1], 0.1, 1e-12);

    // Zero-load window: equal split.
    shares = search::split_shares({0.0, 0.0, 0.0}, opts);
    for (double s : shares) EXPECT_NEAR(s, 1.0 / 3.0, 1e-12);

    // Shares always sum to 1, floors notwithstanding.
    shares = search::split_shares({5.0, 1.0, 1.0, 1.0, 0.0}, opts);
    double sum = 0.0;
    for (double s : shares) {
        EXPECT_GE(s, opts.floor_fraction - 1e-12);
        sum += s;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(BudgetSplit, SplitsFiniteAxesKeepsInfinite) {
    search::ResourceLimits total;
    total.memory_bytes = 1000.0;  // updates_per_sec stays infinite
    auto limits = search::split_budget(total, {3.0, 1.0});
    ASSERT_EQ(limits.size(), 2u);
    EXPECT_NEAR(limits[0].memory_bytes, 750.0, 1e-9);
    EXPECT_NEAR(limits[1].memory_bytes, 250.0, 1e-9);
    EXPECT_TRUE(std::isinf(limits[0].updates_per_sec));
    EXPECT_TRUE(std::isinf(limits[1].updates_per_sec));
}

// ----------------------------------------------------------- multicontroller

cost::CostModel cost_model() {
    cost::CostParams p;
    p.l_mat = 10.0;
    p.l_act = 2.0;
    p.l_branch = 1.0;
    profile::InstrumentationConfig instr;
    return cost::CostModel(p, instr);
}

MultiControllerConfig multi_config() {
    MultiControllerConfig cfg;
    cfg.controller.optimizer.search.allow_cache = false;
    cfg.controller.optimizer.search.allow_merge = false;
    cfg.controller.reoptimize_on_change_only = false;
    cfg.quarantine.reject_threshold = 3;
    cfg.quarantine.storm_threshold = 4;
    cfg.quarantine.quarantine_rounds = 2;
    return cfg;
}

struct MultiFixture {
    TenantRegistry reg{nic()};
    TenantId a, b;
    MultiController mc;

    explicit MultiFixture(MultiControllerConfig cfg = multi_config())
        : a(reg.add_tenant("a", chain("p_a"))),
          b(reg.add_tenant("b", chain("p_b"))),
          mc(reg, cost_model(), std::move(cfg)) {
        mc.attach(a, chain("p_a"));
        mc.attach(b, chain("p_b"));
    }

    void pump(TenantId t, trafficgen::Workload& wl, int packets) {
        sim::PacketBatch batch =
            wl.next_batch(reg.emulator(t).fields(), packets);
        reg.offer(t, batch);
        reg.poll(t);
        reg.advance_time(0.001);
    }
};

TEST(MultiController, DeployStormQuarantinesOnlyTheOffender) {
    MultiFixture fx;
    // B floods (5 > storm_threshold 4); A submits one legitimate deploy.
    for (int i = 0; i < 5; ++i) fx.mc.enqueue_deploy(fx.b, chain("p_b"));
    fx.mc.enqueue_deploy(fx.a, chain("p_a"));

    MultiController::RoundResult r1 = fx.mc.tick_all();
    const auto* ra = r1.for_tenant(fx.a);
    const auto* rb = r1.for_tenant(fx.b);
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    // A's deploy and tick went through untouched by the neighbor's storm.
    EXPECT_EQ(ra->deploys_applied, 1u);
    EXPECT_TRUE(ra->ticked);
    EXPECT_FALSE(ra->quarantined);
    // B's whole burst deferred, not dropped; its tick skipped.
    EXPECT_TRUE(rb->quarantined);
    EXPECT_EQ(rb->deploys_applied, 0u);
    EXPECT_EQ(rb->deploys_deferred, 5u);
    EXPECT_FALSE(rb->ticked);
    EXPECT_TRUE(fx.mc.quarantined(fx.b));
    EXPECT_EQ(fx.mc.queued_deploys(fx.b), 5u);

    // Round 2: still quarantined (2-round sentence).
    MultiController::RoundResult r2 = fx.mc.tick_all();
    EXPECT_TRUE(r2.for_tenant(fx.b)->quarantined);
    EXPECT_EQ(r2.for_tenant(fx.b)->deploys_deferred, 5u);

    // Round 3: quarantine expired; the backlog drains at the rate cap
    // (storm_threshold per round) without re-tripping.
    MultiController::RoundResult r3 = fx.mc.tick_all();
    EXPECT_FALSE(r3.for_tenant(fx.b)->quarantined);
    EXPECT_EQ(r3.for_tenant(fx.b)->deploys_applied, 4u);
    EXPECT_EQ(r3.for_tenant(fx.b)->deploys_deferred, 1u);
    MultiController::RoundResult r4 = fx.mc.tick_all();
    EXPECT_EQ(r4.for_tenant(fx.b)->deploys_applied, 1u);
    EXPECT_EQ(fx.mc.queued_deploys(), 0u);
}

TEST(MultiController, RepeatedRejectsQuarantineAndRecover) {
    MultiFixture fx;
    // Three rounds of one malformed deploy each (an empty program fails
    // validation; the throw is contained to B's lane and counted as a
    // reject).
    for (int round = 0; round < 3; ++round) {
        fx.mc.enqueue_deploy(fx.b, Program("empty"));
        fx.mc.enqueue_deploy(fx.a, chain("p_a"));
        MultiController::RoundResult r = fx.mc.tick_all();
        EXPECT_EQ(r.for_tenant(fx.b)->deploys_rejected, 1u);
        EXPECT_EQ(r.for_tenant(fx.a)->deploys_applied, 1u);
        EXPECT_TRUE(r.for_tenant(fx.a)->ticked);
    }
    // Third consecutive reject tripped the threshold.
    EXPECT_TRUE(fx.mc.quarantined(fx.b));

    // Sit out the sentence, then a valid deploy restores service.
    fx.mc.tick_all();
    fx.mc.tick_all();
    fx.mc.enqueue_deploy(fx.b, chain("p_b"));
    MultiController::RoundResult r = fx.mc.tick_all();
    EXPECT_FALSE(r.for_tenant(fx.b)->quarantined);
    EXPECT_EQ(r.for_tenant(fx.b)->deploys_applied, 1u);
    EXPECT_TRUE(r.for_tenant(fx.b)->ticked);
}

TEST(MultiController, BudgetResplitsProportionalToMeasuredLoad) {
    MultiControllerConfig cfg = multi_config();
    cfg.total_limits.memory_bytes = 10000.0;
    cfg.split.floor_fraction = 0.05;
    MultiFixture fx(cfg);

    trafficgen::FlowSet fa = make_flows(32, 41);
    trafficgen::FlowSet fb = make_flows(32, 42);
    trafficgen::Workload wa(fa, trafficgen::Locality::Uniform, 0.0, 43);
    trafficgen::Workload wb(fb, trafficgen::Locality::Uniform, 0.0, 44);

    // Window 1: A serves 3x B's load.
    for (int i = 0; i < 10; ++i) {
        fx.pump(fx.a, wa, 90);
        fx.pump(fx.b, wb, 30);
    }
    MultiController::RoundResult r = fx.mc.tick_all();
    double ga = r.for_tenant(fx.a)->granted.memory_bytes;
    double gb = r.for_tenant(fx.b)->granted.memory_bytes;
    EXPECT_NEAR(ga, 7500.0, 1.0);
    EXPECT_NEAR(gb, 2500.0, 1.0);
    EXPECT_NEAR(ga + gb, 10000.0, 1e-6);
    // The split lands in each controller's optimizer limits.
    EXPECT_NEAR(fx.mc.controller(fx.a).config().optimizer.limits.memory_bytes,
                ga, 1e-9);

    // Window 2: load flips; the next boundary re-splits the other way.
    for (int i = 0; i < 10; ++i) {
        fx.pump(fx.a, wa, 10);
        fx.pump(fx.b, wb, 90);
    }
    r = fx.mc.tick_all();
    EXPECT_LT(r.for_tenant(fx.a)->granted.memory_bytes,
              r.for_tenant(fx.b)->granted.memory_bytes);
}

// -------------------------------------------------------------- TSan stress

/// Two-tenant reconfigure-storm stress (the CI tsan target): a driver
/// thread owns the registry's offer/poll/advance loop for both tenants
/// while two storm threads hammer tenant B's control plane — entry churn
/// through the MPSC queue and full program swaps — concurrently. TSan
/// verifies the per-tenant control queues and ring handoffs are race-free;
/// the final asserts verify B's storm never corrupted A's accounting.
TEST(TenantStress, TwoTenantReconfigureStormUnderThreads) {
    sim::RingConfig rings;
    rings.rx_capacity = 256;
    TenantRegistry reg(nic(), rings);
    TenantId a = reg.add_tenant("a", chain("p_a"));
    TenantId b = reg.add_tenant("b", chain("p_b"));

    trafficgen::FlowSet fa = make_flows(64, 51);
    trafficgen::FlowSet fb = make_flows(64, 52);
    trafficgen::Workload wa(fa, trafficgen::Locality::Zipf, 1.1, 53);
    trafficgen::Workload wb(fb, trafficgen::Locality::Uniform, 0.0, 54);

    constexpr int kRounds = 150;
    std::thread churn([&] {
        Emulator& be = reg.emulator(b);
        for (int i = 0; i < kRounds * 4; ++i) {
            ir::TableEntry e;
            e.key = {ir::FieldMatch::exact(static_cast<std::uint64_t>(i) % 256)};
            e.action_index = i % 2;
            be.insert_entry("t1", e);
            if (i % 4 == 3) be.set_entries("t1", {});
            if (i % 16 == 7) be.mirror({sim::StoreChange::Kind::Erase, "t0", {},
                                        {ir::FieldMatch::exact(~0ull)}, {}});
        }
    });
    std::thread swaps([&] {
        for (int i = 0; i < kRounds / 2; ++i) {
            sim::EpochSwap swap;
            swap.program = chain("p_b");
            reg.emulator(b).queue_epoch(std::move(swap));
        }
    });

    // The driver loop: all offers and polls stay on this thread (the
    // registry's single-driver contract); the storm rides the emulators'
    // MPSC control queues.
    for (int round = 0; round < kRounds; ++round) {
        sim::PacketBatch ba = wa.next_batch(reg.emulator(a).fields(), 48);
        sim::PacketBatch bb = wb.next_batch(reg.emulator(b).fields(), 48);
        reg.offer(a, ba);
        reg.offer(b, bb);
        reg.poll_all(round % 4 == 0 ? 5000.0 : 0.0);
        reg.advance_time(0.001);
    }
    churn.join();
    swaps.join();
    reg.emulator(b).drain_control();
    reg.poll_all();

    assert_conserved(reg.stats(a));
    assert_conserved(reg.stats(b));
    EXPECT_EQ(reg.stats(a).offered, static_cast<std::uint64_t>(kRounds) * 48u);
    EXPECT_EQ(reg.stats(a).completed + reg.stats(a).ring_dropped,
              reg.stats(a).offered);
    EXPECT_EQ(reg.epoch(a), 0u);
    EXPECT_GT(reg.epoch(b), 0u);
}

}  // namespace
}  // namespace pipeleon
