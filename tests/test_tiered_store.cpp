// Tests for the hierarchical flow-state store (sim/tiered_store,
// sim/host_dma — DESIGN.md §14): single-tier bit-equivalence with the flat
// CacheStore (randomized op mirroring), the demotion cascade, batch-boundary
// promotion, DMA cycle accounting, hit-count conservation, and the emulator
// integration (tier.* telemetry, lower-tier cycle charging).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "ir/builder.h"
#include "sim/emulator.h"
#include "sim/host_dma.h"
#include "sim/table_state.h"
#include "sim/tiered_store.h"
#include "telemetry/metrics.h"
#include "util/rng.h"

namespace pipeleon::sim {
namespace {

using ir::MatchKind;
using ir::NodeId;
using ir::ProgramBuilder;
using ir::TableSpec;
using ir::kNoNode;

CacheStore::CacheEntry payload(int marker) {
    return CacheStore::CacheEntry{{static_cast<std::uint64_t>(marker)}};
}

int marker_of(const CacheStore::CacheEntry& e) {
    return e.words.empty() ? -1 : static_cast<int>(e.words[0]);
}

ir::CacheConfig tiered_config(std::size_t sram, std::size_t dram,
                              std::size_t host) {
    ir::CacheConfig cfg;
    cfg.capacity = sram;
    cfg.max_insert_per_sec = 1e9;
    cfg.tiers.dram_entries = dram;
    cfg.tiers.host_entries = host;
    return cfg;
}

TierCosts test_costs() {
    TierCosts c;
    c.l_tier_dram = 30.0;
    c.l_tier_host = 90.0;
    c.dma_setup = 400.0;
    c.dma_per_entry = 16.0;
    return c;
}

// ------------------------------------------- single-tier bit-equivalence
//
// With tiers disabled, TieredStore must delegate straight to the embedded
// CacheStore: identical hit/miss per lookup, accept/drop per insert, size,
// limiter drop count, and eviction order — the acceptance criterion that
// the tentpole does not perturb the flat LRU.

void mirror_against_flat(std::uint64_t seed, ir::CacheConfig cfg, int ops,
                         std::uint64_t key_space) {
    ASSERT_FALSE(cfg.tiers.enabled());
    TieredStore tiered(cfg, test_costs());
    CacheStore flat(cfg);
    EXPECT_FALSE(tiered.tiered());
    util::Rng rng(seed);
    double now = 0.0;
    for (int op = 0; op < ops; ++op) {
        const std::uint64_t k = rng.next_below(key_space);
        const KeyVec key{k, k ^ 0xABCDu};
        const int what = static_cast<int>(rng.next_below(10));
        if (what < 5) {
            const TieredStore::Result r = tiered.lookup(key);
            const CacheStore::CacheEntry* b = flat.lookup(key);
            ASSERT_EQ(r.entry != nullptr, b != nullptr)
                << "lookup divergence op " << op;
            ASSERT_EQ(r.extra_cycles, 0.0);
            ASSERT_EQ(r.tier, b != nullptr ? 0 : -1);
            if (r.entry != nullptr) {
                ASSERT_EQ(marker_of(*r.entry), marker_of(*b));
            }
        } else if (what < 9) {
            const bool a = tiered.insert(key, payload(op), now);
            const bool b = flat.insert(key, payload(op), now);
            ASSERT_EQ(a, b) << "insert divergence op " << op;
        } else if (what == 9 && rng.next_below(8) == 0) {
            tiered.clear();
            flat.clear();
        } else {
            now += 0.001 * static_cast<double>(rng.next_below(50));
        }
        // flush_batch must be a no-op in single-tier mode; interleave it at
        // the cadence the emulator would (every batch boundary).
        if (op % 32 == 31) tiered.flush_batch();
        ASSERT_EQ(tiered.size(), flat.size()) << "size divergence op " << op;
        ASSERT_EQ(tiered.inserts_dropped(), flat.inserts_dropped())
            << "drop-count divergence op " << op;
    }
    // Eviction-order probe: every key still in the flat store must hit the
    // tiered store too (sizes already match, so the key sets are equal).
    const TierStats s = tiered.stats();
    EXPECT_EQ(s.lookups, s.sram_hits + s.misses);
    EXPECT_EQ(s.dram_hits, 0u);
    EXPECT_EQ(s.host_hits, 0u);
    EXPECT_EQ(s.demotions, 0u);
    EXPECT_EQ(s.promotions, 0u);
    EXPECT_EQ(s.tier_cycles, 0.0);
}

TEST(TieredStoreEquivalence, SingleTierMirrorsFlatSmallCache) {
    ir::CacheConfig cfg;
    cfg.capacity = 8;  // constant eviction pressure
    cfg.max_insert_per_sec = 1e9;
    mirror_against_flat(11, cfg, 4000, 32);
}

TEST(TieredStoreEquivalence, SingleTierMirrorsFlatRateLimited) {
    ir::CacheConfig cfg;
    cfg.capacity = 64;
    cfg.max_insert_per_sec = 50.0;  // limiter actively dropping
    mirror_against_flat(12, cfg, 4000, 256);
}

TEST(TieredStoreEquivalence, SingleTierMirrorsFlatZeroCapacity) {
    ir::CacheConfig cfg;
    cfg.capacity = 0;
    cfg.max_insert_per_sec = 1e9;
    mirror_against_flat(13, cfg, 1000, 16);
}

// ------------------------------------------------------ demotion cascade

TEST(TieredStore, EvictionsCascadeDownTheTiers) {
    TieredStore store(tiered_config(2, 2, 2), test_costs());
    ASSERT_TRUE(store.tiered());
    // Seven inserts into a 2+2+2 hierarchy: the oldest falls off the end.
    for (std::uint64_t k = 0; k < 7; ++k) {
        ASSERT_TRUE(store.insert({k}, payload(static_cast<int>(k)), 0.0));
    }
    EXPECT_EQ(store.tier_size(0), 2u);
    EXPECT_EQ(store.tier_size(1), 2u);
    EXPECT_EQ(store.tier_size(2), 2u);
    EXPECT_EQ(store.size(), 6u);

    const TierStats s = store.stats();
    EXPECT_EQ(s.drops, 1u);  // key 0 fell off the host tier
    // Each insert beyond tier-0 capacity demotes one victim from SRAM, and
    // each demotion beyond tier-1 capacity cascades one more from DRAM...
    EXPECT_EQ(s.demotions, 5u + 3u);

    // LRU order is preserved through the cascade: newest in SRAM, oldest
    // surviving keys at the bottom.
    EXPECT_EQ(store.lookup({6}).tier, 0);
    EXPECT_EQ(store.lookup({5}).tier, 0);
    EXPECT_EQ(store.lookup({4}).tier, 1);
    EXPECT_EQ(store.lookup({3}).tier, 1);
    EXPECT_EQ(store.lookup({2}).tier, 2);
    EXPECT_EQ(store.lookup({1}).tier, 2);
    EXPECT_EQ(store.lookup({0}).tier, -1);  // dropped
}

TEST(TieredStore, PayloadSurvivesTheCascade) {
    TieredStore store(tiered_config(1, 1, 4), test_costs());
    for (std::uint64_t k = 0; k < 4; ++k) {
        ASSERT_TRUE(store.insert({k}, payload(100 + static_cast<int>(k)), 0.0));
    }
    // Keys 0 and 1 are now in the host tier; their replay runs rode along.
    const TieredStore::Result r = store.lookup({0});
    ASSERT_EQ(r.tier, 2);
    EXPECT_EQ(marker_of(*r.entry), 100);
}

TEST(TieredStore, DramOnlyHierarchySkipsHost) {
    TieredStore store(tiered_config(1, 2, 0), test_costs());
    for (std::uint64_t k = 0; k < 4; ++k) {
        ASSERT_TRUE(store.insert({k}, payload(static_cast<int>(k)), 0.0));
    }
    EXPECT_EQ(store.tier_size(0), 1u);
    EXPECT_EQ(store.tier_size(1), 2u);
    EXPECT_EQ(store.tier_size(2), 0u);
    EXPECT_EQ(store.stats().drops, 1u);
    EXPECT_EQ(store.lookup({0}).tier, -1);
}

TEST(TieredStore, HostOnlyHierarchyDemotesStraightToHost) {
    TieredStore store(tiered_config(1, 0, 2), test_costs());
    for (std::uint64_t k = 0; k < 3; ++k) {
        ASSERT_TRUE(store.insert({k}, payload(static_cast<int>(k)), 0.0));
    }
    EXPECT_EQ(store.tier_size(1), 0u);
    EXPECT_EQ(store.tier_size(2), 2u);
    EXPECT_EQ(store.lookup({0}).tier, 2);
    EXPECT_EQ(store.lookup({1}).tier, 2);
}

TEST(TieredStore, InsertErasesStaleLowerTierCopy) {
    TieredStore store(tiered_config(1, 4, 4), test_costs());
    ASSERT_TRUE(store.insert({1}, payload(1), 0.0));
    ASSERT_TRUE(store.insert({2}, payload(2), 0.0));  // demotes key 1 to DRAM
    ASSERT_EQ(store.lookup({1}).tier, 1);
    // Re-inserting key 1 (e.g. a fill after a racing invalidation) lands in
    // SRAM and must erase the DRAM copy — one tier per key.
    ASSERT_TRUE(store.insert({1}, payload(11), 0.0));
    EXPECT_EQ(store.tier_size(1), 1u);  // key 2 only (demoted by the insert)
    const TieredStore::Result r = store.lookup({1});
    EXPECT_EQ(r.tier, 0);
    EXPECT_EQ(marker_of(*r.entry), 11);
    EXPECT_EQ(store.size(), 2u);
}

// --------------------------------------------- promotion at batch boundary

TEST(TieredStore, PromotionMovesHotDramEntryUpAtFlush) {
    ir::CacheConfig cfg = tiered_config(1, 4, 0);
    cfg.tiers.promote_hits = 2;
    TieredStore store(cfg, test_costs());
    ASSERT_TRUE(store.insert({1}, payload(1), 0.0));
    ASSERT_TRUE(store.insert({2}, payload(2), 0.0));  // key 1 -> DRAM

    EXPECT_EQ(store.lookup({1}).tier, 1);  // hit count 1: below threshold
    store.flush_batch();
    EXPECT_EQ(store.tier_size(0), 1u);  // not promoted yet
    EXPECT_EQ(store.stats().promotions, 0u);

    EXPECT_EQ(store.lookup({1}).tier, 1);  // hit count 2: queued
    EXPECT_EQ(store.lookup({1}).tier, 1);  // still DRAM until the boundary
    store.flush_batch();

    EXPECT_EQ(store.stats().promotions, 1u);
    const TieredStore::Result r = store.lookup({1});
    EXPECT_EQ(r.tier, 0);
    EXPECT_EQ(marker_of(*r.entry), 1);
    // Promotion evicted key 2 from the 1-entry SRAM down into DRAM.
    EXPECT_EQ(store.lookup({2}).tier, 1);
    EXPECT_EQ(store.size(), 2u);
}

TEST(TieredStore, HostEntriesPromoteToDramFirst) {
    ir::CacheConfig cfg = tiered_config(1, 2, 4);
    cfg.tiers.promote_hits = 1;  // promote on the first lower-tier hit
    TieredStore store(cfg, test_costs());
    for (std::uint64_t k = 0; k < 4; ++k) {
        ASSERT_TRUE(store.insert({k}, payload(static_cast<int>(k)), 0.0));
    }
    ASSERT_EQ(store.lookup({0}).tier, 2);
    store.flush_batch();
    // One step up per boundary: host -> DRAM, not straight to SRAM.
    EXPECT_EQ(store.lookup({0}).tier, 1);
    EXPECT_EQ(store.stats().promotions, 1u);
}

TEST(TieredStore, HostPromotesToSramWhenDramAbsent) {
    ir::CacheConfig cfg = tiered_config(1, 0, 4);
    cfg.tiers.promote_hits = 1;
    TieredStore store(cfg, test_costs());
    ASSERT_TRUE(store.insert({1}, payload(1), 0.0));
    ASSERT_TRUE(store.insert({2}, payload(2), 0.0));  // key 1 -> host
    ASSERT_EQ(store.lookup({1}).tier, 2);
    store.flush_batch();
    EXPECT_EQ(store.lookup({1}).tier, 0);
    EXPECT_EQ(store.stats().promotions, 1u);
}

TEST(TieredStore, DecayExpiresOldHeat) {
    ir::CacheConfig cfg = tiered_config(1, 4, 0);
    cfg.tiers.promote_hits = 2;
    cfg.tiers.decay_every = 1;  // halve counters at every batch boundary
    TieredStore store(cfg, test_costs());
    ASSERT_TRUE(store.insert({1}, payload(1), 0.0));
    ASSERT_TRUE(store.insert({2}, payload(2), 0.0));  // key 1 -> DRAM

    // One hit per batch never reaches the threshold: each boundary halves
    // the counter back to zero before the next hit.
    for (int round = 0; round < 6; ++round) {
        ASSERT_EQ(store.lookup({1}).tier, 1);
        store.flush_batch();
        ASSERT_EQ(store.stats().promotions, 0u) << "round " << round;
    }
    // Two hits inside one batch do cross it.
    ASSERT_EQ(store.lookup({1}).tier, 1);
    ASSERT_EQ(store.lookup({1}).tier, 1);
    store.flush_batch();
    EXPECT_EQ(store.stats().promotions, 1u);
    EXPECT_EQ(store.lookup({1}).tier, 0);
}

// ------------------------------------------------------- cycle accounting

TEST(HostDmaEngine, ChargesSetupOncePerFullBatch) {
    HostDmaEngine dma(4, DmaCosts{400.0, 16.0});
    double charged = 0.0;
    for (std::uint32_t i = 0; i < 12; ++i) charged += dma.fetch(i, i);
    const DmaStats& s = dma.stats();
    EXPECT_EQ(s.fetches, 12u);
    EXPECT_EQ(s.batches, 3u);  // 12 fetches / batch of 4
    EXPECT_EQ(s.flushes, 0u);
    EXPECT_DOUBLE_EQ(s.cycles, 400.0 * 3 + 16.0 * 12);
    // Every cycle the engine recorded was charged to some access.
    EXPECT_DOUBLE_EQ(charged + dma.carry(), s.cycles);
    EXPECT_EQ(dma.pending(), 0u);
    EXPECT_DOUBLE_EQ(dma.carry(), 0.0);
}

TEST(HostDmaEngine, FlushCarriesSetupIntoNextFetch) {
    HostDmaEngine dma(8, DmaCosts{400.0, 16.0});
    double charged = dma.fetch(1, 1) + dma.fetch(2, 2);
    EXPECT_EQ(dma.pending(), 2u);
    dma.flush();  // partial batch: doorbell now, cost carried
    EXPECT_EQ(dma.pending(), 0u);
    EXPECT_DOUBLE_EQ(dma.carry(), 400.0);
    EXPECT_EQ(dma.stats().flushes, 1u);
    EXPECT_DOUBLE_EQ(dma.stats().cycles, 400.0 + 16.0 * 2);

    // The next fetch picks up the carried doorbell cost exactly once.
    charged += dma.fetch(3, 3);
    EXPECT_DOUBLE_EQ(dma.carry(), 0.0);
    EXPECT_DOUBLE_EQ(charged + dma.carry(),
                     dma.stats().cycles - 0.0);  // nothing lost or doubled
    EXPECT_DOUBLE_EQ(dma.stats().cycles, 400.0 + 16.0 * 3);
}

TEST(HostDmaEngine, FlushOfEmptyRingIsFree) {
    HostDmaEngine dma(4, DmaCosts{400.0, 16.0});
    dma.flush();
    EXPECT_EQ(dma.stats().batches, 0u);
    EXPECT_DOUBLE_EQ(dma.stats().cycles, 0.0);
    EXPECT_DOUBLE_EQ(dma.carry(), 0.0);
}

TEST(HostDmaEngine, RandomizedAccountingInvariant) {
    HostDmaEngine dma(8, DmaCosts{100.0, 7.0});
    util::Rng rng(99);
    double charged = 0.0;
    for (int i = 0; i < 5000; ++i) {
        if (rng.next_below(16) == 0) {
            dma.flush();
        } else {
            charged += dma.fetch(static_cast<std::uint32_t>(i),
                                 rng.next_below(1u << 20));
        }
        const DmaStats& s = dma.stats();
        ASSERT_DOUBLE_EQ(s.cycles, 100.0 * static_cast<double>(s.batches) +
                                       7.0 * static_cast<double>(s.fetches));
        // Charged + carry covers everything recorded so far: per-entry cost
        // is recorded at fetch time, setup at doorbell time.
        ASSERT_DOUBLE_EQ(charged + dma.carry(), s.cycles);
    }
}

TEST(TieredStore, LowerTierHitsChargeExtraCycles) {
    ir::CacheConfig cfg = tiered_config(1, 1, 4);
    cfg.tiers.promote_hits = 1000;  // keep entries where they are
    cfg.tiers.dma_batch = 2;
    TieredStore store(cfg, test_costs());
    for (std::uint64_t k = 0; k < 4; ++k) {
        ASSERT_TRUE(store.insert({k}, payload(static_cast<int>(k)), 0.0));
    }
    // Layout now: SRAM {3}, DRAM {2}, host {1, 0}.
    EXPECT_DOUBLE_EQ(store.lookup({3}).extra_cycles, 0.0);
    EXPECT_DOUBLE_EQ(store.lookup({2}).extra_cycles, 30.0);  // l_tier_dram

    // Two host hits fill the 2-descriptor DMA batch: the first pays only
    // per_entry, the second additionally rings the doorbell.
    EXPECT_DOUBLE_EQ(store.lookup({1}).extra_cycles, 90.0 + 16.0);
    EXPECT_DOUBLE_EQ(store.lookup({0}).extra_cycles, 90.0 + 16.0 + 400.0);

    const TierStats s = store.stats();
    EXPECT_EQ(s.dma_fetches, 2u);
    EXPECT_EQ(s.dma_batches, 1u);
    // tier_cycles folds the per-access charges: one DRAM premium plus the
    // host premiums plus the completed DMA batch.
    EXPECT_DOUBLE_EQ(s.tier_cycles, 30.0 + 2 * 90.0 + 2 * 16.0 + 400.0);
    EXPECT_DOUBLE_EQ(s.tier_cycles,
                     30.0 * static_cast<double>(s.dram_hits) +
                         90.0 * static_cast<double>(s.host_hits) +
                         400.0 * static_cast<double>(s.dma_batches) +
                         16.0 * static_cast<double>(s.dma_fetches));
    EXPECT_EQ(s.lookups, s.sram_hits + s.dram_hits + s.host_hits + s.misses);
}

// ---------------------------------------------------------- conservation

TEST(TieredStore, RandomizedConservationAcrossTiers) {
    ir::CacheConfig cfg = tiered_config(16, 64, 256);
    cfg.tiers.promote_hits = 2;
    cfg.tiers.decay_every = 8;
    cfg.tiers.dma_batch = 8;
    TieredStore store(cfg, test_costs());
    util::Rng rng(7);
    double now = 0.0;
    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t k = rng.next_below(600);
        const KeyVec key{k};
        if (rng.next_below(10) < 6) {
            const TieredStore::Result r = store.lookup(key);
            if (r.entry == nullptr) {
                store.insert(key, payload(static_cast<int>(k)), now);
            }
        } else {
            now += 0.0001;
        }
        if (op % 64 == 63) store.flush_batch();
        if (op % 997 == 0) {
            const TierStats s = store.stats();
            ASSERT_EQ(s.lookups,
                      s.sram_hits + s.dram_hits + s.host_hits + s.misses)
                << "conservation violated at op " << op;
        }
    }
    const TierStats s = store.stats();
    EXPECT_EQ(s.lookups, s.sram_hits + s.dram_hits + s.host_hits + s.misses);
    // A 600-key working set over 16+64+256 capacity must exercise every
    // tier and both movement directions.
    EXPECT_GT(s.dram_hits, 0u);
    EXPECT_GT(s.host_hits, 0u);
    EXPECT_GT(s.promotions, 0u);
    EXPECT_GT(s.demotions, 0u);
    EXPECT_GT(s.drops, 0u);
    // Disjointness: total live entries never exceed the combined budget.
    EXPECT_LE(store.size(), 16u + 64u + 256u);
    EXPECT_EQ(store.size(),
              store.tier_size(0) + store.tier_size(1) + store.tier_size(2));
}

TEST(TieredStore, ClearEmptiesAllTiers) {
    TieredStore store(tiered_config(2, 2, 2), test_costs());
    for (std::uint64_t k = 0; k < 6; ++k) {
        ASSERT_TRUE(store.insert({k}, payload(static_cast<int>(k)), 0.0));
    }
    ASSERT_EQ(store.size(), 6u);
    store.clear();
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.tier_size(0), 0u);
    EXPECT_EQ(store.tier_size(1), 0u);
    EXPECT_EQ(store.tier_size(2), 0u);
    for (std::uint64_t k = 0; k < 6; ++k) {
        EXPECT_EQ(store.lookup({k}).tier, -1);
    }
    // Refill into the recycled storage works.
    ASSERT_TRUE(store.insert({42}, payload(42), 1.0));
    EXPECT_EQ(store.lookup({42}).tier, 0);
}

// ------------------------------------------------- emulator integration

ir::Program tiered_cache_program(std::size_t sram, std::size_t dram) {
    ProgramBuilder b("tiered");
    ir::Action set_x;
    set_x.name = "set_x";
    set_x.primitives.push_back(ir::Primitive::set_from_arg("x", 0));
    ir::Table a = TableSpec("A").key("src").action(set_x).build();

    ir::Table cache;
    cache.name = "cache_A";
    cache.role = ir::TableRole::Cache;
    cache.keys = {{"src", MatchKind::Exact, 32}};
    ir::Action hit;
    hit.name = "cache_hit";
    cache.actions.push_back(hit);
    cache.default_action = -1;
    cache.origin_tables = {"A"};
    cache.cache.capacity = sram;
    cache.cache.max_insert_per_sec = 1e9;
    cache.cache.tiers.dram_entries = dram;
    cache.cache.tiers.promote_hits = 2;

    NodeId c = b.add(cache);
    NodeId na = b.add(a);
    b.connect_action(c, 0, kNoNode);
    b.connect_miss(c, na);
    b.set_root(c);
    return b.build();
}

NicModel tiered_model() {
    NicModel m;
    m.name = "test";
    m.costs.l_mat = 10.0;
    m.costs.l_act = 2.0;
    m.costs.l_branch = 1.0;
    m.costs.l_counter = 0.0;
    m.costs.l_migration = 100.0;
    m.costs.cpu_slowdown = 3.0;
    m.costs.l_tier_dram = 30.0;
    m.costs.l_tier_host = 90.0;
    m.costs.dma_setup = 400.0;
    m.costs.dma_per_entry = 16.0;
    m.line_rate_gbps = 100.0;
    m.cycles_per_second = 1e9;
    m.cores = 1;
    return m;
}

Packet flow_packet(Emulator& emu, std::uint64_t src) {
    Packet p;
    p.set(emu.fields().intern("src"), src);
    return p;
}

TEST(EmulatorTiered, DramHitReplaysAndChargesPremium) {
    // SRAM capacity 1, DRAM 8: the second flow demotes the first.
    Emulator emu(tiered_model(), tiered_cache_program(1, 8), {});
    ir::TableEntry e1;
    e1.key = {ir::FieldMatch::exact(1)};
    e1.action_index = 0;
    e1.action_data = {11};
    ir::TableEntry e2;
    e2.key = {ir::FieldMatch::exact(2)};
    e2.action_index = 0;
    e2.action_data = {22};
    ASSERT_TRUE(emu.insert_entry("A", e1));
    ASSERT_TRUE(emu.insert_entry("A", e2));

    // Flow 1 misses, traverses A, fills the cache.
    Packet p1 = flow_packet(emu, 1);
    ProcessResult r1 = emu.process(p1);
    EXPECT_DOUBLE_EQ(r1.cycles, 10.0 + 12.0);  // probe + A
    EXPECT_EQ(emu.cache_size("cache_A"), 1u);

    // Flow 2 fills too, demoting flow 1 to the DRAM tier.
    Packet p2 = flow_packet(emu, 2);
    emu.process(p2);
    EXPECT_EQ(emu.cache_size("cache_A"), 2u);  // across both tiers

    // Flow 1 again: DRAM hit — replay, plus the l_tier_dram premium.
    Packet p3 = flow_packet(emu, 1);
    ProcessResult r3 = emu.process(p3);
    EXPECT_EQ(p3.get(emu.fields().find("x")), 11u);
    EXPECT_DOUBLE_EQ(r3.cycles, 10.0 + 2.0 + 30.0);  // probe + replay + tier

    auto raw = emu.read_counters();
    NodeId cache_node = emu.program().find_table("cache_A");
    EXPECT_EQ(raw.cache_hits[static_cast<std::size_t>(cache_node)], 1u);
    EXPECT_EQ(raw.cache_misses[static_cast<std::size_t>(cache_node)], 2u);
}

TEST(EmulatorTiered, TierMetricsAndBatchBoundaryPromotion) {
    Emulator emu(tiered_model(), tiered_cache_program(1, 8), {});
    ir::TableEntry e1;
    e1.key = {ir::FieldMatch::exact(1)};
    e1.action_index = 0;
    e1.action_data = {11};
    ir::TableEntry e2;
    e2.key = {ir::FieldMatch::exact(2)};
    e2.action_index = 0;
    e2.action_data = {22};
    ASSERT_TRUE(emu.insert_entry("A", e1));
    ASSERT_TRUE(emu.insert_entry("A", e2));

    Packet p1 = flow_packet(emu, 1);
    emu.process(p1);  // fill flow 1
    Packet p2 = flow_packet(emu, 2);
    emu.process(p2);  // fill flow 2, demote flow 1

    // Two DRAM hits cross promote_hits=2; process() boundaries flush, so
    // the second hit's boundary promotes flow 1 back to SRAM.
    Packet p3 = flow_packet(emu, 1);
    emu.process(p3);
    Packet p4 = flow_packet(emu, 1);
    emu.process(p4);
    Packet p5 = flow_packet(emu, 1);
    ProcessResult r5 = emu.process(p5);
    EXPECT_DOUBLE_EQ(r5.cycles, 10.0 + 2.0);  // SRAM hit again, no premium

    telemetry::MetricsSnapshot snap = emu.telemetry_snapshot();
    EXPECT_EQ(snap.counter("tier.lookups"), 5u);
    EXPECT_EQ(snap.counter("tier.misses"), 2u);
    EXPECT_EQ(snap.counter("tier.dram_hits"), 2u);
    EXPECT_EQ(snap.counter("tier.sram_hits"), 1u);
    EXPECT_EQ(snap.counter("tier.promotions"), 1u);
    EXPECT_GE(snap.counter("tier.demotions"), 2u);
    EXPECT_DOUBLE_EQ(snap.gauge("tier.cycles"), 2 * 30.0);
}

TEST(EmulatorTiered, TierCountersSurviveAWorkerShrink) {
    NicModel model = tiered_model();
    model.cores = 2;
    Emulator emu(model, tiered_cache_program(4, 64), {});
    for (std::uint64_t f = 0; f < 32; ++f) {
        ir::TableEntry e;
        e.key = {ir::FieldMatch::exact(f)};
        e.action_index = 0;
        e.action_data = {f};
        ASSERT_TRUE(emu.insert_entry("A", e));
    }
    emu.set_worker_count(2);
    ASSERT_EQ(emu.worker_count(), 2);
    RssDispatcher io = emu.make_rings();
    for (int round = 0; round < 4; ++round) {
        PacketBatch batch;
        for (std::uint64_t f = 0; f < 32; ++f) batch.push_back(flow_packet(emu, f));
        ASSERT_EQ(io.dispatch_batch(batch), 32u);
        ASSERT_EQ(emu.poll(io).ring_completed, 32u);
    }
    const char* const kCounters[] = {
        "tier.lookups",    "tier.sram_hits",  "tier.dram_hits",
        "tier.host_hits",  "tier.misses",     "tier.promotions",
        "tier.demotions",  "tier.drops",      "tier.dma_batches",
        "tier.dma_fetches"};
    const telemetry::MetricsSnapshot before = emu.telemetry_snapshot();
    ASSERT_EQ(before.counter("tier.lookups"), 128u);

    // The shrink drops worker 1's shard and its lifetime stats with it.
    emu.set_worker_count(1);
    Packet p = flow_packet(emu, 0);
    emu.process(p);
    const telemetry::MetricsSnapshot after = emu.telemetry_snapshot();
    EXPECT_EQ(after.counter("tier.lookups"), 129u);
    for (const char* name : kCounters) {
        EXPECT_GE(after.counter(name), before.counter(name)) << name;
    }
}

TEST(EmulatorTiered, UntieredProgramReportsNoTierTraffic) {
    // tiers disabled: the tier.* metrics stay silent even while the flat
    // cache takes traffic (has_tiered_ gates the fold entirely).
    Emulator emu(tiered_model(), tiered_cache_program(4, 0), {});
    ir::TableEntry e1;
    e1.key = {ir::FieldMatch::exact(1)};
    e1.action_index = 0;
    e1.action_data = {11};
    ASSERT_TRUE(emu.insert_entry("A", e1));
    Packet p1 = flow_packet(emu, 1);
    emu.process(p1);
    Packet p2 = flow_packet(emu, 1);
    emu.process(p2);
    telemetry::MetricsSnapshot snap = emu.telemetry_snapshot();
    EXPECT_EQ(snap.counter("tier.lookups"), 0u);
    EXPECT_EQ(snap.counter("tier.sram_hits"), 0u);
}

}  // namespace
}  // namespace pipeleon::sim
