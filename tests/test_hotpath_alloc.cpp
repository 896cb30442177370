// tests/test_hotpath_alloc.cpp — proves the data-plane hot path is
// allocation-free in steady state. A global operator new/delete override
// counts every heap allocation made while `g_counting` is armed; each test
// warms an emulator until all flows are cached and every amortized buffer
// (ring slots, worker scratch, result vector, counter shards) has reached
// its high-water capacity, then asserts that further dispatch -> poll
// rounds make exactly zero allocations across all worker threads.
//
// This binary owns the override, so it must not be linked into other tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "apps/scenarios.h"
#include "cached_chain.h"
#include "ir/builder.h"
#include "sim/emulator.h"
#include "sim/nic_model.h"
#include "sim/tiered_store.h"
#include "trafficgen/workload.h"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};

void note_alloc() {
    if (g_counting.load(std::memory_order_relaxed)) {
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    }
}

void* counted_alloc(std::size_t size) {
    note_alloc();
    void* p = std::malloc(size ? size : 1);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
    note_alloc();
    void* p = nullptr;
    if (align < sizeof(void*)) align = sizeof(void*);
    if (posix_memalign(&p, align, size ? size : align) != 0) {
        throw std::bad_alloc();
    }
    return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    note_alloc();
    return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    note_alloc();
    return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t al) {
    return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
    return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace pipeleon::sim {
namespace {

constexpr int kChainLen = 6;
constexpr int kFlows = 128;

TEST(HotPathAlloc, HookCountsAllocations) {
    g_alloc_count.store(0);
    g_counting.store(true);
    auto* v = new std::vector<int>(64);
    g_counting.store(false);
    delete v;
    EXPECT_GE(g_alloc_count.load(), 1u) << "override not linked in";
}

/// Runs `prog` on two workers until every flow of a fixed burst is cached,
/// then replays the burst 10 more times; returns the heap allocations those
/// polls made, and (in `hits`) the cache hits they scored.
std::uint64_t cached_hit_path_allocations(const ir::Program& prog,
                                          std::uint64_t& hits) {
    Emulator emu(bluefield2_model(), prog, {});
    emu.set_worker_count(2);

    util::Rng rng(6);
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < kChainLen; ++i) {
        // snprintf, not string operator+: GCC 12 -O3 emits a bogus
        // -Wrestrict through char_traits when the concat inlines against
        // this binary's custom operator new, and CI builds with -Werror.
        char name[16];
        std::snprintf(name, sizeof(name), "f%d", i);
        tuple.push_back({name, 0, 255});
    }
    trafficgen::FlowSet flows =
        trafficgen::FlowSet::generate(tuple, kFlows, rng);
    apps::install_flow_entries(emu, flows);
    trafficgen::Workload wl(flows, trafficgen::Locality::Zipf, 1.1, 4);

    // The same burst replays every round. Warm-up learns all flows, cycles
    // every RX slot of both queues (so each slot's inline Packet has held a
    // full-width packet), and grows the result vector to its high water.
    const PacketBatch pristine = wl.next_batch(emu.fields(), 256);
    RingConfig cfg;
    cfg.rx_capacity = 512;
    RssDispatcher io = emu.make_rings(cfg);
    BatchResult out;
    for (int i = 0; i < 24; ++i) {
        io.dispatch_batch(pristine);
        emu.poll(io, out);
    }

    profile::RawCounters before = emu.read_counters();

    g_alloc_count.store(0);
    g_counting.store(true);
    for (int i = 0; i < 10; ++i) {
        io.dispatch_batch(pristine);
        emu.poll(io, out);
    }
    g_counting.store(false);
    const std::uint64_t allocs = g_alloc_count.load();

    profile::RawCounters after = emu.read_counters();
    hits = 0;
    for (std::uint64_t h : after.cache_hits) hits += h;
    for (std::uint64_t h : before.cache_hits) hits -= h;
    return allocs;
}

/// The flow-cache hit path: once every flow in the burst has been learned,
/// replaying the burst is pure cache hits and must not touch the heap.
TEST(HotPathAlloc, CachedProgramHitPathMakesZeroAllocations) {
    std::uint64_t hits = 0;
    EXPECT_EQ(cached_hit_path_allocations(
                  test_support::cached_chain("p", kChainLen), hits),
              0u)
        << "cache-hit replay path allocated in steady state";
    // The cache was genuinely exercised during the counted region.
    EXPECT_GT(hits, 0u);
}

/// The same when the covered tables' actions take arguments: a hit decodes
/// them from the cached run in place.
TEST(HotPathAlloc, CachedProgramWithActionArgsHitPathMakesZeroAllocations) {
    std::uint64_t hits = 0;
    EXPECT_EQ(cached_hit_path_allocations(
                  test_support::cached_chain("p", kChainLen, 2), hits),
              0u)
        << "cache-hit replay of inline arguments allocated in steady state";
    EXPECT_GT(hits, 0u);
}

/// The plain chain through the descriptor-ring I/O path: once the
/// ring slots' inline Packets have grown to the workload's field count and
/// the OfferedLoad source has interned its tuple ids, an offer -> poll cycle
/// is pure copy-assignment into pre-sized storage and must stay off the heap.
TEST(HotPathAlloc, RingOfferPollLoopMakesZeroAllocations) {
    ir::Program prog = ir::chain_of_exact_tables("p", kChainLen, 2, 1);
    Emulator emu(bluefield2_model(), prog, {});
    emu.set_worker_count(4);

    util::Rng rng(7);
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < kChainLen; ++i) {
        // snprintf, not string operator+: GCC 12 -O3 emits a bogus
        // -Wrestrict through char_traits when the concat inlines against
        // this binary's custom operator new, and CI builds with -Werror.
        char name[16];
        std::snprintf(name, sizeof(name), "f%d", i);
        tuple.push_back({name, 0, 255});
    }
    trafficgen::FlowSet flows =
        trafficgen::FlowSet::generate(tuple, kFlows, rng);
    apps::install_flow_entries(emu, flows);
    trafficgen::Workload wl(flows, trafficgen::Locality::Zipf, 1.1, 5);

    RingConfig cfg;
    cfg.rx_capacity = 512;
    RssDispatcher io = emu.make_rings(cfg);
    trafficgen::OfferedLoad src(wl, /*pps=*/1.0);  // offer() drives counts
    BatchResult out;

    // Warm-up: every RX slot's inline Packet must have held a max-width
    // packet at least once (copy-assign then reuses field capacity), the TX
    // completion rings must have wrapped, and the poll result vector must
    // reach its high-water size. 24 rounds x 256 packets pushes > 6x the
    // ring capacity through every queue.
    for (int i = 0; i < 24; ++i) {
        src.offer(io, emu.fields(), 256, emu.now_seconds());
        emu.poll(io, out);
    }

    g_alloc_count.store(0);
    g_counting.store(true);
    std::size_t completed = 0;
    for (int i = 0; i < 10; ++i) {
        src.offer(io, emu.fields(), 256, emu.now_seconds());
        emu.poll(io, out);
        completed += out.results.size();
    }
    g_counting.store(false);

    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "descriptor-ring offer/poll loop allocated in steady state";
    EXPECT_EQ(completed, 2560u);
    EXPECT_EQ(out.workers_used, 4);
    EXPECT_EQ(out.ring_dropped, 0u);
}

/// Same criterion through the hierarchical store (ISSUE 9): a steady-state
/// lookup batch over all three tiers — DRAM touches, host hits through the
/// DMA descriptor ring, batch-boundary promotions and the demotion cascade
/// they trigger — must stay off the heap. Every movement between tiers swaps
/// recycled buffers; the pending-promotion list and the DMA ring are sized
/// up front.
TEST(HotPathAlloc, TieredStoreLookupBatchMakesZeroAllocations) {
    ir::CacheConfig cfg;
    cfg.capacity = 32;
    cfg.max_insert_per_sec = 1e9;
    cfg.tiers.dram_entries = 128;
    cfg.tiers.host_entries = 512;
    cfg.tiers.promote_hits = 2;
    cfg.tiers.decay_every = 4;
    cfg.tiers.dma_batch = 8;
    TierCosts costs;
    costs.l_tier_dram = 30.0;
    costs.l_tier_host = 90.0;
    costs.dma_setup = 400.0;
    costs.dma_per_entry = 16.0;
    TieredStore store(cfg, costs);

    constexpr std::uint64_t kKeys = 600;  // fully resident across 32+128+512
    KeyVec key;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
        key.clear();
        key.push_back(k);
        key.push_back(k ^ 0xABCDu);
        ASSERT_TRUE(store.insert(key, CacheStore::CacheEntry{{k}}, 0.0));
    }

    // One deterministic round: a sequential sweep with a batch boundary
    // every 64 lookups, and every seventh key touched twice back-to-back so
    // it crosses promote_hits=2 within one batch — constant promotion and
    // demotion churn through all three tiers. Warm rounds drive every
    // recycled buffer (slot arrays, free lists, probe indices, the pending
    // list, DMA ring) to the same high-water marks the counted rounds
    // revisit.
    auto sweep = [&store, &key]() {
        std::uint64_t hits = 0;
        for (std::uint64_t k = 0; k < kKeys; ++k) {
            key.clear();
            key.push_back(k);
            key.push_back(k ^ 0xABCDu);
            if (store.lookup(key).entry != nullptr) ++hits;
            if (k % 7 == 0 && store.lookup(key).entry != nullptr) ++hits;
            if (k % 64 == 63) store.flush_batch();
        }
        store.flush_batch();
        return hits;
    };
    for (int i = 0; i < 8; ++i) sweep();

    const TierStats before = store.stats();
    g_alloc_count.store(0);
    g_counting.store(true);
    std::uint64_t hits = 0;
    for (int i = 0; i < 5; ++i) hits += sweep();
    g_counting.store(false);

    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "tiered lookup/promotion/DMA path allocated in steady state";
    // Everything stays resident: 32+128+512 capacity holds all 600 keys, so
    // every lookup (600 + 86 double-touches per sweep) hits some tier.
    EXPECT_EQ(hits, 5 * (kKeys + (kKeys + 6) / 7));
    // The counted region genuinely crossed the tiers and the DMA engine.
    const TierStats after = store.stats();
    EXPECT_GT(after.dram_hits, before.dram_hits);
    EXPECT_GT(after.host_hits, before.host_hits);
    EXPECT_GT(after.dma_fetches, before.dma_fetches);
    EXPECT_GT(after.promotions, before.promotions);
    EXPECT_GT(after.demotions, before.demotions);
    EXPECT_EQ(after.lookups,
              after.sram_hits + after.dram_hits + after.host_hits +
                  after.misses);
}

}  // namespace
}  // namespace pipeleon::sim
