// Tests for the batched match path (sim/match_batch.h, DESIGN.md §15):
// randomized scalar-vs-SIMD hash equivalence across every dispatch tier,
// CacheStore::lookup_group vs sequential lookup (results AND LRU state),
// scalar-vs-SIMD bit-identity through the emulator, NUMA-aware RETA
// steering (balance + dispatcher/steer_worker agreement), and the
// dispatcher's peek/advance consumer API.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "apps/scenarios.h"
#include "cached_chain.h"
#include "ir/builder.h"
#include "sim/emulator.h"
#include "sim/match_batch.h"
#include "sim/nic_model.h"
#include "sim/rss.h"
#include "sim/table_state.h"
#include "trafficgen/workload.h"
#include "util/rng.h"
#include "util/strings.h"

namespace pipeleon::sim {
namespace {

constexpr int kChainLen = 6;
constexpr int kFlows = 128;

std::vector<SimdTier> available_tiers() {
    std::vector<SimdTier> tiers = {SimdTier::Scalar};
    if (static_cast<int>(cpu_simd_tier()) >= static_cast<int>(SimdTier::Sse2)) {
        tiers.push_back(SimdTier::Sse2);
    }
    if (static_cast<int>(cpu_simd_tier()) >= static_cast<int>(SimdTier::Avx2)) {
        tiers.push_back(SimdTier::Avx2);
    }
    return tiers;
}

// ------------------------------------------------------- hash equivalence

/// Every SIMD tier must produce bit-identical hashes to the scalar word
/// references — and the references themselves must match the production
/// kernels they stand in for (rss_hash over a Packet, KeyVecHash over a
/// KeyVec) — across randomized field counts and values.
TEST(MatchBatch, HashEquivalenceAcrossTiersRandomized) {
    util::Rng rng(0x5eed);
    for (int round = 0; round < 200; ++round) {
        const std::size_t n_fields = 1 + rng.next_u64() % 12;
        // Field-major gather buffer, all kHashGroup lanes populated.
        std::vector<std::uint64_t> words(n_fields * kHashGroup);
        for (auto& w : words) w = rng.next_u64();

        std::uint64_t ref_rss[kHashGroup];
        std::uint64_t ref_key[kHashGroup];
        for (std::size_t lane = 0; lane < kHashGroup; ++lane) {
            std::vector<std::uint64_t> key(n_fields);
            for (std::size_t f = 0; f < n_fields; ++f) {
                key[f] = words[f * kHashGroup + lane];
            }
            ref_rss[lane] = rss_hash_words(key.data(), n_fields);
            ref_key[lane] = key_hash_words(key.data(), n_fields);

            // Anchor the references against the production kernels.
            Packet pkt;
            std::vector<FieldId> fields(n_fields);
            for (std::size_t f = 0; f < n_fields; ++f) {
                fields[f] = static_cast<FieldId>(f);
                pkt.set(fields[f], key[f]);
            }
            ASSERT_EQ(ref_rss[lane], rss_hash(pkt, fields.data(), n_fields));
            ASSERT_EQ(ref_key[lane],
                      static_cast<std::uint64_t>(KeyVecHash{}(key)));
            ASSERT_EQ(ref_key[lane], CacheStore::key_hash(key));
        }

        for (SimdTier tier : available_tiers()) {
            std::uint64_t out[kHashGroup];
            rss_hash8(words.data(), n_fields, out, tier);
            for (std::size_t lane = 0; lane < kHashGroup; ++lane) {
                ASSERT_EQ(out[lane], ref_rss[lane])
                    << "rss tier=" << simd_tier_name(tier) << " lane=" << lane
                    << " n_fields=" << n_fields;
            }
            key_hash8(words.data(), n_fields, out, tier);
            for (std::size_t lane = 0; lane < kHashGroup; ++lane) {
                ASSERT_EQ(out[lane], ref_key[lane])
                    << "key tier=" << simd_tier_name(tier) << " lane=" << lane
                    << " n_fields=" << n_fields;
            }
        }
    }
}

/// Zero-field keys (an empty steering tuple) hash to the same constant on
/// every tier.
TEST(MatchBatch, ZeroFieldKeysAgreeAcrossTiers) {
    std::uint64_t ref[kHashGroup];
    rss_hash8(nullptr, 0, ref, SimdTier::Scalar);
    for (SimdTier tier : available_tiers()) {
        std::uint64_t out[kHashGroup];
        rss_hash8(nullptr, 0, out, tier);
        for (std::size_t lane = 0; lane < kHashGroup; ++lane) {
            EXPECT_EQ(out[lane], ref[lane]);
        }
    }
}

/// PIPELEON_SIMD-style cap strings parse to the documented tiers.
TEST(MatchBatch, SimdTierCapParsing) {
    EXPECT_EQ(simd_tier_cap("0"), SimdTier::Scalar);
    EXPECT_EQ(simd_tier_cap("scalar"), SimdTier::Scalar);
    EXPECT_EQ(simd_tier_cap("1"), SimdTier::Sse2);
    EXPECT_EQ(simd_tier_cap("sse2"), SimdTier::Sse2);
    EXPECT_EQ(simd_tier_cap("2"), SimdTier::Avx2);
    EXPECT_EQ(simd_tier_cap("avx2"), SimdTier::Avx2);
    EXPECT_EQ(simd_tier_cap(nullptr), SimdTier::Avx2);  // no cap
    EXPECT_EQ(simd_tier_cap(""), SimdTier::Avx2);
}

/// The test override forces simd_tier() down to any supported tier and
/// clears back to the process-wide resolution.
TEST(MatchBatch, TierOverrideForcesAndClears) {
    const SimdTier resolved = simd_tier();
    set_simd_tier_for_test(SimdTier::Scalar);
    EXPECT_EQ(simd_tier(), SimdTier::Scalar);
    MatchBatcher forced;  // picks up the overridden tier
    EXPECT_EQ(forced.tier(), SimdTier::Scalar);
    clear_simd_tier_for_test();
    EXPECT_EQ(simd_tier(), resolved);
}

/// MatchBatcher group gather: hashing packets through rss_group/key_group
/// equals hashing each packet's gathered key alone, for every group size
/// 1..kHashGroup (partial tail groups must not read or write past n).
TEST(MatchBatch, BatcherGroupMatchesSingleKeyForAllGroupSizes) {
    util::Rng rng(42);
    const std::size_t n_fields = 5;
    std::vector<FieldId> fields;
    for (std::size_t f = 0; f < n_fields; ++f) {
        fields.push_back(static_cast<FieldId>(f));
    }
    std::vector<Packet> pkts(kHashGroup);
    for (Packet& p : pkts) {
        for (FieldId f : fields) p.set(f, rng.next_u64());
    }
    for (SimdTier tier : available_tiers()) {
        MatchBatcher b(tier);
        for (std::size_t n = 1; n <= kHashGroup; ++n) {
            std::uint64_t out[kHashGroup];
            std::fill(out, out + kHashGroup, 0xDEADBEEFULL);
            b.rss_group([&](std::size_t lane) -> const Packet& {
                return pkts[lane];
            }, n, fields.data(), n_fields, out);
            for (std::size_t lane = 0; lane < n; ++lane) {
                EXPECT_EQ(out[lane],
                          rss_hash(pkts[lane], fields.data(), n_fields));
            }
            for (std::size_t lane = n; lane < kHashGroup; ++lane) {
                EXPECT_EQ(out[lane], 0xDEADBEEFULL) << "wrote past n";
            }
            b.key_group([&](std::size_t lane) -> const Packet& {
                return pkts[lane];
            }, n, fields.data(), n_fields, out);
            for (std::size_t lane = 0; lane < n; ++lane) {
                KeyVec key;
                for (FieldId f : fields) key.push_back(pkts[lane].get(f));
                EXPECT_EQ(out[lane], static_cast<std::uint64_t>(KeyVecHash{}(key)));
            }
        }
    }
}

// -------------------------------------------------- lookup_group identity

KeyVec make_key(std::uint64_t k) { return KeyVec{k, k * 0x9e3779b97f4a7c15ULL}; }

CacheStore::CacheEntry make_entry(std::uint64_t k) {
    CacheStore::CacheEntry e;
    ReplayStep step;
    step.origin_node = static_cast<ir::NodeId>(k % 7);
    step.action_index = static_cast<int>(k % 3);
    e.steps.push_back(step);
    return e;
}

/// lookup_group must equal sequential lookup calls — same hits/misses AND
/// the same LRU state afterwards (exercised by driving both stores past
/// capacity and comparing subsequent eviction behavior).
TEST(MatchBatch, LookupGroupMatchesSequentialLookupAndLru) {
    ir::CacheConfig cfg;
    cfg.capacity = 256;
    cfg.max_insert_per_sec = 1e12;
    CacheStore seq(cfg);
    CacheStore grp(cfg);

    util::Rng rng(99);
    const std::uint64_t key_space = 512;  // 2x capacity: constant pressure
    double now = 0.0;
    for (int round = 0; round < 64; ++round) {
        // Probe a random group (mixed hits and misses) both ways.
        const std::size_t n = 1 + rng.next_u64() % 24;
        std::vector<KeyVec> keys(n);
        std::vector<const KeyVec*> key_ptrs(n);
        std::vector<std::uint64_t> hashes(n);
        for (std::size_t i = 0; i < n; ++i) {
            keys[i] = make_key(rng.next_u64() % key_space);
            key_ptrs[i] = &keys[i];
            hashes[i] = CacheStore::key_hash(keys[i]);
        }
        std::vector<const CacheStore::CacheEntry*> out(n, nullptr);
        grp.lookup_group(key_ptrs.data(), hashes.data(), n, out.data());
        for (std::size_t i = 0; i < n; ++i) {
            const CacheStore::CacheEntry* ref = seq.lookup(keys[i]);
            ASSERT_EQ(ref != nullptr, out[i] != nullptr)
                << "round " << round << " lane " << i;
            if (ref != nullptr) {
                ASSERT_EQ(ref->steps.size(), out[i]->steps.size());
                ASSERT_EQ(ref->steps[0].origin_node, out[i]->steps[0].origin_node);
            }
        }
        // Insert a few keys into both stores (same order): evictions pick
        // the LRU tail, so identical subsequent behavior proves the group
        // path's touches left identical LRU state.
        for (int j = 0; j < 8; ++j) {
            now += 1e-6;
            const KeyVec k = make_key(rng.next_u64() % key_space);
            const std::uint64_t v = k[0];
            ASSERT_EQ(seq.insert(k, make_entry(v), now),
                      grp.insert(k, make_entry(v), now));
        }
        ASSERT_EQ(seq.size(), grp.size());
    }
}

/// prefetch() is side-effect-free at any fill level, including empty.
TEST(MatchBatch, PrefetchIsSideEffectFree) {
    ir::CacheConfig cfg;
    cfg.capacity = 16;
    cfg.max_insert_per_sec = 1e12;
    CacheStore store(cfg);
    store.prefetch(0);  // empty index: must not fault
    store.prefetch(~0ULL);
    store.insert(make_key(1), make_entry(1), 0.0);
    const std::size_t before = store.size();
    for (std::uint64_t h = 0; h < 64; ++h) store.prefetch(h * 0x9e3779b9ULL);
    EXPECT_EQ(store.size(), before);
    EXPECT_NE(store.lookup(make_key(1)), nullptr);
}

// ------------------------------------------------- emulator bit-identity

trafficgen::FlowSet chain_flows(util::Rng& rng) {
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < kChainLen; ++i) {
        tuple.push_back({util::format("f%d", i), 0, 255});
    }
    return trafficgen::FlowSet::generate(tuple, kFlows, rng);
}

void expect_counters_identical(const profile::RawCounters& a,
                               const profile::RawCounters& b) {
    EXPECT_EQ(a.action_hits, b.action_hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.branch_true, b.branch_true);
    EXPECT_EQ(a.branch_false, b.branch_false);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.cache_misses, b.cache_misses);
    EXPECT_EQ(a.inserts_dropped, b.inserts_dropped);
    EXPECT_EQ(a.replays, b.replays);
    EXPECT_EQ(a.entries, b.entries);
}

void expect_latency_identical(const util::RunningStats& a,
                              const util::RunningStats& b) {
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.sum(), b.sum());  // bit-identical, not just approximately
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
}

/// Forcing the scalar hash tier must not change emulator results either
/// (the SIMD kernels are bit-identical, so steering and probes agree).
TEST(MatchBatch, ScalarTierMatchesSimdTierThroughEmulator) {
    ir::Program prog = test_support::cached_chain("p", kChainLen);
    util::Rng rng(13);
    trafficgen::FlowSet flows = chain_flows(rng);

    auto run = [&](SimdTier tier) {
        set_simd_tier_for_test(tier);
        Emulator emu(bluefield2_model(), prog, {});
        emu.set_worker_count(4);
        apps::install_flow_entries(emu, flows);
        trafficgen::Workload wl(flows, trafficgen::Locality::Zipf, 1.1, 3);
        // Note: worker scratch and dispatcher MatchBatchers snapshot the
        // tier at construction, which happens after set_worker_count above.
        RssDispatcher io = emu.make_rings();
        int done = 0;
        while (done < 2000) {
            io.dispatch_batch(wl.next_batch(emu.fields(), 64));
            emu.poll(io);
            done += 64;
        }
        auto counters = emu.read_counters();
        auto latency = emu.latency_stats();
        clear_simd_tier_for_test();
        return std::make_pair(counters, latency);
    };

    auto [c_scalar, l_scalar] = run(SimdTier::Scalar);
    auto [c_simd, l_simd] = run(cpu_simd_tier());
    expect_counters_identical(c_scalar, c_simd);
    expect_latency_identical(l_scalar, l_simd);
}

// ------------------------------------------------------ steering / RETA

/// With several workers the RETA must (a) cover the bucket space in
/// contiguous equal blocks (balance), and (b) agree with steer_worker for
/// every packet the dispatcher routes.
TEST(MatchBatch, RetaBalancedAndDispatcherAgreesWithBatchSteering) {
    ir::Program prog = ir::chain_of_exact_tables("p", kChainLen, 2, 1);
    Emulator emu(bluefield2_model(), prog, {});
    emu.set_worker_count(4);
    ASSERT_EQ(emu.worker_count(), 4);

    RssDispatcher io = emu.make_rings();
    ASSERT_EQ(io.queue_count(), 4u);
    const std::vector<std::uint32_t>& reta = io.steer_map();
    ASSERT_FALSE(reta.empty());
    ASSERT_EQ(reta.size() & (reta.size() - 1), 0u) << "power of two";
    std::vector<int> bucket_count(4, 0);
    for (std::uint32_t w : reta) {
        ASSERT_LT(w, 4u);
        ++bucket_count[w];
    }
    for (int w = 0; w < 4; ++w) {
        EXPECT_EQ(bucket_count[w], static_cast<int>(reta.size()) / 4)
            << "equal blocks";
    }

    util::Rng rng(3);
    trafficgen::FlowSet flows = chain_flows(rng);
    trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 1.0, 5);
    for (int i = 0; i < 512; ++i) {
        Packet pkt = wl.next_packet(emu.fields());
        const int q = io.dispatch(pkt);
        ASSERT_GE(q, 0);
        EXPECT_EQ(q, emu.steer_worker(pkt));
    }
}

/// The two-phase peek/advance consumer API exposes exactly the pending
/// descriptors, each a copy of the packet dispatched with that arrival seq,
/// on the queue its steering hash picks.
TEST(MatchBatch, DispatcherPeekAdvanceDrainsEachQueue) {
    FieldTable fields;
    const FieldId f0 = fields.intern("a");
    const FieldId f1 = fields.intern("b");
    const std::vector<FieldId> steer = {f0, f1};
    RssDispatcher io(2, steer);

    util::Rng rng(5);
    std::vector<Packet> sent;
    for (int i = 0; i < 64; ++i) {
        Packet p;
        p.set(f0, rng.next_u64() % 1024);
        p.set(f1, rng.next_u64() % 1024);
        sent.push_back(p);
        ASSERT_GE(io.dispatch(p), 0);
    }

    std::size_t seen = 0;
    for (std::size_t q = 0; q < io.queue_count(); ++q) {
        auto& rx = io.queue(q).rx();
        RxDesc* group[kHashGroup];
        std::size_t g;
        while ((g = rx.peek(group, kHashGroup)) > 0) {
            for (std::size_t i = 0; i < g; ++i) {
                const RxDesc& d = *group[i];
                const Packet& orig = sent[static_cast<std::size_t>(d.seq)];
                EXPECT_EQ(d.packet.get(f0), orig.get(f0)) << "seq " << d.seq;
                EXPECT_EQ(d.packet.get(f1), orig.get(f1)) << "seq " << d.seq;
                EXPECT_EQ(rss_hash(orig, steer.data(), steer.size()) % 2, q)
                    << "seq " << d.seq;
                ++seen;
            }
            rx.advance(g);
        }
        EXPECT_TRUE(rx.empty());
    }
    EXPECT_EQ(seen, sent.size());
}

/// Batch dispatch (SIMD group hashing) routes identically to per-packet
/// dispatch and accepts the same packets.
TEST(MatchBatch, DispatchBatchMatchesPerPacketDispatch) {
    FieldTable fields;
    const FieldId f0 = fields.intern("a");
    const FieldId f1 = fields.intern("b");
    const std::vector<FieldId> steer = {f0, f1};
    RssDispatcher a(4, steer);
    RssDispatcher b(4, steer);

    util::Rng rng(17);
    PacketBatch batch(67);  // not a multiple of kHashGroup: tail path too
    for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].set(f0, rng.next_u64());
        batch[i].set(f1, rng.next_u64());
    }
    std::size_t accepted_a = 0;
    for (const Packet& p : batch) {
        if (a.dispatch(p) >= 0) ++accepted_a;
    }
    const std::size_t accepted_b = b.dispatch_batch(batch);
    EXPECT_EQ(accepted_a, accepted_b);
    for (std::size_t q = 0; q < 4; ++q) {
        EXPECT_EQ(a.queue(q).rx().size(), b.queue(q).rx().size());
    }
}

}  // namespace
}  // namespace pipeleon::sim
