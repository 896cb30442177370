// Tests for the batched match path (sim/match_batch.h, DESIGN.md §15): the
// one flow hash agrees across the group path, the single-key hash, rss_hash
// and the cache index hash (randomized, for the empty key, and for every
// group size), and its finisher spreads high-bit-only key
// differences over the low index bits; prefetch() has no side effects;
// NUMA-aware RETA steering (balance + dispatcher/steer_worker agreement);
// and the dispatcher's peek/advance consumer API.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "ir/builder.h"
#include "sim/emulator.h"
#include "sim/flow_hash.h"
#include "sim/match_batch.h"
#include "sim/nic_model.h"
#include "sim/rss.h"
#include "sim/table_state.h"
#include "sim/tiered_store.h"
#include "trafficgen/workload.h"
#include "util/rng.h"
#include "util/strings.h"

namespace pipeleon::sim {
namespace {

constexpr int kChainLen = 6;
constexpr int kFlows = 128;

// ------------------------------------------------------------- one hash

/// Every tier a key is hashed at gives the word reference (flow_hash over
/// the key's values) bit for bit: the group path over a full group of eight
/// packets, rss_hash over each packet, and KeyVecHash / CacheStore::key_hash
/// / TieredStore::key_hash over the gathered key, across randomized field
/// counts and full-width values.
TEST(MatchBatch, HashEquivalenceAcrossTiersRandomized) {
    util::Rng rng(0x5eed);
    for (int round = 0; round < 200; ++round) {
        const std::size_t n_fields = 1 + rng.next_u64() % 12;
        // Field-major word buffer, all kHashGroup lanes populated; word f
        // of a lane's key is its packet's field f.
        std::vector<std::uint64_t> words(n_fields * kHashGroup);
        for (auto& w : words) w = rng.next_u64();
        std::vector<FieldId> fields(n_fields);
        for (std::size_t f = 0; f < n_fields; ++f) fields[f] = static_cast<FieldId>(f);

        std::vector<Packet> pkts(kHashGroup);
        std::uint64_t ref[kHashGroup];
        for (std::size_t lane = 0; lane < kHashGroup; ++lane) {
            KeyVec key(n_fields);
            for (std::size_t f = 0; f < n_fields; ++f) {
                key[f] = words[f * kHashGroup + lane];
                pkts[lane].set(fields[f], key[f]);
            }
            ref[lane] = flow_hash(
                n_fields, [&](std::size_t f) { return words[f * kHashGroup + lane]; });
            ASSERT_EQ(ref[lane], rss_hash(pkts[lane], fields.data(), n_fields));
            ASSERT_EQ(ref[lane], static_cast<std::uint64_t>(KeyVecHash{}(key)));
            ASSERT_EQ(ref[lane], CacheStore::key_hash(key));
            ASSERT_EQ(ref[lane], TieredStore::key_hash(key));
        }

        std::uint64_t out[kHashGroup];
        hash_group([&](std::size_t lane) -> const Packet& { return pkts[lane]; },
                   kHashGroup, fields.data(), n_fields, out);
        for (std::size_t lane = 0; lane < kHashGroup; ++lane) {
            ASSERT_EQ(out[lane], ref[lane])
                << "lane " << lane << ", " << n_fields << " fields";
        }
    }
}

/// Zero-field keys (an empty steering tuple) hash to the finished basis on
/// every tier: each group lane, rss_hash, and the empty KeyVec's hashes.
TEST(MatchBatch, ZeroFieldKeysAgreeAcrossTiers) {
    const std::uint64_t empty = flow_hash_finish(kFlowHashBasis);
    std::vector<Packet> pkts(kHashGroup);
    for (std::size_t lane = 0; lane < kHashGroup; ++lane) {
        pkts[lane].set(0, 0x1000 + lane);  // fields the key does not read
    }
    std::uint64_t out[kHashGroup];
    hash_group([&](std::size_t lane) -> const Packet& { return pkts[lane]; },
               kHashGroup, nullptr, 0, out);
    for (std::size_t lane = 0; lane < kHashGroup; ++lane) {
        EXPECT_EQ(out[lane], empty) << "lane " << lane;
        EXPECT_EQ(rss_hash(pkts[lane], nullptr, 0), empty) << "lane " << lane;
    }
    const KeyVec none;
    EXPECT_EQ(static_cast<std::uint64_t>(KeyVecHash{}(none)), empty);
    EXPECT_EQ(CacheStore::key_hash(none), empty);
    EXPECT_EQ(TieredStore::key_hash(none), empty);
}

/// For keys of 0..12 fields and every group size 1..kHashGroup, each group
/// lane equals the single-key flow hash, rss_hash over the packet, and
/// KeyVecHash / CacheStore::key_hash / TieredStore::key_hash over the
/// gathered key; a partial group writes nothing past n, through
/// hash_group and both MatchBatcher names.
TEST(MatchBatch, BatcherGroupMatchesSingleKeyForAllGroupSizes) {
    util::Rng rng(0x5eed);
    MatchBatcher batcher;
    for (int round = 0; round < 130; ++round) {
        const std::size_t n_fields = static_cast<std::size_t>(round % 13);
        std::vector<FieldId> fields(n_fields);
        for (FieldId& f : fields) f = static_cast<FieldId>(rng.next_u64() % 16);
        std::vector<Packet> pkts(kHashGroup);
        for (Packet& p : pkts) {
            for (FieldId f = 0; f < 16; ++f) p.set(f, rng.next_u64());
        }
        auto at = [&](std::size_t lane) -> const Packet& { return pkts[lane]; };

        std::uint64_t ref[kHashGroup];
        for (std::size_t lane = 0; lane < kHashGroup; ++lane) {
            KeyVec key;
            for (FieldId f : fields) key.push_back(pkts[lane].get(f));
            ref[lane] = flow_hash(n_fields, [&](std::size_t i) { return key[i]; });
            ASSERT_EQ(ref[lane], rss_hash(pkts[lane], fields.data(), n_fields));
            ASSERT_EQ(ref[lane], static_cast<std::uint64_t>(KeyVecHash{}(key)));
            ASSERT_EQ(ref[lane], CacheStore::key_hash(key));
            ASSERT_EQ(ref[lane], TieredStore::key_hash(key));
        }

        for (std::size_t n = 1; n <= kHashGroup; ++n) {
            for (int path = 0; path < 3; ++path) {
                std::uint64_t out[kHashGroup];
                std::fill(out, out + kHashGroup, 0xDEADBEEFULL);
                if (path == 0) hash_group(at, n, fields.data(), n_fields, out);
                if (path == 1) batcher.rss_group(at, n, fields.data(), n_fields, out);
                if (path == 2) batcher.key_group(at, n, fields.data(), n_fields, out);
                for (std::size_t lane = 0; lane < n; ++lane) {
                    ASSERT_EQ(out[lane], ref[lane])
                        << "path " << path << " lane " << lane << " of " << n
                        << ", " << n_fields << " fields";
                }
                for (std::size_t lane = n; lane < kHashGroup; ++lane) {
                    ASSERT_EQ(out[lane], 0xDEADBEEFULL) << "wrote past n=" << n;
                }
            }
        }
    }
}

/// Keys that differ only above bit 32 must still spread over the low bits a
/// power-of-two index reads. Without the SplitMix64 finisher the FNV
/// product's low 32 bits ignore the high key bits, and all of these keys
/// would share one bucket.
TEST(MatchBatch, KeysDifferingAboveBit32SpreadOverLowBits) {
    constexpr std::uint64_t kBuckets = 1024;
    for (std::size_t width : {1u, 2u}) {
        std::set<std::uint64_t> buckets;
        for (std::uint64_t i = 1; i <= kBuckets; ++i) {
            KeyVec key(width, 0x1234);
            key.back() = i << 32 | 0x1234;
            buckets.insert(KeyVecHash{}(key) & (kBuckets - 1));
        }
        // 1024 keys thrown uniformly at 1024 buckets fill ~647 of them.
        EXPECT_GT(buckets.size(), kBuckets / 2) << width << "-word keys";
    }
}

// ------------------------------------------------------------- prefetch

KeyVec make_key(std::uint64_t k) { return KeyVec{k, k * 0x9e3779b97f4a7c15ULL}; }

CacheStore::CacheEntry make_entry(std::uint64_t k) {
    return CacheStore::CacheEntry{{k % 7, k % 3}};
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

trafficgen::FlowSet chain_flows(util::Rng& rng) {
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < kChainLen; ++i) {
        tuple.push_back({util::format("f%d", i), 0, 255});
    }
    return trafficgen::FlowSet::generate(tuple, kFlows, rng);
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

/// Batch dispatch (group hashing) routes identically to per-packet
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
