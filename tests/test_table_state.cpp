// Direct unit tests for sim/table_state: TableState entry management and
// CacheStore mechanics — LRU, limiter, and the lower tiers' swap-in, hit
// counts, extract and erase (the emulator tests exercise them end-to-end;
// these pin down the data-structure contracts).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/builder.h"
#include "sim/table_state.h"
#include "util/rng.h"

namespace pipeleon::sim {
namespace {

using ir::FieldMatch;
using ir::TableEntry;
using ir::TableSpec;

TableEntry entry(std::uint64_t key, int action = 0) {
    TableEntry e;
    e.key = {FieldMatch::exact(key)};
    e.action_index = action;
    return e;
}

TEST(TableState, InsertLookupEraseModify) {
    ir::Table t = TableSpec("t").key("f").noop_action("a").noop_action("b").build();
    TableState state(t);
    EXPECT_EQ(state.update_count(), 0u);

    EXPECT_TRUE(state.insert(entry(1, 0)));
    EXPECT_TRUE(state.insert(entry(2, 1)));
    EXPECT_EQ(state.entries().size(), 2u);
    EXPECT_EQ(state.update_count(), 2u);

    auto hit = state.lookup({2});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(state.entries()[hit->entry_index].action_index, 1);

    EXPECT_TRUE(state.modify(entry(2, 0)));
    EXPECT_EQ(state.entries()[state.lookup({2})->entry_index].action_index, 0);

    EXPECT_TRUE(state.erase({FieldMatch::exact(1)}));
    EXPECT_FALSE(state.lookup({1}).has_value());
    EXPECT_FALSE(state.erase({FieldMatch::exact(1)}));
    EXPECT_EQ(state.update_count(), 4u);

    state.reset_update_count();
    EXPECT_EQ(state.update_count(), 0u);
}

TEST(TableState, CapacityEnforced) {
    ir::Table t = TableSpec("t").key("f").noop_action("a").size(2).build();
    TableState state(t);
    EXPECT_TRUE(state.insert(entry(1)));
    EXPECT_TRUE(state.insert(entry(2)));
    EXPECT_FALSE(state.insert(entry(3)));  // full
    EXPECT_EQ(state.entries().size(), 2u);
}

TEST(TableState, IncompatibleEntryRejected) {
    ir::Table t = TableSpec("t").key("f").noop_action("a").build();
    TableState state(t);
    TableEntry wrong;
    wrong.key = {FieldMatch::exact(1), FieldMatch::exact(2)};
    wrong.action_index = 0;
    EXPECT_FALSE(state.insert(wrong));
    TableEntry bad_action = entry(1, 7);
    EXPECT_FALSE(state.insert(bad_action));
}

TEST(TableState, PrefixAndMaskCounts) {
    ir::Table t = TableSpec("t").key("f", ir::MatchKind::Lpm).noop_action("a").build();
    TableState state(t);
    for (int len : {8, 16, 16, 24}) {
        TableEntry e;
        e.key = {FieldMatch::lpm(0, len)};
        e.action_index = 0;
        ASSERT_TRUE(state.insert(e));
    }
    EXPECT_EQ(state.lpm_prefix_count(), 3);
    EXPECT_EQ(state.ternary_mask_count(), 0);
}

/// Random checked inserts, unchecked appends, erases and modifies on a table
/// with an LPM and a ternary component: the entries stay in insertion order
/// (via the stamps), the maintained prefix/mask counts equal a rescan, and
/// only the checked insert honours the declared size.
TEST(TableState, RandomOpsKeepOrderCountsAndCapacity) {
    ir::Table t = TableSpec("t")
                      .key("a", ir::MatchKind::Lpm, 16)
                      .key("b", ir::MatchKind::Ternary, 16)
                      .noop_action("x")
                      .noop_action("y")
                      .size(24)
                      .build();
    util::Rng rng(11);
    auto random_entry = [&rng] {
        static const std::uint64_t kMasks[] = {0xFFFF, 0xFF00, 0x0F0F};
        TableEntry e;
        const int len = 4 * static_cast<int>(rng.next_below(4));
        e.key = {FieldMatch::lpm(rng.next_below(4) << 12, len),
                 rng.next_below(4) == 0
                     ? FieldMatch::exact(rng.next_below(4))
                     : FieldMatch::ternary(rng.next_below(4), kMasks[rng.next_below(3)])};
        e.action_index = static_cast<int>(rng.next_below(2));
        e.priority = static_cast<int>(rng.next_below(3));
        return e;
    };
    TableState state(t);
    std::vector<TableEntry> live;
    for (int op = 0; op < 2000; ++op) {
        const std::uint64_t dice = rng.next_below(8);
        if (dice < 2) {
            TableEntry e = random_entry();
            const bool room = live.size() < t.size;
            ASSERT_EQ(state.insert(e), room) << "op " << op;
            if (room) live.push_back(e);
        } else if (dice < 4) {
            TableEntry e = random_entry();
            state.append(e);  // past the declared size too
            live.push_back(e);
        } else if (dice < 7 && !live.empty()) {
            const std::vector<FieldMatch> key = live[rng.next_below(live.size())].key;
            ASSERT_TRUE(state.erase(key));
            auto same_key = [&key](const TableEntry& e) { return e.key == key; };
            live.erase(std::find_if(live.begin(), live.end(), same_key));
        } else if (!live.empty()) {
            TableEntry e = random_entry();
            e.key = live[rng.next_below(live.size())].key;
            ASSERT_TRUE(state.modify(e));
            *std::find_if(live.begin(), live.end(),
                          [&e](const TableEntry& x) { return x.key == e.key; }) = e;
        }
        ASSERT_EQ(state.entries_in_order(), live) << "op " << op;
        ASSERT_EQ(state.lpm_prefix_count(), ir::distinct_prefix_lengths(live)) << op;
        ASSERT_EQ(state.ternary_mask_count(), ir::distinct_masks(live)) << op;
    }
    // A bulk load restarts insertion order at the given order.
    state.set_entries(live);
    EXPECT_EQ(state.entries(), live);
    EXPECT_EQ(state.entries_in_order(), live);
    EXPECT_EQ(state.lpm_prefix_count(), ir::distinct_prefix_lengths(live));
    EXPECT_EQ(state.ternary_mask_count(), ir::distinct_masks(live));
}

CacheStore::CacheEntry make_payload(int marker) {
    return CacheStore::CacheEntry{{static_cast<std::uint64_t>(marker)}};
}

TEST(CacheStore, LruEvictsLeastRecentlyUsed) {
    ir::CacheConfig cfg;
    cfg.capacity = 2;
    cfg.max_insert_per_sec = 1e9;
    CacheStore store(cfg);
    EXPECT_TRUE(store.insert({1}, make_payload(1), 0.0));
    EXPECT_TRUE(store.insert({2}, make_payload(2), 0.1));
    // Touch key 1 so key 2 becomes the LRU victim.
    EXPECT_NE(store.lookup({1}), nullptr);
    EXPECT_TRUE(store.insert({3}, make_payload(3), 0.2));
    EXPECT_EQ(store.size(), 2u);
    EXPECT_NE(store.lookup({1}), nullptr);
    EXPECT_EQ(store.lookup({2}), nullptr);  // evicted
    EXPECT_NE(store.lookup({3}), nullptr);
}

TEST(CacheStore, InsertRefreshesExistingKey) {
    ir::CacheConfig cfg;
    cfg.capacity = 4;
    cfg.max_insert_per_sec = 1e9;
    CacheStore store(cfg);
    EXPECT_TRUE(store.insert({5}, make_payload(1), 0.0));
    EXPECT_TRUE(store.insert({5}, make_payload(2), 0.1));
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.lookup({5})->words[0], 2u);
}

TEST(CacheStore, TokenBucketLimitsInserts) {
    ir::CacheConfig cfg;
    cfg.capacity = 100;
    cfg.max_insert_per_sec = 2.0;  // 2-token burst
    CacheStore store(cfg);
    EXPECT_TRUE(store.insert({1}, make_payload(1), 0.0));
    EXPECT_TRUE(store.insert({2}, make_payload(2), 0.0));
    EXPECT_FALSE(store.insert({3}, make_payload(3), 0.0));  // bucket empty
    EXPECT_EQ(store.inserts_dropped(), 1u);
    // Half a second refills one token.
    EXPECT_TRUE(store.insert({4}, make_payload(4), 0.5));
    EXPECT_FALSE(store.insert({5}, make_payload(5), 0.5));
    EXPECT_EQ(store.inserts_dropped(), 2u);
}

TEST(CacheStore, ClearEmptiesEverything) {
    ir::CacheConfig cfg;
    cfg.capacity = 8;
    CacheStore store(cfg);
    store.insert({1}, make_payload(1), 0.0);
    store.insert({2}, make_payload(2), 0.0);
    store.clear();
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.lookup({1}), nullptr);
}

/// clear() walks only the live entries' probe runs. After the index has
/// grown and is then sparsely refilled, a clear must still leave every old
/// key missing, and the store must refill exactly like a fresh one.
TEST(CacheStore, ClearOfGrownSparseIndexRefillsLikeFresh) {
    ir::CacheConfig cfg;
    cfg.capacity = 512;
    cfg.max_insert_per_sec = 1e9;
    CacheStore store(cfg);
    for (std::uint64_t k = 0; k < 512; ++k) store.insert({k}, make_payload(1), 0.0);
    store.clear();
    for (std::uint64_t k : {7, 300, 511}) store.insert({k}, make_payload(2), 0.0);
    store.clear();
    EXPECT_EQ(store.size(), 0u);
    for (std::uint64_t k = 0; k < 512; ++k) ASSERT_EQ(store.lookup({k}), nullptr) << k;

    CacheStore fresh(cfg);
    util::Rng rng(5);
    for (int op = 0; op < 5000; ++op) {
        const KeyVec key{rng.next_below(800)};
        if (rng.next_below(2) == 0) {
            const int marker = static_cast<int>(rng.next_below(100));
            ASSERT_EQ(store.insert(key, make_payload(marker), 0.0),
                      fresh.insert(key, make_payload(marker), 0.0));
        } else {
            const CacheStore::CacheEntry* a = store.lookup(key);
            const CacheStore::CacheEntry* b = fresh.lookup(key);
            ASSERT_EQ(a == nullptr, b == nullptr) << "op " << op;
            if (a != nullptr) {
                ASSERT_EQ(a->words, b->words);
            }
        }
        ASSERT_EQ(store.size(), fresh.size());
    }
}

TEST(CacheStore, ZeroCapacityNeverStores) {
    ir::CacheConfig cfg;
    cfg.capacity = 0;
    cfg.max_insert_per_sec = 1e9;
    CacheStore store(cfg);
    EXPECT_FALSE(store.insert({1}, make_payload(1), 0.0));
    EXPECT_EQ(store.size(), 0u);
}

// ------------------------------------------------- flat-LRU equivalence
//
// ISSUE 5 replaced the std::list + unordered_map LRU with a flat
// open-addressing table (intrusive prev/next indices). These tests mirror
// randomized op sequences against ReferenceLruStore — a verbatim port of
// the old list-based implementation — and require identical observable
// behavior: hit/miss per lookup, accept/drop per insert, size, the
// rate-limiter drop count, and (the sharp edge) identical eviction order.

/// A std::list + unordered_map LRU store, kept here as the behavioral
/// oracle, with the lower tiers' operations (no limiter, a hit count per
/// entry).
class ReferenceLruStore {
public:
    explicit ReferenceLruStore(const ir::CacheConfig& config)
        : config_(config), tokens_(config.max_insert_per_sec) {}

    const CacheStore::CacheEntry* lookup(const KeyVec& key) {
        auto it = index_.find(key);
        if (it == index_.end()) return nullptr;
        to_front(it);
        return &lru_.front().entry;
    }

    bool insert(const KeyVec& key, CacheStore::CacheEntry entry,
                double now_seconds) {
        if (now_seconds > last_refill_) {
            tokens_ = std::min(config_.max_insert_per_sec,
                               tokens_ + (now_seconds - last_refill_) *
                                             config_.max_insert_per_sec);
            last_refill_ = now_seconds;
        }
        if (tokens_ < 1.0) {
            ++inserts_dropped_;
            return false;
        }
        auto it = index_.find(key);
        if (it != index_.end()) {
            it->second->entry = std::move(entry);
            to_front(it);
            tokens_ -= 1.0;
            return true;
        }
        while (lru_.size() >= config_.capacity && !lru_.empty()) evict_lru();
        if (config_.capacity == 0) return false;
        push_front(key, std::move(entry));
        tokens_ -= 1.0;
        return true;
    }

    /// Installs without the limiter. A resident key takes the new entry and
    /// keeps its hit count.
    void swap_in(const KeyVec& key, CacheStore::CacheEntry entry) {
        auto it = index_.find(key);
        if (it != index_.end()) {
            it->second->entry = std::move(entry);
            to_front(it);
            return;
        }
        while (lru_.size() >= config_.capacity) evict_lru();
        push_front(key, std::move(entry));
    }

    /// The entry, without touching it; nullptr when absent.
    const CacheStore::CacheEntry* peek(const KeyVec& key) const {
        auto it = index_.find(key);
        return it == index_.end() ? nullptr : &it->second->entry;
    }

    /// Touches the key and returns its hit count after this hit.
    std::uint32_t touch(const KeyVec& key) {
        auto it = index_.find(key);
        to_front(it);
        return ++lru_.front().hits;
    }

    /// Halves every hit count now; the store defers it to the next touch.
    void advance_epoch() {
        for (Item& item : lru_) item.hits >>= 1;
    }

    std::optional<CacheStore::CacheEntry> extract(const KeyVec& key) {
        auto it = index_.find(key);
        if (it == index_.end()) return std::nullopt;
        CacheStore::CacheEntry entry = std::move(it->second->entry);
        lru_.erase(it->second);
        index_.erase(it);
        return entry;
    }

    bool erase(const KeyVec& key) { return extract(key).has_value(); }

    void clear() {
        lru_.clear();
        index_.clear();
    }

    std::size_t size() const { return lru_.size(); }
    std::uint64_t inserts_dropped() const { return inserts_dropped_; }
    /// Every key evicted so far, in eviction order.
    const std::vector<KeyVec>& evicted() const { return evicted_; }

    /// Keys in LRU order, most recent first (eviction-order oracle).
    std::vector<KeyVec> keys_mru_to_lru() const {
        std::vector<KeyVec> keys;
        for (const Item& item : lru_) keys.push_back(item.key);
        return keys;
    }

private:
    struct Item {
        KeyVec key;
        CacheStore::CacheEntry entry;
        std::uint32_t hits = 0;
    };
    using LruList = std::list<Item>;
    using Index = std::unordered_map<KeyVec, LruList::iterator, KeyVecHash>;

    void to_front(Index::iterator it) {
        lru_.splice(lru_.begin(), lru_, it->second);
        it->second = lru_.begin();
    }
    void push_front(const KeyVec& key, CacheStore::CacheEntry entry) {
        lru_.push_front(Item{key, std::move(entry)});
        index_.emplace(key, lru_.begin());
    }
    void evict_lru() {
        evicted_.push_back(lru_.back().key);
        index_.erase(lru_.back().key);
        lru_.pop_back();
    }

    ir::CacheConfig config_;
    LruList lru_;
    Index index_;
    double tokens_;
    double last_refill_ = 0.0;
    std::uint64_t inserts_dropped_ = 0;
    std::vector<KeyVec> evicted_;
};

/// Drives both stores through the same randomized op sequence and checks
/// every observable after every op.
void mirror_random_ops(std::uint64_t seed, ir::CacheConfig cfg, int ops,
                       std::uint64_t key_space) {
    CacheStore flat(cfg);
    ReferenceLruStore ref(cfg);
    util::Rng rng(seed);
    double now = 0.0;
    for (int op = 0; op < ops; ++op) {
        const std::uint64_t k = rng.next_below(key_space);
        const KeyVec key{k, k ^ 0xABCDu};
        const int what = static_cast<int>(rng.next_below(10));
        if (what < 5) {
            const CacheStore::CacheEntry* a = flat.lookup(key);
            const CacheStore::CacheEntry* b = ref.lookup(key);
            ASSERT_EQ(a != nullptr, b != nullptr) << "lookup divergence op " << op;
            if (a != nullptr) {
                ASSERT_EQ(a->words, b->words);
            }
        } else if (what < 9) {
            auto payload_id = static_cast<ir::NodeId>(op);
            const bool a = flat.insert(key, make_payload(payload_id), now);
            const bool b = ref.insert(key, make_payload(payload_id), now);
            ASSERT_EQ(a, b) << "insert divergence op " << op;
        } else if (what == 9 && rng.next_below(8) == 0) {
            flat.clear();
            ref.clear();
        } else {
            now += 0.001 * static_cast<double>(rng.next_below(50));
        }
        ASSERT_EQ(flat.size(), ref.size()) << "size divergence op " << op;
        ASSERT_EQ(flat.inserts_dropped(), ref.inserts_dropped())
            << "drop-count divergence op " << op;
    }
    // Final eviction-order check: evicting one by one from the flat store
    // (by inserting fresh keys into a full store) must remove the exact
    // keys the reference says are least recent. Simpler equivalent probe:
    // every key the reference still holds must hit in the flat store.
    for (const KeyVec& k : ref.keys_mru_to_lru()) {
        EXPECT_NE(flat.lookup(k), nullptr);
    }
}

TEST(CacheStoreEquivalence, RandomizedMirrorSmallCache) {
    ir::CacheConfig cfg;
    cfg.capacity = 8;  // constant eviction pressure
    cfg.max_insert_per_sec = 1e9;
    mirror_random_ops(1, cfg, 4000, 32);
}

TEST(CacheStoreEquivalence, RandomizedMirrorRateLimited) {
    ir::CacheConfig cfg;
    cfg.capacity = 64;
    cfg.max_insert_per_sec = 50.0;  // limiter actively dropping
    mirror_random_ops(2, cfg, 4000, 256);
}

TEST(CacheStoreEquivalence, RandomizedMirrorLargeKeySpace) {
    ir::CacheConfig cfg;
    cfg.capacity = 512;  // mostly misses + growth/rehash churn
    cfg.max_insert_per_sec = 1e9;
    mirror_random_ops(3, cfg, 6000, 100000);
}

TEST(CacheStoreEquivalence, EvictionOrderIdenticalUnderTouches) {
    ir::CacheConfig cfg;
    cfg.capacity = 4;
    cfg.max_insert_per_sec = 1e9;
    CacheStore flat(cfg);
    ReferenceLruStore ref(cfg);
    util::Rng rng(7);
    // Fill, touch a random subset, then overflow one key at a time and
    // verify both stores evict the same victim at every step.
    for (std::uint64_t k = 0; k < 4; ++k) {
        flat.insert({k}, make_payload(1), 0.0);
        ref.insert({k}, make_payload(1), 0.0);
    }
    for (int round = 0; round < 200; ++round) {
        const std::uint64_t t = rng.next_below(1000);
        flat.lookup({t % 7});
        ref.lookup({t % 7});
        const KeyVec fresh{1000 + static_cast<std::uint64_t>(round)};
        flat.insert(fresh, make_payload(2), 0.0);
        ref.insert(fresh, make_payload(2), 0.0);
        ASSERT_EQ(flat.size(), ref.size());
        for (const KeyVec& k : ref.keys_mru_to_lru()) {
            ASSERT_NE(flat.lookup(k), nullptr) << "round " << round;
            ref.lookup(k);  // keep the two LRU orders in lockstep
        }
    }
}


// ------------------------------------------------ lower-tier equivalence
//
// TieredStore's DRAM and host tiers use the store without its limiter:
// swap-in, find plus a counted touch whose count halves per decay epoch,
// extract and erase. These mirror randomized sequences of those ops
// against ReferenceLruStore, which halves every count eagerly at each
// epoch, and compare the eviction order victim by victim.

void mirror_tier_ops(std::uint64_t seed, std::size_t capacity, int ops,
                     std::uint64_t key_space) {
    ir::CacheConfig cfg;
    cfg.capacity = capacity;
    CacheStore store(cfg);
    ReferenceLruStore ref(cfg);
    std::vector<KeyVec> evicted;
    store.set_evict_sink(
        [](void* ctx, KeyVec& key, CacheStore::CacheEntry&) {
            static_cast<std::vector<KeyVec>*>(ctx)->push_back(key);
        },
        &evicted);
    // A slot remembered from an earlier hit, as a queued promotion keeps it.
    std::uint32_t kept_slot = CacheStore::kNil;
    std::uint64_t kept_hash = 0;
    KeyVec kept_key;
    util::Rng rng(seed);
    for (int op = 0; op < ops; ++op) {
        const std::uint64_t k = rng.next_below(key_space);
        const KeyVec key{k, k ^ 0xABCDu};
        const std::uint64_t h = KeyVecHash{}(key);
        const int what = static_cast<int>(rng.next_below(16));
        if (what < 6) {
            const std::uint32_t s = store.find(key, h);
            const CacheStore::CacheEntry* want = ref.peek(key);
            ASSERT_EQ(s != CacheStore::kNil, want != nullptr) << "find divergence op " << op;
            if (want != nullptr) {
                ASSERT_EQ(store.entry(s).words, want->words);
                ASSERT_EQ(store.touch(s), ref.touch(key)) << "hit count op " << op;
                kept_slot = s;
                kept_hash = h;
                kept_key = key;
            }
        } else if (what < 11) {
            KeyVec in_key = key;
            CacheStore::CacheEntry in_entry = make_payload(op);
            store.swap_in(in_key, in_entry);
            ref.swap_in(key, make_payload(op));
        } else if (what < 13) {
            const std::uint32_t s = store.find(key, h);
            const std::optional<CacheStore::CacheEntry> want = ref.extract(key);
            ASSERT_EQ(s != CacheStore::kNil, want.has_value()) << "extract divergence op " << op;
            if (want.has_value()) {
                KeyVec out_key;
                CacheStore::CacheEntry out_entry;
                store.extract(s, out_key, out_entry);
                ASSERT_EQ(out_key, key);
                ASSERT_EQ(out_entry.words, want->words);
            }
        } else if (what == 13) {
            ASSERT_EQ(store.erase(key, h), ref.erase(key)) << "erase divergence op " << op;
        } else if (what == 14) {
            // Now and then more epochs than a count has bits.
            const int epochs = rng.next_below(8) == 0 ? 40 : 1;
            for (int e = 0; e < epochs; ++e) {
                store.advance_epoch();
                ref.advance_epoch();
            }
        } else if (rng.next_below(4) == 0) {
            store.clear();
            ref.clear();
        }
        ASSERT_EQ(store.size(), ref.size()) << "size divergence op " << op;
        ASSERT_EQ(evicted.size(), ref.evicted().size()) << "eviction divergence op " << op;
        // The remembered slot reads live only while its key is resident.
        if (kept_slot != CacheStore::kNil && store.holds(kept_slot, kept_hash)) {
            ASSERT_NE(ref.peek(kept_key), nullptr) << "dead slot live op " << op;
        }
    }
    EXPECT_EQ(evicted, ref.evicted());
    for (const KeyVec& k : ref.keys_mru_to_lru()) {
        EXPECT_NE(store.find(k, KeyVecHash{}(k)), CacheStore::kNil);
    }
}

TEST(CacheStoreEquivalence, TierOpsMirrorSmallTier) {
    mirror_tier_ops(4, 8, 6000, 32);  // constant eviction pressure
}

TEST(CacheStoreEquivalence, TierOpsMirrorLargeKeySpace) {
    mirror_tier_ops(5, 512, 8000, 4000);  // growth, rehash and sparse clears
}

}  // namespace
}  // namespace pipeleon::sim
