// sim/table_state.h — runtime state of deployed tables: the entry list plus
// its match engine for regular tables, and the flow-state store (LRU with an
// insertion rate limiter, §3.2.2) for cache tables and each of their memory
// tiers. A cache entry is one flat word run holding the recorded
// per-covered-table outcomes a hit re-executes; each outcome names a replay
// slot of the epoch, whose counter feeds the counter map (§4.1.2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/program.h"
#include "sim/engine.h"

namespace pipeleon::sim {

/// State of a non-cache table: entries + engine + update accounting.
///
/// Every op is applied in place (DESIGN.md §7.1): insert appends, erase
/// swaps the last entry into the hole, and the engine re-indexes only the
/// entries that moved, so one op costs O(1) in the table size (see
/// sim/engine.h for the per-kind bounds). Insertion order, which decides
/// every tie, travels as a stamp per entry.
class TableState {
public:
    explicit TableState(const ir::Table& table);
    // The engine points into list_, so the state never copies or moves.
    TableState(const TableState&) = delete;
    TableState& operator=(const TableState&) = delete;

    const ir::Table& table() const { return table_; }

    /// The live entries. After an erase they are not in insertion order;
    /// entries_in_order() is.
    const std::vector<ir::TableEntry>& entries() const { return list_.entries; }
    /// Copy of the live entries in insertion order — what a bulk load must
    /// carry to keep this table's tie-breaks.
    std::vector<ir::TableEntry> entries_in_order() const;

    /// Replaces all entries, in insertion order (engine rebuilt).
    void set_entries(std::vector<ir::TableEntry> entries);

    /// Inserts an entry; returns false (and leaves state unchanged) when the
    /// entry is incompatible with the table or capacity is exhausted.
    bool insert(const ir::TableEntry& entry);
    /// Appends an entry unchecked, like a one-entry set_entries: the
    /// mirror of an authoritative store (runtime::ApiMapper), which accepts
    /// entries past the declared size.
    void append(ir::TableEntry entry);
    /// Removes the oldest entry with an identical key; false when absent.
    bool erase(const std::vector<ir::FieldMatch>& key);
    /// Replaces the action/data/priority of the oldest entry with an
    /// identical key; it keeps its place in insertion order.
    bool modify(const ir::TableEntry& entry);

    std::optional<MatchOutcome> lookup(const KeyVec& key) const {
        return engine_.lookup(key);
    }
    int m() const { return engine_.m(); }

    std::uint64_t update_count() const { return updates_; }
    void reset_update_count() { updates_ = 0; }

    /// Distinct prefix lengths / masks among live entries (cost-model m
    /// inputs exported to the profiler), maintained per op.
    int lpm_prefix_count() const { return diversity_.prefix_lengths(); }
    int ternary_mask_count() const { return diversity_.masks(); }

private:
    ir::Table table_;
    EntryList list_;
    std::uint64_t next_stamp_ = 0;
    MatchEngine engine_;
    ir::EntryDiversity diversity_;
    std::uint64_t updates_ = 0;
};

/// Exact-match LRU flow-state store: the flow cache (§3.2.2) and every tier
/// of sim::TieredStore (DESIGN.md §14).
///
/// Storage: one contiguous slot array with *intrusive* prev/next LRU indices
/// plus a flat open-addressing (linear-probe, backward-shift delete) hash
/// index mapping key hash -> slot, so a probe is a linear scan of (hash,
/// slot) cells and an LRU touch is three index writes. Slot and index
/// storage grow geometrically and are recycled through a free list, so a
/// warm store performs zero heap allocations per lookup, touch, insert,
/// swap-in or eviction (recycled slots reuse their key/word-run capacity).
///
/// New flows enter through insert(), behind the token-bucket limiter. The
/// lower tiers take state the hierarchy already admitted through swap_in(),
/// and count hits per entry for the promotion policy; neither touches the
/// limiter. Tests mirror randomized op sequences of both kinds against a
/// list-based reference store, eviction order included.
class CacheStore {
public:
    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;  ///< no slot

    explicit CacheStore(const ir::CacheConfig& config);

    /// One cached flow's replay run: per recorded covered-table outcome, a
    /// header word (the outcome's replay slot relative to the cache's first
    /// slot in the low 32 bits, its argument count n in the high 32) and
    /// then its n action-argument words. The emulator writes and decodes
    /// the run; the stores only move it.
    struct CacheEntry {
        std::vector<std::uint64_t> words;
    };

    /// Eviction sink: called with the victim's key/entry *before* the slot
    /// is recycled. The callee may std::swap the contents into its own
    /// recycled buffers (the demotion path of sim::TieredStore); whatever it
    /// leaves behind is cleared, capacity retained. Swap semantics keep the
    /// cascade allocation-free in both directions. No sink (the default)
    /// means evictions discard.
    using EvictSink = void (*)(void* ctx, KeyVec& key, CacheEntry& entry);
    void set_evict_sink(EvictSink sink, void* ctx) {
        evict_sink_ = sink;
        evict_ctx_ = ctx;
    }

    /// Looks up and LRU-touches the entry; nullptr on miss. The pointer is
    /// valid until the next insert/clear (slot storage may be recycled).
    const CacheEntry* lookup(const KeyVec& key);

    /// The hash `lookup` computes internally — exposed so the batched match
    /// pipeline (sim/match_batch.h, DESIGN.md §15) can hash keys in groups
    /// up front and hand them back via prefetch()/lookup_hashed().
    static std::uint64_t key_hash(const KeyVec& key) { return KeyVecHash{}(key); }

    /// Hints the cache line of `h`'s home index cell into L1/L2. Cheap and
    /// safe to call speculatively (no-op on an empty store); the batched
    /// pipeline issues one per lane before resolving any probe.
    void prefetch(std::uint64_t h) const {
        if (!index_.empty()) {
            __builtin_prefetch(&index_[static_cast<std::size_t>(h) &
                                       (index_.size() - 1)]);
        }
    }

    /// lookup() with the key hash already computed (must equal key_hash(key);
    /// semantics and LRU effects are bit-identical to lookup()).
    const CacheEntry* lookup_hashed(const KeyVec& key, std::uint64_t h);

    /// Attempts to install an entry at virtual time `now_seconds`. Evicts
    /// LRU victims at capacity; drops the insert (counted) when the rate
    /// limiter has no budget.
    bool insert(const KeyVec& key, CacheEntry entry, double now_seconds);

    /// Slot holding `key` (hash `h`), or kNil. Touches nothing.
    std::uint32_t find(const KeyVec& key, std::uint64_t h) const;

    /// LRU-touches slot `s` and counts a hit; returns the count, halved
    /// once per decay epoch since the slot's last touch.
    std::uint32_t touch(std::uint32_t s);

    const CacheEntry& entry(std::uint32_t s) const { return slots_[s].entry; }

    /// True while slot `s` holds a live entry whose key hashes to `h`: the
    /// re-check of a slot remembered across later moves and evictions.
    bool holds(std::uint32_t s, std::uint64_t h) const;

    /// Installs by swapping the caller's buffers into a recycled slot (the
    /// caller gets the slot's old capacity back), without the limiter. A
    /// resident key takes the new entry and keeps its hit count. Evicts
    /// LRU victims through the sink at capacity, which must be nonzero.
    void swap_in(KeyVec& key, CacheEntry& entry);

    /// Removes slot `s`, swapping its contents out into key/entry.
    void extract(std::uint32_t s, KeyVec& key, CacheEntry& entry);

    /// Removes `key` (hash `h`) if present; its buffers are recycled.
    bool erase(const KeyVec& key, std::uint64_t h);

    /// Starts a decay epoch: every hit count halves once per epoch, applied
    /// when its slot is next touched.
    void advance_epoch() { ++epoch_; }

    /// Full invalidation (covered-table update, or redeployment). Slot and
    /// index capacity are retained — invalidations are frequent (§3.2.2)
    /// and refilling into recycled storage is the allocation-free path.
    /// Costs O(live entries), not O(index capacity): an empty store does
    /// no work.
    void clear();

    std::size_t size() const { return live_; }
    std::size_t capacity() const { return config_.capacity; }
    /// LRU evictions over the store's lifetime (clear() evicts none).
    std::uint64_t evictions() const { return evictions_; }
    /// Inserts the limiter dropped since the last reset_inserts_dropped().
    std::uint64_t inserts_dropped() const { return inserts_dropped_; }
    void reset_inserts_dropped() { inserts_dropped_ = 0; }

private:
    /// One cached flow: payload, its key hash (evictions, index growth and
    /// clear() find its cell without rehashing), intrusive LRU links (slot
    /// indices, not pointers — stable across slot-array growth), and the
    /// hit count of the lower tiers' promotion policy.
    struct Slot {
        KeyVec key;
        CacheEntry entry;
        std::uint64_t hash = 0;
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
        std::uint32_t hits = 0;   ///< touch() count, decayed up to `epoch`
        std::uint32_t epoch = 0;  ///< decay epoch `hits` was last brought to
    };
    /// One open-addressing cell: the key's hash (so probes compare one word
    /// before touching the slot, and deletes can recompute home positions)
    /// plus the slot it points at; slot == kNil marks the cell empty.
    struct IndexCell {
        std::uint64_t hash = 0;
        std::uint32_t slot = kNil;
    };

    /// Index cell holding `key` (with hash `h`), or the empty cell where it
    /// would go.
    std::size_t probe(const KeyVec& key, std::uint64_t h) const;
    void index_insert(std::uint64_t h, std::uint32_t slot);
    /// Backward-shift deletion starting at cell `pos` (no tombstones).
    void index_erase(std::size_t pos);
    /// Doubles the index table and reinserts every live slot.
    void index_grow();

    void lru_unlink(std::uint32_t s);
    void lru_push_front(std::uint32_t s);
    void lru_touch(std::uint32_t s);

    /// Evicts at capacity, then takes a slot for hash `h`, links it at the
    /// LRU front and indexes it; the caller fills its key and entry.
    std::uint32_t claim(std::uint64_t h);
    /// Takes slot `s` out of the index and the LRU order.
    void unlink(std::uint32_t s);
    /// Returns unlinked slot `s` to the free list, its buffers cleared.
    void release(std::uint32_t s);
    /// Evicts the LRU tail through the sink.
    void evict_tail();

    ir::CacheConfig config_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_;  ///< recycled slot indices (LIFO)
    std::vector<IndexCell> index_;    ///< size is a power of two
    std::uint32_t head_ = kNil;        ///< most recently used
    std::uint32_t tail_ = kNil;        ///< least recently used (evicted first)
    std::size_t live_ = 0;
    std::uint32_t epoch_ = 0;          ///< decay epoch (advance_epoch)
    std::uint64_t evictions_ = 0;
    // Token-bucket limiter for insertions.
    double tokens_;
    double last_refill_ = 0.0;
    std::uint64_t inserts_dropped_ = 0;
    EvictSink evict_sink_ = nullptr;
    void* evict_ctx_ = nullptr;
};

}  // namespace pipeleon::sim
