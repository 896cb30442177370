#include "sim/tiered_store.h"

#include <algorithm>

namespace pipeleon::sim {

// ------------------------------------------------------------- FlatTier

std::size_t FlatTier::probe(const KeyVec& key, std::uint64_t h) const {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = static_cast<std::size_t>(h) & mask;
    while (true) {
        const IndexCell& cell = index_[i];
        if (cell.slot == kNil) return i;
        if (cell.hash == h && slots_[cell.slot].key == key) return i;
        i = (i + 1) & mask;
    }
}

void FlatTier::index_insert(std::uint64_t h, std::uint32_t slot) {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = static_cast<std::size_t>(h) & mask;
    while (index_[i].slot != kNil) i = (i + 1) & mask;
    index_[i].hash = h;
    index_[i].slot = slot;
}

void FlatTier::index_erase(std::size_t pos) {
    // Backward-shift deletion (see CacheStore::index_erase).
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = pos;
    std::size_t i = pos;
    while (true) {
        i = (i + 1) & mask;
        if (index_[i].slot == kNil) break;
        const std::size_t home = static_cast<std::size_t>(index_[i].hash) & mask;
        if (((i - home) & mask) >= ((i - hole) & mask)) {
            index_[hole] = index_[i];
            hole = i;
        }
    }
    index_[hole].slot = kNil;
    index_[hole].hash = 0;
}

void FlatTier::index_grow() {
    std::size_t want = index_.empty() ? 16 : index_.size() * 2;
    index_.assign(want, IndexCell{});
    for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) {
        index_insert(slots_[s].hash, s);
    }
}

void FlatTier::lru_unlink(std::uint32_t s) {
    Slot& slot = slots_[s];
    if (slot.prev != kNil) {
        slots_[slot.prev].next = slot.next;
    } else {
        head_ = slot.next;
    }
    if (slot.next != kNil) {
        slots_[slot.next].prev = slot.prev;
    } else {
        tail_ = slot.prev;
    }
    slot.prev = slot.next = kNil;
}

void FlatTier::lru_push_front(std::uint32_t s) {
    Slot& slot = slots_[s];
    slot.prev = kNil;
    slot.next = head_;
    if (head_ != kNil) slots_[head_].prev = s;
    head_ = s;
    if (tail_ == kNil) tail_ = s;
}

void FlatTier::release_slot(std::uint32_t s) {
    Slot& slot = slots_[s];
    slot.key.clear();  // capacity retained for the next swap-in
    slot.entry.words.clear();
    slot.hash = 0;
    slot.hits = 0;
    slot.live = false;
    free_.push_back(s);
    --live_;
}

void FlatTier::evict_tail() {
    const std::uint32_t victim = tail_;
    index_erase(probe(slots_[victim].key, slots_[victim].hash));
    lru_unlink(victim);
    if (evict_sink_ != nullptr) {
        evict_sink_(evict_ctx_, slots_[victim].key, slots_[victim].entry);
    }
    release_slot(victim);
}

std::uint32_t FlatTier::find(const KeyVec& key, std::uint64_t h) const {
    if (live_ == 0 || index_.empty()) return kNil;
    const std::size_t pos = probe(key, h);
    return index_[pos].slot;
}

std::uint32_t FlatTier::touch(std::uint32_t s) {
    Slot& slot = slots_[s];
    if (slot.epoch != epoch_) {
        // Lazy decay: one halving per epoch elapsed since the last touch.
        const std::uint32_t d = epoch_ - slot.epoch;
        slot.hits = d >= 32 ? 0 : (slot.hits >> d);
        slot.epoch = epoch_;
    }
    ++slot.hits;
    if (head_ != s) {
        lru_unlink(s);
        lru_push_front(s);
    }
    return slot.hits;
}

void FlatTier::insert_swap(KeyVec& key, Entry& entry) {
    const std::uint64_t h = KeyVecHash{}(key);
    if (!index_.empty()) {
        const std::size_t pos = probe(key, h);
        if (index_[pos].slot != kNil) {
            // Tiers are normally disjoint; refresh in place if not.
            const std::uint32_t s = index_[pos].slot;
            std::swap(slots_[s].entry, entry);
            if (head_ != s) {
                lru_unlink(s);
                lru_push_front(s);
            }
            return;
        }
    }
    if (capacity_ == 0) {
        // Nothing fits here: cascade straight down (or discard).
        if (evict_sink_ != nullptr) evict_sink_(evict_ctx_, key, entry);
        return;
    }
    while (live_ >= capacity_) evict_tail();
    if (index_.empty() || (live_ + 1) * 10 >= index_.size() * 7) index_grow();

    std::uint32_t s;
    if (!free_.empty()) {
        s = free_.back();
        free_.pop_back();
    } else {
        s = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(Slot{});
    }
    Slot& slot = slots_[s];
    std::swap(slot.key, key);
    std::swap(slot.entry, entry);
    slot.hash = h;
    slot.hits = 0;
    slot.epoch = epoch_;
    slot.live = true;
    lru_push_front(s);
    index_insert(h, s);
    ++live_;
}

void FlatTier::extract(std::uint32_t s, KeyVec& key, Entry& entry) {
    index_erase(probe(slots_[s].key, slots_[s].hash));
    lru_unlink(s);
    std::swap(slots_[s].key, key);
    std::swap(slots_[s].entry, entry);
    release_slot(s);
}

bool FlatTier::erase(const KeyVec& key, std::uint64_t h) {
    if (live_ == 0 || index_.empty()) return false;
    const std::size_t pos = probe(key, h);
    if (index_[pos].slot == kNil) return false;
    const std::uint32_t s = index_[pos].slot;
    index_erase(pos);
    lru_unlink(s);
    release_slot(s);
    return true;
}

void FlatTier::clear() {
    // O(live): each live key empties its probe run (see CacheStore::clear).
    const std::size_t mask = index_.size() - 1;
    for (std::uint32_t s = head_; s != kNil;) {
        const std::uint32_t next = slots_[s].next;
        for (std::size_t i = slots_[s].hash & mask; index_[i].slot != kNil;
             i = (i + 1) & mask) {
            index_[i] = IndexCell{};
        }
        slots_[s].prev = slots_[s].next = kNil;
        slots_[s].key.clear();
        slots_[s].entry.words.clear();
        slots_[s].hash = 0;
        slots_[s].hits = 0;
        slots_[s].live = false;
        free_.push_back(s);
        s = next;
    }
    head_ = tail_ = kNil;
    live_ = 0;
}

// ---------------------------------------------------------- TieredStore

TieredStore::TieredStore(const ir::CacheConfig& config, TierCosts costs)
    : config_(config),
      costs_(costs),
      tiered_(config.tiers.enabled()),
      dram_enabled_(config.tiers.dram_entries > 0),
      host_enabled_(config.tiers.host_entries > 0),
      sram_(config),
      dram_(config.tiers.dram_entries),
      host_(config.tiers.host_entries),
      dma_(config.tiers.dma_batch,
           DmaCosts{costs.dma_setup, costs.dma_per_entry}) {
    if (tiered_) {
        // Demotion cascade: SRAM tail -> DRAM -> host -> dropped.
        sram_.set_evict_sink(&demote_from_sram, this);
        if (dram_enabled_) dram_.set_evict_sink(&demote_from_dram, this);
        if (host_enabled_) host_.set_evict_sink(&demote_from_host, this);
        pending_.reserve(kPendingCap);
    }
    // else: no sink installed, every call delegates to sram_ — bit-identical
    // to a bare CacheStore.
}

void TieredStore::demote_from_sram(void* ctx, KeyVec& key, CacheEntry& entry) {
    static_cast<TieredStore*>(ctx)->demote(0, key, entry);
}
void TieredStore::demote_from_dram(void* ctx, KeyVec& key, CacheEntry& entry) {
    static_cast<TieredStore*>(ctx)->demote(1, key, entry);
}
void TieredStore::demote_from_host(void* ctx, KeyVec& key, CacheEntry& entry) {
    static_cast<TieredStore*>(ctx)->demote(2, key, entry);
}

void TieredStore::demote(int from, KeyVec& key, CacheEntry& entry) {
    if (from < 1 && dram_enabled_) {
        ++stats_.demotions;
        dram_.insert_swap(key, entry);
        return;
    }
    if (from < 2 && host_enabled_) {
        ++stats_.demotions;
        host_.insert_swap(key, entry);
        return;
    }
    ++stats_.drops;  // fell off the last enabled tier
}

TieredStore::Result TieredStore::lookup(const KeyVec& key) {
    return lookup_hashed(key, KeyVecHash{}(key));
}

TieredStore::Result TieredStore::lookup_hashed(const KeyVec& key,
                                               std::uint64_t h) {
    ++stats_.lookups;
    if (const CacheEntry* e = sram_.lookup_hashed(key, h)) {
        ++stats_.sram_hits;
        return Result{e, 0, 0.0};
    }
    if (!tiered_) {
        ++stats_.misses;
        return Result{};
    }
    if (dram_enabled_) {
        const std::uint32_t s = dram_.find(key, h);
        if (s != FlatTier::kNil) {
            const std::uint32_t hits = dram_.touch(s);
            ++stats_.dram_hits;
            const double extra = costs_.l_tier_dram;
            stats_.tier_cycles += extra;
            maybe_queue_promotion(1, s, h, hits);
            return Result{&dram_.entry(s), 1, extra};
        }
    }
    if (host_enabled_) {
        const std::uint32_t s = host_.find(key, h);
        if (s != FlatTier::kNil) {
            const std::uint32_t hits = host_.touch(s);
            ++stats_.host_hits;
            const double extra = costs_.l_tier_host + dma_.fetch(s, h);
            stats_.tier_cycles += extra;
            maybe_queue_promotion(2, s, h, hits);
            return Result{&host_.entry(s), 2, extra};
        }
    }
    ++stats_.misses;
    return Result{};
}

bool TieredStore::insert(const KeyVec& key, CacheEntry entry,
                         double now_seconds) {
    const bool ok = sram_.insert(key, std::move(entry), now_seconds);
    if (ok && tiered_) {
        // The key now lives in tier 0; drop any stale lower-tier copy so
        // the one-tier-per-key invariant holds. (The emulator only inserts
        // after a full-hierarchy miss, so this is a no-op on that path.)
        const std::uint64_t h = KeyVecHash{}(key);
        if (!(dram_enabled_ && dram_.erase(key, h)) && host_enabled_) {
            host_.erase(key, h);
        }
    }
    return ok;
}

void TieredStore::maybe_queue_promotion(int tier, std::uint32_t slot,
                                        std::uint64_t hash,
                                        std::uint32_t hits) {
    // Queue exactly at the threshold crossing (once per entry per batch);
    // a full pending list just defers the move to a later crossing.
    const std::uint32_t threshold =
        std::max<std::uint32_t>(1, config_.tiers.promote_hits);
    if (hits != threshold) return;
    if (pending_.size() >= kPendingCap) return;
    pending_.push_back(Promo{static_cast<std::uint8_t>(tier), slot, hash});
}

void TieredStore::flush_batch() {
    if (!tiered_) return;
    dma_.flush();
    for (const Promo& p : pending_) {
        FlatTier& from = p.tier == 1 ? dram_ : host_;
        // One tier up from DRAM is SRAM; from host it is DRAM, or SRAM when
        // the DRAM tier is absent.
        const bool to_sram = p.tier == 1 || !dram_enabled_;
        if (to_sram && sram_.capacity() == 0) continue;
        // Re-verify: the slot may have been promoted, evicted, or recycled
        // for another key since the hit that queued it.
        if (!from.slot_live(p.slot) || from.slot_hash(p.slot) != p.hash) {
            continue;
        }
        from.extract(p.slot, scratch_key_, scratch_entry_);
        ++stats_.promotions;
        if (to_sram) {
            sram_.promote_swap(scratch_key_, scratch_entry_);
        } else {
            dram_.insert_swap(scratch_key_, scratch_entry_);
        }
        scratch_key_.clear();
        scratch_entry_.words.clear();
    }
    pending_.clear();
    const std::uint32_t every = config_.tiers.decay_every;
    if (every > 0 && ++flushes_until_decay_ >= every) {
        flushes_until_decay_ = 0;
        dram_.advance_epoch();
        host_.advance_epoch();
    }
}

void TieredStore::clear() {
    sram_.clear();
    if (!tiered_) return;
    dram_.clear();
    host_.clear();
    pending_.clear();
    // Complete any in-flight fetch descriptors: they delivered data before
    // the invalidation, so their doorbell is still owed.
    dma_.flush();
}

std::size_t TieredStore::size() const {
    return sram_.size() + dram_.size() + host_.size();
}

std::size_t TieredStore::tier_size(int tier) const {
    switch (tier) {
        case 0: return sram_.size();
        case 1: return dram_.size();
        case 2: return host_.size();
        default: return 0;
    }
}

TierStats TieredStore::stats() const {
    TierStats s = stats_;
    s.dma_batches = dma_.stats().batches;
    s.dma_fetches = dma_.stats().fetches;
    return s;
}

}  // namespace pipeleon::sim
