#include "sim/tiered_store.h"

#include <algorithm>

namespace pipeleon::sim {

namespace {

/// A lower tier's store: only the capacity matters, because the limiter
/// guards insert() and the lower tiers take entries through swap_in().
ir::CacheConfig lower_tier(std::size_t entries) {
    ir::CacheConfig config;
    config.capacity = entries;
    return config;
}

}  // namespace

TieredStore::TieredStore(const ir::CacheConfig& config, TierCosts costs)
    : config_(config),
      costs_(costs),
      tiered_(config.tiers.enabled()),
      dram_enabled_(config.tiers.dram_entries > 0),
      host_enabled_(config.tiers.host_entries > 0),
      sram_(config),
      dram_(lower_tier(config.tiers.dram_entries)),
      host_(lower_tier(config.tiers.host_entries)),
      dma_(config.tiers.dma_batch,
           DmaCosts{costs.dma_setup, costs.dma_per_entry}) {
    if (tiered_) {
        // Demotion cascade: SRAM tail -> DRAM -> host -> dropped.
        sram_.set_evict_sink(&demote, dram_enabled_ ? &dram_ : &host_);
        if (dram_enabled_ && host_enabled_) dram_.set_evict_sink(&demote, &host_);
        pending_.reserve(kPendingCap);
    }
    // else: no sink installed, every call delegates to sram_ — bit-identical
    // to a bare CacheStore.
}

void TieredStore::demote(void* ctx, KeyVec& key, CacheEntry& entry) {
    static_cast<CacheStore*>(ctx)->swap_in(key, entry);
}

TieredStore::Result TieredStore::lookup(const KeyVec& key) {
    return lookup_hashed(key, key_hash(key));
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
        if (s != CacheStore::kNil) {
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
        if (s != CacheStore::kNil) {
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
        const std::uint64_t h = key_hash(key);
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
        CacheStore& from = p.tier == 1 ? dram_ : host_;
        // One tier up from DRAM is SRAM; from host it is DRAM, or SRAM when
        // the DRAM tier is absent.
        const bool to_sram = p.tier == 1 || !dram_enabled_;
        if (to_sram && sram_.capacity() == 0) continue;
        // Re-verify: the slot may have been promoted, evicted, or recycled
        // for another key since the hit that queued it.
        if (!from.holds(p.slot, p.hash)) continue;
        from.extract(p.slot, scratch_key_, scratch_entry_);
        ++stats_.promotions;
        // A promotion moves state the store already admitted: it bypasses
        // the SRAM tier's insertion limiter.
        (to_sram ? sram_ : dram_).swap_in(scratch_key_, scratch_entry_);
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
    if (tiered_) {
        // Every eviction is a demotion into the tier below, except the
        // bottom tier's, which drop.
        s.drops = (host_enabled_ ? host_ : dram_).evictions();
        s.demotions = sram_.evictions() + dram_.evictions() +
                      host_.evictions() - s.drops;
    }
    s.dma_batches = dma_.stats().batches;
    s.dma_fetches = dma_.stats().fetches;
    return s;
}

}  // namespace pipeleon::sim
