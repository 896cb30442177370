// sim/tiered_store.h — hierarchical flow-state memory (DESIGN.md §14): a
// three-tier store scaling the flow cache from the on-NIC SRAM budget to
// tens of millions of flows. Every tier is a sim::CacheStore:
//
//   tier 0  SRAM      the flow cache, the only tier behind the insertion
//                     limiter;
//   tier 1  NIC DRAM  a larger store, each access charged l_tier_dram
//                     extra cycles;
//   tier 2  host      the largest store, reached over the emulated DMA
//                     engine: l_tier_host extra cycles plus a descriptor-
//                     batched fetch (sim/host_dma.h).
//
// Movement between tiers:
//   * demotion — an eviction from a tier swaps into the next enabled tier
//     below through the store's eviction sink; the bottom tier's evictions
//     drop. The victim's buffers are swapped, not copied, so the cascade is
//     allocation-free.
//   * promotion — profile-driven. Every lower-tier hit bumps the entry's
//     hit count (plain non-atomic u32 in the slot: the hot path stays free
//     of shared state); when it crosses `promote_hits` the entry is queued
//     on a bounded pending list and moved one tier up at the next batch
//     boundary (flush_batch), never mid-batch. Counts decay by halving
//     every `decay_every` flushes so old heat expires; decay is applied
//     lazily at touch time from an epoch delta, keeping flushes O(pending)
//     instead of O(live).
//
// Single-tier mode (tiers disabled in ir::TierConfig) delegates every
// operation straight to the SRAM store with no sink installed — behavior is
// bit-identical to the flat LRU by construction (test-enforced: randomized
// op mirroring in tests/test_tiered_store.cpp).
//
// Invariant: a key lives in at most one tier. Lookups probe top-down, so
// tier 0 always answers first; inserts land in tier 0 and erase any stale
// lower-tier copy; promotions/demotions move entries, never duplicate them.
// Conservation (test- and bench-enforced): lookups == Σ per-tier hits +
// misses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ir/table.h"
#include "sim/engine.h"
#include "sim/host_dma.h"
#include "sim/table_state.h"

namespace pipeleon::sim {

/// Per-tier access costs (mirrors the cost::CostParams fields so the store
/// is testable without a cost model). All values are *extra* cycles on top
/// of the tier-0 probe the lookup already paid.
struct TierCosts {
    double l_tier_dram = 0.0;
    double l_tier_host = 0.0;
    double dma_setup = 0.0;
    double dma_per_entry = 0.0;
};

/// Monotonic tiered-store accounting (read by the emulator's tier.* metrics
/// and by the scale bench).
struct TierStats {
    std::uint64_t lookups = 0;
    std::uint64_t sram_hits = 0;
    std::uint64_t dram_hits = 0;
    std::uint64_t host_hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t promotions = 0;  ///< entries moved one tier up
    std::uint64_t demotions = 0;   ///< evictions caught by a lower tier
    std::uint64_t drops = 0;       ///< evictions off the last tier
    std::uint64_t dma_batches = 0;
    std::uint64_t dma_fetches = 0;
    double tier_cycles = 0.0;  ///< extra cycles charged for tier-1/2 access

    TierStats& operator+=(const TierStats& o) {
        lookups += o.lookups;
        sram_hits += o.sram_hits;
        dram_hits += o.dram_hits;
        host_hits += o.host_hits;
        misses += o.misses;
        promotions += o.promotions;
        demotions += o.demotions;
        drops += o.drops;
        dma_batches += o.dma_batches;
        dma_fetches += o.dma_fetches;
        tier_cycles += o.tier_cycles;
        return *this;
    }
};

/// The SRAM -> DRAM -> host tiered flow-state store. Drop-in successor of a
/// bare CacheStore in the emulator's per-worker cache shards.
class TieredStore {
public:
    using CacheEntry = CacheStore::CacheEntry;

    TieredStore(const ir::CacheConfig& config, TierCosts costs);

    // The demotion sinks point at the member stores; moving would dangle
    // them.
    TieredStore(const TieredStore&) = delete;
    TieredStore& operator=(const TieredStore&) = delete;

    /// Lookup outcome: the entry (tier-0 pointer validity rules apply: valid
    /// until the next mutation), which tier answered (-1 on miss), and the
    /// extra cycles the access costs beyond the tier-0 probe (0 for tier-0
    /// hits and misses — single-tier cycle accounting is untouched).
    struct Result {
        const CacheEntry* entry = nullptr;
        int tier = -1;
        double extra_cycles = 0.0;
    };

    Result lookup(const KeyVec& key);

    /// The hash lookup() computes internally (KeyVecHash over the key
    /// words), exposed for the batched match pipeline (DESIGN.md §15).
    static std::uint64_t key_hash(const KeyVec& key) {
        return CacheStore::key_hash(key);
    }

    /// Hints the SRAM-tier home index cell of `h` into cache; issued per
    /// lane by the batched pipeline before any probe resolves.
    void prefetch(std::uint64_t h) const { sram_.prefetch(h); }

    /// lookup() with the key hash precomputed (must equal key_hash(key)).
    /// Bit-identical results and side effects; the hash is computed exactly
    /// once and reused for the lower tiers, where lookup() used to hash the
    /// key a second time on SRAM miss.
    Result lookup_hashed(const KeyVec& key, std::uint64_t h);

    /// Installs into tier 0 with CacheStore semantics (LRU refresh, token-
    /// bucket limiter, eviction cascade). A successful insert erases any
    /// stale copy of the key from the lower tiers so the disjointness
    /// invariant holds.
    bool insert(const KeyVec& key, CacheEntry entry, double now_seconds);

    /// Batch boundary: flush the partial DMA batch, apply queued
    /// promotions, advance the decay epoch every `decay_every` flushes.
    /// No-op in single-tier mode.
    void flush_batch();

    /// Full invalidation across all tiers; storage capacity retained.
    void clear();

    /// Live entries across all tiers.
    std::size_t size() const;
    /// Live entries in one tier (0..2).
    std::size_t tier_size(int tier) const;

    std::uint64_t inserts_dropped() const { return sram_.inserts_dropped(); }
    void reset_inserts_dropped() { sram_.reset_inserts_dropped(); }
    bool tiered() const { return tiered_; }
    const ir::TierConfig& tier_config() const { return config_.tiers; }

    /// Monotonic stats with the DMA engine's view folded in.
    TierStats stats() const;

private:
    /// Eviction sink of every tier above the bottom one: swaps the victim
    /// into `ctx`, the next enabled tier below.
    static void demote(void* ctx, KeyVec& key, CacheEntry& entry);
    void maybe_queue_promotion(int tier, std::uint32_t slot,
                               std::uint64_t hash, std::uint32_t hits);

    /// A queued promotion: re-verified against the slot's hash at flush
    /// time (the slot may have been recycled since).
    struct Promo {
        std::uint8_t tier = 0;
        std::uint32_t slot = 0;
        std::uint64_t hash = 0;
    };
    static constexpr std::size_t kPendingCap = 256;

    ir::CacheConfig config_;
    TierCosts costs_;
    bool tiered_ = false;
    bool dram_enabled_ = false;
    bool host_enabled_ = false;
    CacheStore sram_;
    CacheStore dram_;
    CacheStore host_;
    HostDmaEngine dma_;
    TierStats stats_;
    std::vector<Promo> pending_;  ///< reserved to kPendingCap up front
    std::uint32_t flushes_until_decay_ = 0;
    // Scratch buffers for promotion extraction; capacity recycled.
    KeyVec scratch_key_;
    CacheEntry scratch_entry_;
};

}  // namespace pipeleon::sim
