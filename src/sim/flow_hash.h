// sim/flow_hash.h — the one hash of the emulator's host-side structures
// (DESIGN.md §15): word-wise FNV-1a over 64-bit values, finished with the
// SplitMix64 avalanche. rss_hash places flows on workers with it; KeyVecHash
// (every cache and tier index), the match engines' masked keys and the
// MatchBatcher group path use it too. Replay counters need no hash: their
// slots are numbered densely per epoch.
// No emulated output depends on where it puts a key in a host-side index:
// engine chains order entries by stamp and priority, caches and tiers evict
// by LRU. Steering does depend on it, so it must not change.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pipeleon::sim {

/// FNV-1a offset basis: the running hash before any word is folded in.
inline constexpr std::uint64_t kFlowHashBasis = 1469598103934665603ULL;

/// Folds one 64-bit word into the running hash (one FNV-1a step).
constexpr std::uint64_t flow_hash_step(std::uint64_t h, std::uint64_t word) {
    return (h ^ word) * 1099511628211ULL;
}

/// SplitMix64 finisher. The FNV product's low bits depend only on the low
/// bits of the words, so without it keys that differ only in high bits
/// share the low bits a power-of-two index or a modulo reads.
constexpr std::uint64_t flow_hash_finish(std::uint64_t h) {
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h;
}

/// The flow hash of an n-word key whose word i is value_at(i).
template <class ValueAt>
std::uint64_t flow_hash(std::size_t n, ValueAt&& value_at) {
    std::uint64_t h = kFlowHashBasis;
    for (std::size_t i = 0; i < n; ++i) h = flow_hash_step(h, value_at(i));
    return flow_hash_finish(h);
}

}  // namespace pipeleon::sim
