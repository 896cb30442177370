// sim/match_batch.h — batched match-path hashing (DESIGN.md §15). The hot
// match path processes keys in groups of kHashGroup (8): gather the key
// fields field-major, hash all eight keys at once with a SIMD kernel, issue
// prefetches for all eight target slots, then resolve the probes with the
// loads already in flight. Two kernels exist because the data plane uses two
// different hash functions:
//
//   rss_hash8 — word-wise FNV-1a + SplitMix64 finisher, bit-identical to
//               rss_hash() (sim/rss.h): the steering hash;
//   key_hash8 — byte-wise FNV-1a, no finisher, bit-identical to KeyVecHash
//               (sim/engine.h): the cache/table index hash.
//
// Kernels dispatch at runtime over SimdTier (AVX2 > SSE2 > scalar). Every
// tier is bit-identical to the scalar reference — SIMD only changes how many
// lanes a multiply covers, never the arithmetic (64-bit multiplies are
// synthesized from 32x32 partial products mod 2^64) — pinned by randomized
// equivalence tests. The PIPELEON_SIMD environment variable caps the tier
// ("0"/"scalar", "1"/"sse2", "2"/"avx2"; unset = no cap), so sanitizer CI
// runs both the vector and scalar code paths.
//
// Intrinsics live in match_batch.cpp; this header is self-contained (CI
// lints that) and safe to include from benches and tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/packet.h"

namespace pipeleon::sim {

/// Hash-kernel dispatch tiers, widest last. Sse2 is the x86-64 baseline;
/// non-x86 builds only ever resolve to Scalar.
enum class SimdTier : int { Scalar = 0, Sse2 = 1, Avx2 = 2 };

/// "scalar" / "sse2" / "avx2".
const char* simd_tier_name(SimdTier tier);

/// The widest tier this CPU supports (cached after the first call).
SimdTier cpu_simd_tier();

/// Parses a PIPELEON_SIMD-style cap: "0"/"scalar" -> Scalar, "1"/"sse2" ->
/// Sse2, anything else (including null/empty/"2"/"avx2") -> Avx2 (no cap).
SimdTier simd_tier_cap(const char* value);

/// The process-wide resolved tier: min(cpu_simd_tier(), PIPELEON_SIMD cap),
/// resolved once and cached — unless a test override is active.
SimdTier simd_tier();

/// Test hooks: force simd_tier() to `tier` (clamped to what the CPU
/// supports), and clear the override. Not for hot-path use.
void set_simd_tier_for_test(SimdTier tier);
void clear_simd_tier_for_test();

/// Keys per hash group: one AVX2 pass (2x4 lanes) or SSE2 pass (4x2 lanes),
/// and the number of probe prefetches kept in flight per lane.
inline constexpr std::size_t kHashGroup = 8;

/// Scalar single-key references over pre-gathered key words. Bit-identical
/// to rss_hash() / KeyVecHash{} by construction — the SIMD kernels and the
/// equivalence tests both anchor on these.
std::uint64_t rss_hash_words(const std::uint64_t* vals, std::size_t n);
std::uint64_t key_hash_words(const std::uint64_t* vals, std::size_t n);

/// Hashes kHashGroup keys gathered field-major — words[f * kHashGroup +
/// lane] is field f of lane's key — writing all kHashGroup lane hashes to
/// `out`. `tier` above what the CPU supports is clamped, so a stale cached
/// tier can never fault.
void rss_hash8(const std::uint64_t* words, std::size_t n_fields,
               std::uint64_t out[kHashGroup], SimdTier tier);
void key_hash8(const std::uint64_t* words, std::size_t n_fields,
               std::uint64_t out[kHashGroup], SimdTier tier);

/// Reusable gather+hash scratch for one consumer (a poll lane, the RSS
/// dispatcher, a bench loop). The field-major gather buffer grows amortized
/// — reserve() it during setup and the steady-state group hash performs no
/// heap allocation.
class MatchBatcher {
public:
    MatchBatcher() : tier_(simd_tier()) {}
    explicit MatchBatcher(SimdTier tier) : tier_(tier) {}

    SimdTier tier() const { return tier_; }
    void set_tier(SimdTier tier) { tier_ = tier; }

    /// Pre-sizes the gather buffer for keys of up to `n_fields` fields.
    void reserve(std::size_t n_fields) {
        if (words_.size() < n_fields * kHashGroup) {
            words_.resize(n_fields * kHashGroup, 0);
        }
    }

    /// Gathers the steering tuple of `n` (<= kHashGroup) packets and writes
    /// their RSS hashes to out[0..n). `packet_at(lane)` returns the lane's
    /// packet; lanes beyond `n` hash stale scratch and are not written out.
    template <typename PacketAt>
    void rss_group(PacketAt&& packet_at, std::size_t n, const FieldId* fields,
                   std::size_t n_fields, std::uint64_t* out) {
        gather(packet_at, n, fields, n_fields);
        std::uint64_t h[kHashGroup];
        rss_hash8(words_.data(), n_fields, h, tier_);
        for (std::size_t lane = 0; lane < n; ++lane) out[lane] = h[lane];
    }

    /// Same gather, hashed with the cache-index kernel (KeyVecHash
    /// semantics): the hashes feed CacheStore/TieredStore prefetch +
    /// lookup_hashed.
    template <typename PacketAt>
    void key_group(PacketAt&& packet_at, std::size_t n, const FieldId* fields,
                   std::size_t n_fields, std::uint64_t* out) {
        gather(packet_at, n, fields, n_fields);
        std::uint64_t h[kHashGroup];
        key_hash8(words_.data(), n_fields, h, tier_);
        for (std::size_t lane = 0; lane < n; ++lane) out[lane] = h[lane];
    }

private:
    template <typename PacketAt>
    void gather(PacketAt&& packet_at, std::size_t n, const FieldId* fields,
                std::size_t n_fields) {
        reserve(n_fields);
        for (std::size_t f = 0; f < n_fields; ++f) {
            std::uint64_t* w = words_.data() + f * kHashGroup;
            for (std::size_t lane = 0; lane < n; ++lane) {
                w[lane] = packet_at(lane).get(fields[f]);
            }
        }
    }

    SimdTier tier_;
    std::vector<std::uint64_t> words_;  ///< field-major, n_fields * kHashGroup
};

}  // namespace pipeleon::sim
