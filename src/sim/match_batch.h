// sim/match_batch.h — batched match-path hashing (DESIGN.md §15). A poll
// lane takes its RX descriptors in groups of kHashGroup (8): it hashes the
// group's root-cache keys, prefetches all eight index cells, then resolves
// each probe with the loads already in flight. RssDispatcher hashes its
// steering tuples the same way. Both run hash_group(), the flow hash
// (sim/flow_hash.h) over each lane's key, field-major so the eight lanes'
// multiply chains overlap.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/flow_hash.h"
#include "sim/packet.h"

namespace pipeleon::sim {

/// Keys per group: the number of probe prefetches a lane keeps in flight.
inline constexpr std::size_t kHashGroup = 8;

/// Writes the flow hash of the `n` (<= kHashGroup) lanes' keys to out[0..n):
/// lane's key is packet_at(lane)'s values of fields[0..n_fields). Equals
/// rss_hash(packet_at(lane), fields, n_fields) and KeyVecHash of the
/// gathered key; out[n..) is not written.
template <typename PacketAt>
void hash_group(PacketAt&& packet_at, std::size_t n, const FieldId* fields,
                std::size_t n_fields, std::uint64_t* out) {
    std::uint64_t h[kHashGroup];
    for (std::size_t lane = 0; lane < n; ++lane) h[lane] = kFlowHashBasis;
    for (std::size_t f = 0; f < n_fields; ++f) {
        for (std::size_t lane = 0; lane < n; ++lane) {
            h[lane] = flow_hash_step(h[lane], packet_at(lane).get(fields[f]));
        }
    }
    for (std::size_t lane = 0; lane < n; ++lane) out[lane] = flow_hash_finish(h[lane]);
}

/// The group hash under the names benches call. Steering and cache keys
/// hash alike, so both names run hash_group(); there is no scratch to size.
class MatchBatcher {
public:
    void reserve(std::size_t /*n_fields*/) {}

    template <typename PacketAt>
    void rss_group(PacketAt&& packet_at, std::size_t n, const FieldId* fields,
                   std::size_t n_fields, std::uint64_t* out) {
        hash_group(packet_at, n, fields, n_fields, out);
    }

    template <typename PacketAt>
    void key_group(PacketAt&& packet_at, std::size_t n, const FieldId* fields,
                   std::size_t n_fields, std::uint64_t* out) {
        hash_group(packet_at, n, fields, n_fields, out);
    }
};

/// Host-facts label: the group hash has one scalar kernel.
enum class SimdTier { Scalar };
inline SimdTier simd_tier() { return SimdTier::Scalar; }
inline const char* simd_tier_name(SimdTier) { return "scalar"; }

}  // namespace pipeleon::sim
