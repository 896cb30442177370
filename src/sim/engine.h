// sim/engine.h — match engines. The emulator implements key matching the way
// the paper's cost model says SmartNICs do (§3.1): an exact match is one
// hash-table probe (m = 1); LPM is one hash table per distinct prefix
// length, probed longest-first; ternary is one hash table per distinct mask
// combination, probed with priority arbitration. Each engine reports its
// probe count m, so the emulated latency organically reproduces
// L_match = m * L_mat.
//
// Engines are maintained in place. TableState adds, removes and replaces
// one entry at a time and tells its engine, which touches only the hash
// chain that entry lives on: O(1) for exact tables, O(#prefix-length
// groups) for LPM and O(#mask groups) for ternary (finding the group), plus
// O(#range entries) for a range entry. A group appears with its first entry
// and disappears with its last, so m always counts live groups. rebuild()
// indexes a whole list at once; it implements bulk loads
// (TableState::set_entries) and is the oracle the randomized tests hold the
// in-place path to.
//
// Tie-breaks follow insertion order, never vector position: erase moves the
// last entry into the hole (swap-and-pop), so every entry carries an
// insertion stamp (EntryList). An exact or LPM key held by several entries
// resolves to the oldest; equal-priority ternary hits resolve to the
// oldest; erasing the winner exposes the next in line. Entries that share a
// masked key chain behind one index cell, so duplicates are the one slow
// path: an op on a chain of d entries costs O(d).
//
// lookup() and m() are inline: they run once per table per packet. Every
// probe, lookup or mutation, runs the one hash_key()/probe() template. An
// exact table has at most one group, and its masks are all ones, so its
// lookup instantiates them unmasked: it hashes and compares the raw key
// words without loading a mask, and gets the same hash and probe order as
// the masked instance its mutations use. LPM and ternary lookups take the
// masked path out of line.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "ir/entry.h"
#include "ir/table.h"
#include "sim/flow_hash.h"

namespace pipeleon::sim {

/// Gathered key field values, in table-key order.
using KeyVec = std::vector<std::uint64_t>;

/// Hash functor for KeyVec: the flow hash of its words.
struct KeyVecHash {
    std::size_t operator()(const KeyVec& key) const {
        return flow_hash(key.size(), [&key](std::size_t i) { return key[i]; });
    }
};

/// Result of a successful lookup: the index of the matched entry in the
/// table's entry list.
struct MatchOutcome {
    std::size_t entry_index = 0;
};

/// A table's live entries as the engines index them. `stamps[i]` is
/// entries[i]'s insertion stamp (smaller = older); after an erase the
/// vector is no longer in insertion order, the stamps still are.
struct EntryList {
    std::vector<ir::TableEntry> entries;
    std::vector<std::uint64_t> stamps;

    /// `entries` in insertion order: stamps 0..n-1.
    static EntryList ordered(std::vector<ir::TableEntry> entries);
};

/// Match engine of one table (kind and key widths fixed at construction).
/// It indexes an EntryList it does not own: the list must outlive the
/// engine's use, and every change to it goes through link/unlink/move.
/// Mutations run on the control plane only, never concurrently with
/// lookups (DESIGN.md §7).
class MatchEngine {
public:
    explicit MatchEngine(const ir::Table& table);

    /// Binds the engine to `list` and indexes every entry of it.
    void rebuild(const EntryList& list);

    /// Indexes entries[i]: a new last entry, or one replaced in place
    /// after unlink(i). Its stamp must already be set.
    void link(std::size_t i);
    /// Drops entries[i] from the index; the entry is still in the list.
    void unlink(std::size_t i);
    /// Re-points the index from position `from` to the unlinked position
    /// `to` — the swap half of a swap-and-pop erase, called before the list
    /// moves the entry.
    void move(std::size_t from, std::size_t to);

    /// Position of the oldest entry whose key equals `key` component for
    /// component (the entry an erase or modify by key addresses). Keys the
    /// engine never indexes — wrong arity, or non-LPM kinds in an LPM
    /// table — fall back to a scan of the whole list.
    std::optional<std::size_t> find(const std::vector<ir::FieldMatch>& key) const;

    /// Looks the key up; nullopt on miss.
    std::optional<MatchOutcome> lookup(const KeyVec& key) const {
        if (kind_ != ir::MatchKind::Exact) return lookup_masked(key);
        if (groups_.empty() || key.size() != widths_.size()) return std::nullopt;
        const Group& g = groups_.front();
        auto value_at = [&key](std::size_t c) { return key[c]; };
        const std::uint32_t head =
            g.cells[probe<false>(g, hash_key<false>(g, value_at), value_at)].head;
        if (head == kNil) return std::nullopt;
        return MatchOutcome{head};
    }

    /// Memory accesses (hash-table probes) one lookup costs.
    int m() const {
        if (kind_ == ir::MatchKind::Exact) return 1;
        return std::max(
            1, static_cast<int>(groups_.size() + (linear_.empty() ? 0 : 1)));
    }

private:
    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
    /// group_of() results that are not a group index.
    static constexpr int kAbsent = -1;     ///< hashable, but no such group yet
    static constexpr int kLinear = -2;     ///< ternary entry with a range
    static constexpr int kUnindexed = -3;  ///< never matched (kind or arity)

    /// One open-addressing cell: the low 32 bits of the masked key's hash
    /// and the head of the chain of entries sharing that masked key.
    struct Cell {
        std::uint32_t hash = 0;
        std::uint32_t head = kNil;
    };
    /// All entries with one mask combination (exact: one all-ones group;
    /// LPM: one prefix-length tuple; ternary: one mask tuple).
    struct Group {
        std::vector<std::uint64_t> masks;
        std::vector<int> lens;    ///< LPM: identity and probe order
        int total = 0;            ///< LPM: sum of lens
        std::vector<Cell> cells;  ///< size is zero or a power of two
        std::size_t keys = 0;     ///< occupied cells
        std::size_t size = 0;     ///< entries
    };

    /// lookup() of an LPM or ternary table: every probe masks the key.
    std::optional<MatchOutcome> lookup_masked(const KeyVec& key) const;
    /// Group of a key's shape: its index, or kAbsent / kLinear / kUnindexed.
    /// Leaves the shape in shape_masks_ / shape_lens_.
    int group_of(const std::vector<ir::FieldMatch>& key) const;
    /// Adds the group of the shape group_of() just computed (LPM groups
    /// stay in probe order); returns its index.
    int add_group();
    /// `v & g.masks[c]`; with Masked false, `v` (for a group whose masks
    /// are all ones).
    template <bool Masked>
    static std::uint64_t masked(const Group& g, std::size_t c, std::uint64_t v) {
        if constexpr (Masked) {
            return v & g.masks[c];
        } else {
            return v;
        }
    }
    /// Low 32 bits of the flow hash of the masked value_at(.) over the key
    /// components — KeyVecHash of the masked key.
    template <bool Masked, class ValueAt>
    std::uint32_t hash_key(const Group& g, ValueAt value_at) const {
        return static_cast<std::uint32_t>(flow_hash(g.masks.size(), [&](std::size_t c) {
            return masked<Masked>(g, c, value_at(c));
        }));
    }
    /// Cell holding the masked key value_at(.) (or the empty cell where it
    /// would go); `h` is its hash_key.
    template <bool Masked, class ValueAt>
    std::size_t probe(const Group& g, std::uint32_t h, ValueAt value_at) const {
        const std::size_t mask = g.cells.size() - 1;
        for (std::size_t p = h & mask;; p = (p + 1) & mask) {
            const Cell& cell = g.cells[p];
            if (cell.head == kNil) return p;
            if (cell.hash != h) continue;
            const std::vector<ir::FieldMatch>& k = list_->entries[cell.head].key;
            bool same = true;
            for (std::size_t c = 0; c < g.masks.size() && same; ++c) {
                same = masked<Masked>(g, c, k[c].value ^ value_at(c)) == 0;
            }
            if (same) return p;
        }
    }
    /// Cell holding entries[i]'s masked key in group g.
    std::size_t cell_of(const Group& g, std::size_t i) const;
    /// Chain order: true when entries[a] goes before entries[b] (ternary:
    /// higher priority, then older; otherwise older).
    bool before(std::size_t a, std::size_t b) const;
    static void grow(Group& g);
    /// Backward-shift deletion of cell `pos` (no tombstones).
    static void erase_cell(Group& g, std::size_t pos);

    ir::MatchKind kind_;
    std::vector<int> widths_;
    const EntryList* list_ = nullptr;
    std::vector<Group> groups_;
    std::vector<std::uint32_t> next_;    ///< chain links, by entry position
    std::vector<std::uint32_t> linear_;  ///< ternary entries with a range
    mutable std::vector<std::uint64_t> shape_masks_;
    mutable std::vector<int> shape_lens_;
};

}  // namespace pipeleon::sim
