// ir/entry.h — logical table entries. The control plane owns entries at the
// *original* program level; deployment translates them into the optimized
// layout (Cartesian-combined for merged tables, §3.2.3). Entries drive both
// the match engines in the emulator and the m-multiplier estimation of the
// cost model (m for LPM/ternary depends on the number of distinct prefix
// lengths / masks in the entries, §3.1).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/table.h"

namespace pipeleon::ir {

/// One key component of an entry. Interpretation depends on `kind`:
///  - Exact:   match when field == value
///  - Lpm:     match when (field >> (width-prefix_len)) == (value >> ...)
///  - Ternary: match when (field & mask) == (value & mask)
///  - Range:   match when lo <= field <= hi (value=lo, mask=hi)
struct FieldMatch {
    MatchKind kind = MatchKind::Exact;
    std::uint64_t value = 0;
    std::uint64_t mask = ~0ULL;  ///< ternary mask, or range hi bound
    int prefix_len = 0;          ///< LPM prefix length in bits

    bool operator==(const FieldMatch&) const = default;

    static FieldMatch exact(std::uint64_t v);
    static FieldMatch lpm(std::uint64_t v, int prefix_len);
    static FieldMatch ternary(std::uint64_t v, std::uint64_t mask);
    static FieldMatch range(std::uint64_t lo, std::uint64_t hi);
    /// Fully-wildcarded ternary component (the "*" rows a naive exact-table
    /// merge requires, Fig 6).
    static FieldMatch wildcard();

    /// True when this component matches the given field value, using the
    /// key's declared bit width for LPM shifts.
    bool matches(std::uint64_t field_value, int width_bits) const;

    /// True when every value matched by `other` is also matched by this
    /// component (used to detect shadowed merged entries).
    bool covers(const FieldMatch& other, int width_bits) const;

    bool is_wildcard() const;
};

/// A table entry: one FieldMatch per key component, an action selection,
/// action data (runtime arguments consumed by Primitive::arg_index), and a
/// priority for ternary tables (higher wins).
struct TableEntry {
    std::vector<FieldMatch> key;
    int action_index = 0;
    std::vector<std::uint64_t> action_data;
    int priority = 0;

    bool operator==(const TableEntry&) const = default;

    /// Checks structural compatibility with a table definition: component
    /// count and kinds line up with the table's keys. Ternary table keys
    /// accept exact and wildcard components (an exact value is a fully
    /// masked ternary).
    bool compatible_with(const Table& table) const;

    /// True when this entry matches the given key field values.
    bool matches(const std::vector<std::uint64_t>& field_values,
                 const std::vector<MatchKey>& keys) const;
};

/// A bulk entry load addressed to one *deployed* table — the unit the
/// control plane hands the emulator when an epoch swap installs a remapped
/// entry set (direct tables get the original store, merged tables their
/// rebuilt cross products). The verifier's entry.remap.* rules check a
/// vector of these against the original store before deployment.
struct EntryLoad {
    std::string table;
    std::vector<TableEntry> entries;

    bool operator==(const EntryLoad&) const = default;
};

/// Counts the distinct LPM prefix lengths across entries — the paper's m
/// multiplier for LPM tables ("implemented using multiple hash tables",
/// one per prefix length). A full scan: the reference EntryDiversity is
/// tested against.
int distinct_prefix_lengths(const std::vector<TableEntry>& entries);

/// Counts the distinct ternary mask combinations across entries — the m
/// multiplier for ternary tables. A full scan, like the above.
int distinct_masks(const std::vector<TableEntry>& entries);

/// distinct_prefix_lengths / distinct_masks kept up to date one entry at a
/// time: a refcount per prefix length and per mask combination, so an
/// insert or erase costs O(log #distinct values) instead of a rescan.
class EntryDiversity {
public:
    void add(const TableEntry& entry);
    /// `entry` must have been added.
    void remove(const TableEntry& entry);
    void clear();

    int prefix_lengths() const { return static_cast<int>(lens_.size()); }
    int masks() const { return static_cast<int>(masks_.size()); }

private:
    std::map<int, std::uint32_t> lens_;
    std::map<std::vector<std::uint64_t>, std::uint32_t> masks_;
};

}  // namespace pipeleon::ir
