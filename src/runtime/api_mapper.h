// runtime/api_mapper.h — control-plane API mapping (§2.3): "Pipeleon ensures
// the same program management APIs (e.g., entry insertion) by mapping the
// API calls to the original program to the optimized version." Operators
// keep inserting/deleting entries against original table names; the mapper
// owns the authoritative original-space entry store and mirrors each change
// onto whatever deployed tables implement the original one, as one control
// op: a deployed original table takes the change in place, merged tables
// get their Cartesian entries rebuilt, covering caches are invalidated. It
// also tracks per-table update rates for the profiler.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/program.h"
#include "profile/counter_map.h"
#include "sim/emulator.h"
#include "sim/table_state.h"

namespace pipeleon::runtime {

class ApiMapper {
public:
    explicit ApiMapper(const ir::Program& original);

    // ---------------------------------------------- operator-facing API

    /// Inserts an entry into an original table; propagated to the deployed
    /// program in `emulator`. Returns false for unknown tables or
    /// incompatible entries. The table's declared size is not enforced.
    bool insert(sim::Emulator& emulator, const std::string& table,
                const ir::TableEntry& entry);
    /// Erases the oldest entry with this key.
    bool erase(sim::Emulator& emulator, const std::string& table,
               const std::vector<ir::FieldMatch>& key);
    bool modify(sim::Emulator& emulator, const std::string& table,
                const ir::TableEntry& entry);

    /// The original-space entries of a table (empty vector for unknown);
    /// not in insertion order once an entry was erased.
    const std::vector<ir::TableEntry>& entries(const std::string& table) const;

    // ------------------------------------------------- deployment support

    /// Installs the full original-space store into a freshly deployed
    /// program: direct tables get their entries, merged tables get the
    /// rebuilt cross products.
    void deploy_entries(sim::Emulator& emulator) const;

    /// Pure compute half of deploy_entries: the entry loads (deployed table
    /// name -> entries, in insertion order) a deployment of `deployed`
    /// needs, without touching any emulator. The controller runs this off
    /// the hot path, hands the result to the verifier's entry.remap.* pass,
    /// and ships it inside a single EpochSwap so layout and entries install
    /// atomically. Merged tables whose rebuild exceeds limits yield no load
    /// (the verifier reports them as entry.remap.missing-load).
    std::vector<ir::EntryLoad> remapped_entries(
        const ir::Program& deployed) const;

    /// Live entry count per original table (for the verifier).
    std::unordered_map<std::string, std::size_t> entry_counts() const;

    // ------------------------------------------------------- profiling

    /// Per-original-table entry snapshots for the current window (counts,
    /// update totals, prefix/mask diversity). Merged-away tables are
    /// included — the emulator cannot know them.
    std::unordered_map<std::string, profile::EntrySnapshot> snapshots() const;

    /// Zeroes the window update counters.
    void begin_window();

private:
    /// Adds the rebuilt cross product of every deployed merged table that
    /// implements `change.table`, then submits the change as one op.
    void mirror(sim::Emulator& emulator, sim::StoreChange change) const;

    /// A merged table's cross-product entries from the store; nullopt when
    /// a source is unknown or the rebuild exceeds opt::build_merged_entries
    /// limits.
    std::optional<std::vector<ir::TableEntry>> merged_entries(
        const ir::Table& merged) const;

    // Hashed by table name: every control-plane call looks its table up.
    // Each table is a sim::TableState (entries, insertion stamps, key index,
    // diversity and update counts), so an op costs O(1) in the table size.
    std::unordered_map<std::string, sim::TableState> store_;
};

}  // namespace pipeleon::runtime
