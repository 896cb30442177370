#include "runtime/api_mapper.h"

#include <algorithm>

#include "opt/merge.h"
#include "util/logging.h"

namespace pipeleon::runtime {

using ir::Node;
using ir::TableEntry;
using ir::TableRole;

ApiMapper::ApiMapper(const ir::Program& original) {
    for (const Node& n : original.nodes()) {
        if (n.is_table()) store_.try_emplace(n.table.name, n.table);
    }
}

bool ApiMapper::insert(sim::Emulator& emulator, const std::string& table,
                       const TableEntry& entry) {
    auto it = store_.find(table);
    if (it == store_.end() || !entry.compatible_with(it->second.table())) return false;
    it->second.append(entry);
    sim::StoreChange change;
    change.kind = sim::StoreChange::Kind::Insert;
    change.table = table;
    change.entry = entry;
    mirror(emulator, std::move(change));
    return true;
}

bool ApiMapper::erase(sim::Emulator& emulator, const std::string& table,
                      const std::vector<ir::FieldMatch>& key) {
    auto it = store_.find(table);
    if (it == store_.end() || !it->second.erase(key)) return false;
    sim::StoreChange change;
    change.kind = sim::StoreChange::Kind::Erase;
    change.table = table;
    change.key = key;
    mirror(emulator, std::move(change));
    return true;
}

bool ApiMapper::modify(sim::Emulator& emulator, const std::string& table,
                       const TableEntry& entry) {
    auto it = store_.find(table);
    if (it == store_.end() || !it->second.modify(entry)) return false;
    sim::StoreChange change;
    change.kind = sim::StoreChange::Kind::Modify;
    change.table = table;
    change.entry = entry;
    mirror(emulator, std::move(change));
    return true;
}

const std::vector<TableEntry>& ApiMapper::entries(const std::string& table) const {
    static const std::vector<TableEntry> kEmpty;
    auto it = store_.find(table);
    return it == store_.end() ? kEmpty : it->second.entries();
}

std::optional<std::vector<TableEntry>> ApiMapper::merged_entries(
    const ir::Table& merged) const {
    std::vector<const ir::Table*> sources;
    std::vector<std::vector<TableEntry>> source_entries;
    for (const std::string& origin : merged.origin_tables) {
        auto it = store_.find(origin);
        if (it == store_.end()) return std::nullopt;
        sources.push_back(&it->second.table());
        source_entries.push_back(it->second.entries_in_order());
    }
    bool as_cache = merged.role == TableRole::MergedCache;
    return opt::build_merged_entries(sources, source_entries, merged, as_cache);
}

void ApiMapper::mirror(sim::Emulator& emulator, sim::StoreChange change) const {
    for (const Node& n : emulator.program().nodes()) {
        if (!n.is_table() || (n.table.role != TableRole::Merged &&
                              n.table.role != TableRole::MergedCache)) {
            continue;
        }
        const auto& origins = n.table.origin_tables;
        if (std::find(origins.begin(), origins.end(), change.table) == origins.end()) {
            continue;
        }
        auto entries = merged_entries(n.table);
        if (entries.has_value()) {
            change.merged.push_back(ir::EntryLoad{n.table.name, std::move(*entries)});
        } else {
            util::log_warn("ApiMapper: merged entry rebuild for '" + n.table.name +
                           "' exceeded limits; table left unchanged");
        }
    }
    emulator.mirror(std::move(change));
}

void ApiMapper::deploy_entries(sim::Emulator& emulator) const {
    for (ir::EntryLoad& load : remapped_entries(emulator.program())) {
        emulator.set_entries(load.table, std::move(load.entries));
    }
}

std::vector<ir::EntryLoad> ApiMapper::remapped_entries(
    const ir::Program& deployed) const {
    std::vector<ir::EntryLoad> loads;
    for (const Node& n : deployed.nodes()) {
        if (!n.is_table()) continue;
        const ir::Table& t = n.table;
        switch (t.role) {
            case TableRole::Original: {
                auto it = store_.find(t.name);
                if (it != store_.end()) {
                    loads.push_back(ir::EntryLoad{t.name, it->second.entries_in_order()});
                }
                break;
            }
            case TableRole::Merged:
            case TableRole::MergedCache: {
                auto entries = merged_entries(t);
                if (entries.has_value()) {
                    loads.push_back(ir::EntryLoad{t.name, std::move(*entries)});
                } else {
                    util::log_warn("ApiMapper: merged entry rebuild for '" +
                                   t.name + "' exceeded limits; no load");
                }
                break;
            }
            case TableRole::Cache:
            case TableRole::Navigation:
            case TableRole::Migration:
                break;
        }
    }
    return loads;
}

std::unordered_map<std::string, std::size_t> ApiMapper::entry_counts() const {
    std::unordered_map<std::string, std::size_t> out;
    for (const auto& [name, state] : store_) out.emplace(name, state.entries().size());
    return out;
}

std::unordered_map<std::string, profile::EntrySnapshot> ApiMapper::snapshots()
    const {
    std::unordered_map<std::string, profile::EntrySnapshot> out;
    for (const auto& [name, state] : store_) {
        profile::EntrySnapshot snap;
        snap.entry_count = state.entries().size();
        snap.entry_updates = state.update_count();
        snap.lpm_prefix_count = state.lpm_prefix_count();
        snap.ternary_mask_count = state.ternary_mask_count();
        out.emplace(name, snap);
    }
    return out;
}

void ApiMapper::begin_window() {
    for (auto& [name, state] : store_) state.reset_update_count();
}

}  // namespace pipeleon::runtime
