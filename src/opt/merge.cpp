#include "opt/merge.h"

#include <algorithm>

#include "profile/counter_map.h"  // kMergedActionSep
#include "util/strings.h"

namespace pipeleon::opt {

using ir::Action;
using ir::FieldMatch;
using ir::MatchKey;
using ir::MatchKind;
using ir::Primitive;
using ir::Table;
using ir::TableEntry;

int action_arg_count(const Action& action) {
    int max_arg = -1;
    for (const Primitive& p : action.primitives) {
        max_arg = std::max(max_arg, p.arg_index);
    }
    return max_arg + 1;
}

namespace {

/// Marker for "table missed and has no default action" components.
const char* kMissMarker = "-";

std::uint64_t full_mask(int width_bits) {
    if (width_bits >= 64) return ~0ULL;
    return (1ULL << width_bits) - 1;
}

std::uint64_t lpm_mask(int prefix_len, int width_bits) {
    if (prefix_len <= 0) return 0;
    if (prefix_len >= width_bits) return full_mask(width_bits);
    return full_mask(width_bits) & ~full_mask(width_bits - prefix_len);
}

/// Per-table component choice during cross-product enumeration.
struct Component {
    /// Action index in the source table, or -1 for a miss.
    int action = -1;
    /// Entry index in the source entry list, or -1 for a miss row.
    int entry = -1;
};

std::string component_name(const Table& src, int action) {
    if (action >= 0) return src.actions[static_cast<std::size_t>(action)].name;
    if (src.default_action >= 0) {
        return src.actions[static_cast<std::size_t>(src.default_action)].name;
    }
    return kMissMarker;
}

}  // namespace

bool mergeable_table(const Table& table, bool as_cache) {
    if (table.role != ir::TableRole::Original) return false;
    for (const Action& a : table.actions) {
        if (a.name.find(profile::kMergedActionSep) != std::string::npos) {
            return false;
        }
    }
    if (as_cache) {
        for (const MatchKey& k : table.keys) {
            if (k.kind != MatchKind::Exact) return false;
        }
    } else if (table.default_action >= 0) {
        // Full-merge wildcard rows execute the default action with no entry
        // to supply action data.
        const Action& dflt =
            table.actions[static_cast<std::size_t>(table.default_action)];
        if (action_arg_count(dflt) > 0) return false;
    }
    return true;
}

bool mergeable(const std::vector<const Table*>& sources, bool as_cache) {
    if (sources.size() < 2) return false;
    return std::all_of(sources.begin(), sources.end(), [as_cache](const Table* t) {
        return t != nullptr && mergeable_table(*t, as_cache);
    });
}

std::optional<Table> build_merged_table(const std::vector<const Table*>& sources,
                                        bool as_cache, const std::string& name,
                                        const MergeLimits& limits) {
    if (!mergeable(sources, as_cache)) return std::nullopt;

    Table merged;
    merged.role = as_cache ? ir::TableRole::MergedCache : ir::TableRole::Merged;
    std::vector<std::string> names;
    for (const Table* t : sources) {
        names.push_back(t->name);
        merged.origin_tables.push_back(t->name);
        for (const MatchKey& k : t->keys) {
            MatchKey mk = k;
            if (!as_cache) mk.kind = MatchKind::Ternary;  // naive merge (Fig 6)
            merged.keys.push_back(std::move(mk));
        }
    }
    merged.name = name.empty() ? "merge_" + util::join(names, "_") : name;

    // Cross product of actions. Each table contributes its actions plus, for
    // full merges, a miss component (the default action, or a no-op when the
    // table has no default).
    std::size_t combos = 1;
    for (const Table* t : sources) {
        std::size_t per = t->actions.size();
        if (!as_cache) {
            // Miss adds a distinct component only when the table has no
            // default action (otherwise the miss reuses the default action's
            // component).
            if (t->default_action < 0) per += 1;
        }
        combos *= per;
        if (combos > limits.max_actions) return std::nullopt;
    }

    // Enumerate component tuples.
    std::vector<std::vector<int>> choices;  // per table: action ids (+ -1 miss)
    for (const Table* t : sources) {
        std::vector<int> c;
        for (std::size_t a = 0; a < t->actions.size(); ++a) {
            c.push_back(static_cast<int>(a));
        }
        if (!as_cache && t->default_action < 0) c.push_back(-1);
        choices.push_back(std::move(c));
    }

    std::vector<int> idx(sources.size(), 0);
    while (true) {
        Action act;
        std::vector<std::string> parts;
        for (std::size_t i = 0; i < sources.size(); ++i) {
            const Table& src = *sources[i];
            int a = choices[i][static_cast<std::size_t>(idx[i])];
            parts.push_back(component_name(src, a));
            int effective = a >= 0 ? a : src.default_action;
            if (effective >= 0) {
                const Action& sa =
                    src.actions[static_cast<std::size_t>(effective)];
                int offset = action_arg_count(act);
                for (Primitive p : sa.primitives) {
                    if (p.arg_index >= 0) p.arg_index += offset;
                    act.primitives.push_back(std::move(p));
                }
            }
        }
        act.name = util::join(parts, std::string(1, profile::kMergedActionSep));
        // De-duplicate: different component tuples can produce the same name
        // (miss vs executing the default action explicitly).
        if (merged.action_index(act.name) < 0) {
            merged.actions.push_back(std::move(act));
        }

        // Advance the odometer.
        std::size_t d = 0;
        while (d < idx.size()) {
            if (++idx[d] < static_cast<int>(choices[d].size())) break;
            idx[d] = 0;
            ++d;
        }
        if (d == idx.size()) break;
    }

    // A miss on the merged table behaves like every source missing: the
    // tuple where each source executes its default action (or nothing).
    if (!as_cache) {
        std::vector<std::string> miss_parts;
        for (const Table* t : sources) miss_parts.push_back(component_name(*t, -1));
        merged.default_action = merged.action_index(
            util::join(miss_parts, std::string(1, profile::kMergedActionSep)));
    } else {
        merged.default_action = -1;  // miss falls back to the original tables
    }

    std::size_t size = 1;
    for (const Table* t : sources) size *= std::max<std::size_t>(1, t->size);
    merged.size = std::min<std::size_t>(size, limits.max_entries);
    merged.asic_supported =
        std::all_of(sources.begin(), sources.end(),
                    [](const Table* t) { return t->asic_supported; });
    return merged;
}

std::optional<std::vector<TableEntry>> build_merged_entries(
    const std::vector<const Table*>& sources,
    const std::vector<std::vector<TableEntry>>& source_entries,
    const Table& merged, bool as_cache, const MergeLimits& limits) {
    if (sources.size() != source_entries.size()) return std::nullopt;

    // Worst-case product check before enumerating.
    double product = 1.0;
    for (const auto& entries : source_entries) {
        product *= static_cast<double>(entries.size() + (as_cache ? 0 : 1));
        if (product > static_cast<double>(limits.max_entries)) return std::nullopt;
    }

    std::vector<TableEntry> result;
    std::vector<int> idx(sources.size(), 0);  // entry index; size() means miss

    auto choices_for = [&](std::size_t i) -> int {
        int n = static_cast<int>(source_entries[i].size());
        return as_cache ? n : n + 1;  // full merges add the miss row
    };
    for (std::size_t i = 0; i < sources.size(); ++i) {
        if (choices_for(i) == 0) return result;  // empty source, empty cache
    }

    while (true) {
        TableEntry row;
        std::vector<std::string> parts;
        int hit_components = 0;
        bool skip = false;
        for (std::size_t i = 0; i < sources.size(); ++i) {
            const Table& src = *sources[i];
            bool miss = idx[i] == static_cast<int>(source_entries[i].size());
            if (miss) {
                parts.push_back(component_name(src, -1));
                for (const MatchKey& k : src.keys) {
                    (void)k;
                    row.key.push_back(FieldMatch::wildcard());
                }
            } else {
                const TableEntry& e =
                    source_entries[i][static_cast<std::size_t>(idx[i])];
                if (e.action_index < 0 ||
                    static_cast<std::size_t>(e.action_index) >=
                        src.actions.size()) {
                    skip = true;
                    break;
                }
                ++hit_components;
                parts.push_back(
                    src.actions[static_cast<std::size_t>(e.action_index)].name);
                for (std::size_t c = 0; c < e.key.size(); ++c) {
                    const FieldMatch& m = e.key[c];
                    int width = src.keys[c].width_bits;
                    if (as_cache) {
                        row.key.push_back(m);  // exact sources only
                    } else {
                        switch (m.kind) {
                            case MatchKind::Exact:
                                row.key.push_back(FieldMatch::ternary(
                                    m.value, full_mask(width)));
                                break;
                            case MatchKind::Lpm:
                                row.key.push_back(FieldMatch::ternary(
                                    m.value, lpm_mask(m.prefix_len, width)));
                                break;
                            case MatchKind::Ternary:
                                row.key.push_back(m);
                                break;
                            case MatchKind::Range:
                                // Ranges cannot be mask-encoded; reject.
                                skip = true;
                                break;
                        }
                    }
                    if (skip) break;
                }
                for (std::uint64_t v : e.action_data) row.action_data.push_back(v);
            }
            if (skip) break;
        }

        if (!skip) {
            std::string action_name =
                util::join(parts, std::string(1, profile::kMergedActionSep));
            int a = merged.action_index(action_name);
            bool all_miss = hit_components == 0;
            // The all-miss combo is covered by the merged default action;
            // a wildcard row would be redundant.
            if (a >= 0 && !(all_miss && merged.default_action == a)) {
                row.action_index = a;
                row.priority = hit_components;
                result.push_back(std::move(row));
                if (result.size() > limits.max_entries) return std::nullopt;
            }
        }

        std::size_t d = 0;
        while (d < idx.size()) {
            if (++idx[d] < choices_for(d)) break;
            idx[d] = 0;
            ++d;
        }
        if (d == idx.size()) break;
    }
    return result;
}

double estimated_merged_entries(const std::vector<double>& source_entry_counts) {
    double product = 1.0;
    for (double n : source_entry_counts) product *= std::max(1.0, n);
    return product;
}

double estimated_merged_update_rate(const std::vector<double>& source_entry_counts,
                                    const std::vector<double>& source_update_rates) {
    double total = 0.0;
    for (std::size_t k = 0; k < source_update_rates.size(); ++k) {
        double amplification = 1.0;
        for (std::size_t j = 0; j < source_entry_counts.size(); ++j) {
            if (j != k) amplification *= std::max(1.0, source_entry_counts[j]);
        }
        total += source_update_rates[k] * amplification;
    }
    return total;
}

}  // namespace pipeleon::opt
