// opt/merge.h — table merging (§3.2.3). Merging combines several tables into
// one so that a single key match performs all their actions. A naive merge
// of exact tables must add wildcard rows for the hit/miss cross cases and
// therefore becomes a *ternary* table (Fig 6), potentially with worse match
// cost; the merge-as-cache flavor instead emits an exact table holding only
// the all-hit cross products, with misses falling back to the original
// tables ("Packets missing the cache (the merged table) will fall back to
// the original tables. … it will not initiate entry insertion upon cache
// misses").
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ir/entry.h"
#include "ir/table.h"

namespace pipeleon::opt {

/// Limits protecting against cross-product explosion.
struct MergeLimits {
    std::size_t max_actions = 256;   ///< merged action cross-product cap
    std::size_t max_entries = 1u << 20;  ///< merged entry cross-product cap
};

/// True when one table may be a component of a merge: Original role,
/// action names free of the '+' separator, and — for full merges — a
/// default action without runtime arguments (a wildcard row cannot supply
/// action data). `as_cache` additionally requires every key to be exact.
bool mergeable_table(const ir::Table& table, bool as_cache);

/// True when the tables can legally be merged: at least two, each
/// `mergeable_table`, and pairwise independent (checked by the caller via
/// analysis::independent).
bool mergeable(const std::vector<const ir::Table*>& sources, bool as_cache);

/// Builds the merged table definition: concatenated keys (ternary for full
/// merges, exact for merge-as-cache), cross-product actions named
/// "aA+aB+...", role Merged or MergedCache. Returns nullopt when `sources`
/// violate `mergeable` or the action cross product exceeds limits.
std::optional<ir::Table> build_merged_table(
    const std::vector<const ir::Table*>& sources, bool as_cache,
    const std::string& name = "", const MergeLimits& limits = {});

/// Materializes merged entries from the sources' entry lists.
/// Full merge: cross product over (entries ∪ miss) per table, skipping the
/// all-miss combo only when the merged table's default action covers it;
/// each row's priority is its number of hit components. Merge-as-cache:
/// all-hit combos only, with exact keys. Returns nullopt when the product
/// exceeds limits.
std::optional<std::vector<ir::TableEntry>> build_merged_entries(
    const std::vector<const ir::Table*>& sources,
    const std::vector<std::vector<ir::TableEntry>>& source_entries,
    const ir::Table& merged, bool as_cache, const MergeLimits& limits = {});

/// The worst-case merged entry count N(T_AB) = Π N(T_k) (§3.2.3).
double estimated_merged_entries(const std::vector<double>& source_entry_counts);

/// The amplified entry update rate
/// I(T_AB) = Σ_k I_k · Π_{j≠k} N_j (§3.2.3).
double estimated_merged_update_rate(const std::vector<double>& source_entry_counts,
                                    const std::vector<double>& source_update_rates);

/// Number of runtime arguments an action consumes (max arg_index + 1).
int action_arg_count(const ir::Action& action);

}  // namespace pipeleon::opt
