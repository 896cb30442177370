// analysis/dependency.h — table dependency analysis. Pipeleon's
// transformations "preserve the program semantics by table dependency
// analysis [34]" (§3.2). Following the classic match-action dependency
// taxonomy (Jose et al., NSDI'15), two tables conflict when one writes a
// field the other matches on (match dependency), writes a field the other's
// actions read (action dependency), or both write the same field (write
// dependency). Independent tables may be freely reordered, merged, or cached
// together. A pipelet's DependencyGraph holds the directed kind of every
// table pair, from footprints computed once per table; the candidate search
// answers its per-layout legality questions from that matrix.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "ir/program.h"

namespace pipeleon::analysis {

/// Field-level read/write footprint of a table.
struct FieldSets {
    std::set<std::string> keys;    ///< match-key fields
    std::set<std::string> reads;   ///< match-key fields + action-read fields
    std::set<std::string> writes;  ///< action-written fields
};

/// Computes the footprint of a table (all actions considered, since any may
/// execute at runtime).
FieldSets field_sets(const ir::Table& table);

/// The kind of dependency found between an earlier and a later table.
enum class DependencyKind {
    None,
    Match,   ///< earlier writes a field the later matches on
    Action,  ///< earlier writes a field the later's actions read
    Write    ///< both write the same field
};

const char* to_string(DependencyKind kind);

/// Classifies the dependency of `later` on `earlier`; returns the strongest
/// kind found (Match > Action > Write > None).
DependencyKind classify_dependency(const ir::Table& earlier,
                                   const ir::Table& later);

/// True when the two tables have no dependency in either direction, i.e.
/// they commute and may be reordered/merged/cached jointly.
bool independent(const ir::Table& a, const ir::Table& b);

/// Pairwise dependency structure over an ordered table sequence (a pipelet).
/// Index i refers to the i-th table of the sequence given at construction.
class DependencyGraph {
public:
    explicit DependencyGraph(const std::vector<ir::Table>& tables);

    std::size_t size() const { return n_; }

    /// classify_dependency(tables[i], tables[j]) for i != j (None when
    /// i == j): the dependency of the table at j on the table at i, were i
    /// to run first. Directed, so it answers for any order a run is placed
    /// in.
    DependencyKind kind(std::size_t i, std::size_t j) const {
        return kind_[i * n_ + j];
    }

    /// True when tables at positions i and j (any order) are dependent.
    bool dependent(std::size_t i, std::size_t j) const;

    /// True when the permutation `order` (a sequence of positions) preserves
    /// the relative order of every dependent pair.
    bool order_is_valid(const std::vector<std::size_t>& order) const;

    /// True when positions [first, last] may be placed adjacently in some
    /// valid order and treated as a unit (required for merging/caching a
    /// contiguous run after reordering).
    bool can_group(const std::vector<std::size_t>& positions) const;

    /// All dependency-respecting permutations, capped at `limit` results
    /// (the search bounds enumeration; §4's naive-solution discussion).
    std::vector<std::vector<std::size_t>> valid_orders(std::size_t limit) const;

private:
    std::size_t n_;
    std::vector<DependencyKind> kind_;  // n*n, row = earlier table

    bool dep_at(std::size_t i, std::size_t j) const {
        return kind(i, j) != DependencyKind::None ||
               kind(j, i) != DependencyKind::None;
    }
};

}  // namespace pipeleon::analysis
