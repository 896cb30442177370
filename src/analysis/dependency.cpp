#include "analysis/dependency.h"

#include <algorithm>
#include <functional>

namespace pipeleon::analysis {

FieldSets field_sets(const ir::Table& table) {
    FieldSets fs;
    for (const ir::MatchKey& k : table.keys) fs.keys.insert(k.field);
    fs.reads = fs.keys;
    for (const ir::Action& a : table.actions) {
        for (const std::string& f : a.read_fields()) fs.reads.insert(f);
        for (const std::string& f : a.written_fields()) fs.writes.insert(f);
    }
    return fs;
}

const char* to_string(DependencyKind kind) {
    switch (kind) {
        case DependencyKind::None: return "none";
        case DependencyKind::Match: return "match";
        case DependencyKind::Action: return "action";
        case DependencyKind::Write: return "write";
    }
    return "?";
}

namespace {

bool intersects(const std::set<std::string>& a, const std::set<std::string>& b) {
    // Iterate the smaller set.
    const auto& small = a.size() <= b.size() ? a : b;
    const auto& large = a.size() <= b.size() ? b : a;
    for (const std::string& s : small) {
        if (large.count(s) != 0) return true;
    }
    return false;
}

DependencyKind classify(const FieldSets& earlier, const FieldSets& later) {
    if (intersects(earlier.writes, later.keys)) return DependencyKind::Match;
    if (intersects(earlier.writes, later.reads)) return DependencyKind::Action;
    if (intersects(earlier.writes, later.writes)) return DependencyKind::Write;
    return DependencyKind::None;
}

}  // namespace

DependencyKind classify_dependency(const ir::Table& earlier,
                                   const ir::Table& later) {
    return classify(field_sets(earlier), field_sets(later));
}

bool independent(const ir::Table& a, const ir::Table& b) {
    return classify_dependency(a, b) == DependencyKind::None &&
           classify_dependency(b, a) == DependencyKind::None;
}

DependencyGraph::DependencyGraph(const std::vector<ir::Table>& tables)
    : n_(tables.size()), kind_(n_ * n_, DependencyKind::None) {
    std::vector<FieldSets> fs;
    fs.reserve(n_);
    for (const ir::Table& t : tables) fs.push_back(field_sets(t));
    for (std::size_t i = 0; i < n_; ++i) {
        for (std::size_t j = 0; j < n_; ++j) {
            if (i != j) kind_[i * n_ + j] = classify(fs[i], fs[j]);
        }
    }
}

bool DependencyGraph::dependent(std::size_t i, std::size_t j) const {
    if (i >= n_ || j >= n_ || i == j) return false;
    return dep_at(i, j);
}

bool DependencyGraph::order_is_valid(const std::vector<std::size_t>& order) const {
    if (order.size() != n_) return false;
    for (std::size_t x = 0; x < order.size(); ++x) {
        for (std::size_t y = x + 1; y < order.size(); ++y) {
            // Dependent pairs must keep their original relative order:
            // original position numbers are the dependency direction.
            if (dep_at(order[x], order[y]) && order[x] > order[y]) return false;
        }
    }
    return true;
}

bool DependencyGraph::can_group(const std::vector<std::size_t>& positions) const {
    // The group can be made contiguous iff no external table k is forced to
    // sit between two group members: dep(a -> k) and dep(k -> b) with
    // a, b in the group and a < k < b in original order.
    for (std::size_t k = 0; k < n_; ++k) {
        if (std::find(positions.begin(), positions.end(), k) != positions.end()) {
            continue;
        }
        bool before = false;  // some group member a < k depends into k
        bool after = false;   // some group member b > k depends from k
        for (std::size_t p : positions) {
            if (p < k && dep_at(p, k)) before = true;
            if (p > k && dep_at(k, p)) after = true;
        }
        if (before && after) return false;
    }
    return true;
}

std::vector<std::vector<std::size_t>> DependencyGraph::valid_orders(
    std::size_t limit) const {
    std::vector<std::vector<std::size_t>> results;
    std::vector<std::size_t> current;
    std::vector<bool> used(n_, false);

    // Backtracking over permutations; a position p may be placed next only
    // when every unplaced q with dep(q -> p) (q < p) has been placed.
    auto may_place = [&](std::size_t p) {
        for (std::size_t q = 0; q < p; ++q) {
            if (!used[q] && dep_at(q, p)) return false;
        }
        return true;
    };

    std::function<void()> recurse = [&]() {
        if (results.size() >= limit) return;
        if (current.size() == n_) {
            results.push_back(current);
            return;
        }
        for (std::size_t p = 0; p < n_; ++p) {
            if (used[p] || !may_place(p)) continue;
            used[p] = true;
            current.push_back(p);
            recurse();
            current.pop_back();
            used[p] = false;
            if (results.size() >= limit) return;
        }
    };
    recurse();
    return results;
}

}  // namespace pipeleon::analysis
