#include "analysis/verify.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>

#include "analysis/dependency.h"
#include "util/strings.h"

namespace pipeleon::analysis {

using ir::kNoNode;
using ir::Node;
using ir::NodeId;
using ir::Program;
using ir::TableRole;

namespace {

bool id_in_range(const Program& p, NodeId id) {
    return id >= 0 && static_cast<std::size_t>(id) < p.node_count();
}

bool is_context_role(TableRole role) {
    return role == TableRole::Navigation || role == TableRole::Migration;
}

bool is_cache_role(TableRole role) {
    return role == TableRole::Cache || role == TableRole::MergedCache;
}

/// The unique successor of a straight-line node; kNoNode for exits,
/// nullopt when the node fans out.
std::optional<NodeId> uniform_successor(const Node& n) {
    std::vector<NodeId> succ = n.successors();
    if (succ.empty()) return kNoNode;
    if (succ.size() == 1) return succ[0];
    return std::nullopt;
}

/// Follows Navigation/Migration context tables (core-partition plumbing,
/// §3.2.4) to the node that does real work; they are transparent to the
/// cache-cover and path-preservation checks.
NodeId resolve_through_context(const Program& p, NodeId id) {
    std::size_t guard = p.node_count() + 1;
    while (id != kNoNode && guard-- > 0) {
        const Node& n = p.node(id);
        if (!n.is_table() || !is_context_role(n.table.role)) return id;
        std::optional<NodeId> next = uniform_successor(n);
        if (!next.has_value()) return id;
        id = *next;
    }
    return id;
}

int action_args_needed(const ir::Action& action) {
    int needed = 0;
    for (const ir::Primitive& prim : action.primitives) {
        needed = std::max(needed, prim.arg_index + 1);
    }
    return needed;
}

/// Inserts `names` into the sorted, de-duplicated vector `dest`.
void merge_names(std::vector<std::string>& dest,
                 const std::vector<std::string>& names) {
    for (const std::string& name : names) {
        auto it = std::lower_bound(dest.begin(), dest.end(), name);
        if (it == dest.end() || *it != name) dest.insert(it, name);
    }
}

std::string name_set_to_string(const std::vector<std::string>& names) {
    std::string out = "{";
    out += util::join(names, ",");
    out += '}';
    return out;
}

}  // namespace

DiagnosticList Verifier::check_program(const Program& program) const {
    DiagnosticList d;
    if (program.node_count() == 0) {
        d.error("structure.empty", kNoNode, "program has no nodes");
        return d;
    }
    bool root_ok = id_in_range(program, program.root());
    if (!root_ok) {
        d.error("structure.root", kNoNode,
                "root " + std::to_string(program.root()) +
                    " does not name a live node");
    }

    bool edges_ok = true;
    std::set<std::string> names;
    for (std::size_t idx = 0; idx < program.node_count(); ++idx) {
        const Node& n = program.nodes()[idx];
        if (n.id != static_cast<NodeId>(idx)) {
            d.error("structure.node-id", static_cast<NodeId>(idx),
                    util::format("node at index %zu carries id %d", idx,
                                 n.id));
        }
        auto check_edge = [&](NodeId target, const char* what) {
            if (target != kNoNode && !id_in_range(program, target)) {
                d.error("structure.edge-target", n.id,
                        util::format("%s points at dead node %d", what, target));
                edges_ok = false;
            } else if (target == n.id) {
                d.error("structure.self-loop", n.id,
                        util::format("%s forms a self-loop", what));
                edges_ok = false;
            }
        };
        if (n.is_table()) {
            const ir::Table& t = n.table;
            if (t.name.empty()) {
                d.error("structure.table.name", n.id, "table has an empty name");
            } else if (!names.insert(t.name).second) {
                d.error("structure.table.name", n.id,
                        "duplicate table name '" + t.name + "'");
            }
            if (t.actions.empty()) {
                d.error("structure.table.actions", n.id,
                        "table '" + t.name + "' has no actions");
            }
            if (t.keys.empty()) {
                d.error("structure.table.keys", n.id,
                        "table '" + t.name + "' has no match keys");
            }
            if (n.next_by_action.size() != t.actions.size()) {
                d.error("structure.table.arity", n.id,
                        util::format(
                            "table '%s' has %zu actions but %zu action edges",
                            t.name.c_str(), t.actions.size(),
                            n.next_by_action.size()));
            }
            if (t.default_action >= 0 &&
                static_cast<std::size_t>(t.default_action) >= t.actions.size()) {
                d.error("structure.table.default-action", n.id,
                        util::format("table '%s' default action %d out of range",
                                     t.name.c_str(), t.default_action));
            }
            for (NodeId e : n.next_by_action) check_edge(e, "action edge");
            check_edge(n.miss_next, "miss edge");
        } else {
            if (n.cond.field.empty()) {
                d.error("structure.branch.cond", n.id,
                        "branch has an empty condition field");
            }
            check_edge(n.true_next, "true edge");
            check_edge(n.false_next, "false edge");
            if (n.true_next == kNoNode && n.false_next == kNoNode) {
                d.warning("structure.branch.degenerate", n.id,
                          "branch has no live arm (both exits leave the "
                          "pipeline)");
            }
        }
    }
    // Traversal-dependent checks need sane edges and a live root.
    if (!edges_ok || !root_ok) return d;

    // Reachability + cycle detection via iterative three-color DFS.
    std::vector<std::uint8_t> color(program.node_count(), 0);  // 0/1/2
    struct Frame {
        NodeId id;
        std::vector<NodeId> succ;
        std::size_t next = 0;
    };
    std::vector<Frame> stack;
    bool cyclic = false;
    color[static_cast<std::size_t>(program.root())] = 1;
    stack.push_back({program.root(), program.node(program.root()).successors()});
    while (!stack.empty()) {
        Frame& f = stack.back();
        if (f.next >= f.succ.size()) {
            color[static_cast<std::size_t>(f.id)] = 2;
            stack.pop_back();
            continue;
        }
        NodeId s = f.succ[f.next++];
        if (s == kNoNode) continue;
        std::uint8_t c = color[static_cast<std::size_t>(s)];
        if (c == 1) {
            if (!cyclic) {
                d.error("structure.cycle", s,
                        util::format("cycle through node %d", s));
            }
            cyclic = true;
        } else if (c == 0) {
            color[static_cast<std::size_t>(s)] = 1;
            stack.push_back({s, program.node(s).successors()});
        }
    }
    if (options_.warn_unreachable) {
        for (std::size_t idx = 0; idx < program.node_count(); ++idx) {
            if (color[idx] == 0) {
                d.warning("structure.unreachable", static_cast<NodeId>(idx),
                          "node is not reachable from the root");
            }
        }
    }
    if (cyclic) return d;  // chain walks below assume a DAG

    // Cache nodes must front a contiguous run of their covered tables: the
    // miss edge enters the originals in origin_tables order, and the run
    // rejoins the cache's hit successor (opt/cache.h, §3.2.2).
    for (std::size_t idx = 0; idx < program.node_count(); ++idx) {
        const Node& n = program.nodes()[idx];
        if (color[idx] == 0 || !n.is_table() || !is_cache_role(n.table.role)) {
            continue;
        }
        const ir::Table& t = n.table;
        if (t.origin_tables.empty()) {
            d.error("structure.cache.cover", n.id,
                    "cache table '" + t.name + "' records no covered tables");
            continue;
        }
        if (t.default_action >= 0) {
            d.error("structure.cache.cover", n.id,
                    "cache table '" + t.name +
                        "' must fall back to its covered tables on a miss "
                        "(default_action must be -1)");
            continue;
        }
        NodeId hit = kNoNode;
        bool hit_uniform = true;
        for (std::size_t a = 0; a < n.next_by_action.size(); ++a) {
            if (a == 0) hit = n.next_by_action[a];
            else if (n.next_by_action[a] != hit) hit_uniform = false;
        }
        if (!hit_uniform) {
            d.error("structure.cache.cover", n.id,
                    "cache table '" + t.name + "' hit edges disagree");
            continue;
        }
        bool ok = true;
        NodeId cur = resolve_through_context(program, n.miss_next);
        for (const std::string& covered : t.origin_tables) {
            if (cur == kNoNode || !program.node(cur).is_table() ||
                program.node(cur).table.name != covered) {
                d.error("structure.cache.cover", n.id,
                        "cache table '" + t.name +
                            "' miss chain does not cover '" + covered + "'");
                ok = false;
                break;
            }
            std::optional<NodeId> next = uniform_successor(program.node(cur));
            if (!next.has_value()) {
                d.error("structure.cache.cover", cur,
                        "covered table '" + covered +
                            "' fans out inside the cached run");
                ok = false;
                break;
            }
            cur = resolve_through_context(program, *next);
        }
        if (ok && cur != resolve_through_context(program, hit)) {
            d.error("structure.cache.cover", n.id,
                    "cache table '" + t.name +
                        "' covered run does not rejoin the hit successor");
        }
    }

    // Core-partition legality (§3.2.4): once a program carries context
    // tables, every core-crossing edge must be a Migration -> Navigation
    // handoff — a bare crossing would execute a node on a core the packet
    // never migrated to.
    bool instrumented = false;
    for (std::size_t idx = 0; idx < program.node_count(); ++idx) {
        const Node& n = program.nodes()[idx];
        if (color[idx] != 0 && n.is_table() && is_context_role(n.table.role)) {
            instrumented = true;
            break;
        }
    }
    if (instrumented) {
        for (std::size_t idx = 0; idx < program.node_count(); ++idx) {
            const Node& n = program.nodes()[idx];
            if (color[idx] == 0) continue;
            for (NodeId s : n.successors()) {
                if (s == kNoNode) continue;
                const Node& sn = program.node(s);
                if (sn.core == n.core) continue;
                bool paired = n.is_table() &&
                              n.table.role == TableRole::Migration &&
                              sn.is_table() &&
                              sn.table.role == TableRole::Navigation;
                if (!paired) {
                    d.error("structure.core-crossing", n.id,
                            util::format(
                                "edge %d -> %d crosses %s -> %s cores without "
                                "a migration/navigation pair",
                                n.id, s, ir::to_string(n.core),
                                ir::to_string(sn.core)));
                }
            }
        }
    }
    return d;
}

DiagnosticList Verifier::check_entries(
    const ir::Table& table, const std::vector<ir::TableEntry>& entries) const {
    DiagnosticList d;
    std::vector<int> args_needed;
    args_needed.reserve(table.actions.size());
    for (const ir::Action& a : table.actions) {
        args_needed.push_back(action_args_needed(a));
    }
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const ir::TableEntry& e = entries[i];
        if (e.key.size() != table.keys.size()) {
            d.error("entry.key-arity", kNoNode,
                    util::format("entry %zu of '%s' has %zu key components, "
                                 "table declares %zu",
                                 i, table.name.c_str(), e.key.size(),
                                 table.keys.size()));
        } else if (!e.compatible_with(table)) {
            d.error("entry.key-kind", kNoNode,
                    util::format("entry %zu of '%s' uses match kinds "
                                 "incompatible with the table's keys",
                                 i, table.name.c_str()));
        }
        if (e.action_index < 0 ||
            static_cast<std::size_t>(e.action_index) >= table.actions.size()) {
            d.error("entry.action-id", kNoNode,
                    util::format("entry %zu of '%s' selects action %d of %zu",
                                 i, table.name.c_str(), e.action_index,
                                 table.actions.size()));
        } else if (static_cast<int>(e.action_data.size()) <
                   args_needed[static_cast<std::size_t>(e.action_index)]) {
            d.error("entry.action-data", kNoNode,
                    util::format("entry %zu of '%s' supplies %zu action-data "
                                 "words, action '%s' consumes %d",
                                 i, table.name.c_str(), e.action_data.size(),
                                 table.actions[static_cast<std::size_t>(
                                                   e.action_index)]
                                     .name.c_str(),
                                 args_needed[static_cast<std::size_t>(
                                     e.action_index)]));
        }
    }
    return d;
}

DiagnosticList Verifier::check_entry_remap(
    const ir::Program& original,
    const std::unordered_map<std::string, std::size_t>& original_counts,
    const ir::Program& deployed,
    const std::vector<ir::EntryLoad>& loads) const {
    DiagnosticList d;

    std::unordered_map<std::string, const ir::Table*> deployed_tables;
    for (const ir::Node& n : deployed.nodes()) {
        if (n.is_table()) deployed_tables.emplace(n.table.name, &n.table);
    }

    std::unordered_set<std::string> loaded;
    for (const ir::EntryLoad& load : loads) {
        auto it = deployed_tables.find(load.table);
        if (it == deployed_tables.end()) {
            d.error("entry.remap.unknown-table", kNoNode,
                    util::format("load addresses '%s', which the deployed "
                                 "program does not define",
                                 load.table.c_str()));
            continue;
        }
        const ir::Table& t = *it->second;
        if (t.role == TableRole::Cache) {
            d.error("entry.remap.role", kNoNode,
                    util::format("load addresses flow cache '%s'; caches "
                                 "learn entries from misses, they are never "
                                 "loaded by the control plane",
                                 load.table.c_str()));
            continue;
        }
        if (!loaded.insert(load.table).second) {
            d.error("entry.remap.duplicate-load", kNoNode,
                    util::format("'%s' is addressed by more than one load; "
                                 "the later one would clobber the earlier",
                                 load.table.c_str()));
            continue;
        }
        d.merge(check_entries(t, load.entries));
        if (t.role == TableRole::Original) {
            auto s = original_counts.find(t.name);
            const std::size_t expected =
                s == original_counts.end() ? 0 : s->second;
            if (load.entries.size() != expected) {
                d.error("entry.remap.count", kNoNode,
                        util::format("direct table '%s' load carries %zu "
                                     "entries, original store holds %zu",
                                     t.name.c_str(), load.entries.size(),
                                     expected));
            }
        }
    }

    // Coverage: merged tables always need their rebuilt cross product, and
    // a direct table with live original entries needs its load too.
    for (const auto& [name, t] : deployed_tables) {
        if (loaded.count(name) != 0) continue;
        if (t->role == TableRole::Merged || t->role == TableRole::MergedCache) {
            d.error("entry.remap.missing-load", kNoNode,
                    util::format("merged table '%s' receives no entry load; "
                                 "it would deploy empty and miss every packet",
                                 name.c_str()));
        } else if (t->role == TableRole::Original) {
            auto s = original_counts.find(name);
            if (s != original_counts.end() && s->second > 0) {
                d.error("entry.remap.missing-load", kNoNode,
                        util::format("direct table '%s' receives no entry "
                                     "load; the original store holds %zu "
                                     "entries for it",
                                     name.c_str(), s->second));
            }
        }
    }

    // No original table's entries may be silently discarded: each original
    // table with live entries must be implemented by a loaded direct table
    // of the same name or a loaded merged table whose origin set covers it.
    for (const ir::Node& n : original.nodes()) {
        if (!n.is_table()) continue;
        auto s = original_counts.find(n.table.name);
        if (s == original_counts.end() || s->second == 0) continue;
        bool implemented = loaded.count(n.table.name) != 0;
        if (!implemented) {
            for (const ir::EntryLoad& load : loads) {
                auto it = deployed_tables.find(load.table);
                if (it == deployed_tables.end()) continue;
                const auto& origins = it->second->origin_tables;
                if ((it->second->role == TableRole::Merged ||
                     it->second->role == TableRole::MergedCache) &&
                    std::find(origins.begin(), origins.end(), n.table.name) !=
                        origins.end()) {
                    implemented = true;
                    break;
                }
            }
        }
        if (!implemented) {
            d.error("entry.remap.dropped", kNoNode,
                    util::format("original table '%s' holds %zu entries but "
                                 "no load implements it in the new layout",
                                 n.table.name.c_str(), s->second));
        }
    }
    return d;
}

bool Verifier::canonical_path_sets(
    const Program& program, std::vector<std::vector<std::string>>& sets) const {
    sets.clear();
    std::vector<NodeId> topo;
    try {
        topo = program.topo_order();
    } catch (const std::exception&) {
        return false;  // cyclic or malformed: nothing to enumerate
    }
    using NameSet = std::vector<std::string>;  // sorted, unique
    std::map<NodeId, std::set<NameSet>> memo;
    const std::set<NameSet> base{{}};
    static const std::vector<std::string> kEmptyNames;

    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        NodeId id = *it;
        const Node& n = program.node(id);

        // Canonical contribution per edge class: original tables count as
        // themselves; cache/merged tables expand to their covered originals
        // (on the edges whose traversal executes the covered actions);
        // navigation/migration context tables and branches contribute
        // nothing.
        const std::vector<std::string>* hit_contrib = &kEmptyNames;
        const std::vector<std::string>* miss_contrib = &kEmptyNames;
        std::vector<std::string> own;
        if (n.is_table()) {
            switch (n.table.role) {
                case TableRole::Original:
                    own.push_back(n.table.name);
                    hit_contrib = miss_contrib = &own;
                    break;
                case TableRole::Cache:
                case TableRole::MergedCache:
                    // A hit replays the covered tables' actions; a miss falls
                    // through to the originals, which contribute themselves.
                    hit_contrib = &n.table.origin_tables;
                    break;
                case TableRole::Merged:
                    hit_contrib = miss_contrib = &n.table.origin_tables;
                    break;
                case TableRole::Navigation:
                case TableRole::Migration:
                    break;
            }
        }

        // Distinct (target, contribution) edges.
        std::set<std::pair<NodeId, bool>> edges;  // bool: uses hit contribution
        if (n.is_branch()) {
            edges.insert({n.true_next, true});
            edges.insert({n.false_next, true});
        } else {
            for (NodeId t : n.next_by_action) edges.insert({t, true});
            edges.insert({n.next_for_miss(), hit_contrib == miss_contrib});
        }

        std::set<NameSet> out;
        for (const auto& [target, uses_hit] : edges) {
            const std::vector<std::string>& contrib =
                n.is_branch() ? kEmptyNames
                              : (uses_hit ? *hit_contrib : *miss_contrib);
            const std::set<NameSet>& from =
                target == kNoNode ? base : memo[target];
            for (const NameSet& s : from) {
                NameSet combined = s;
                merge_names(combined, contrib);
                out.insert(std::move(combined));
                if (out.size() > options_.max_path_sets) return false;
            }
        }
        memo[id] = std::move(out);
    }
    const std::set<NameSet>& at_root = memo[program.root()];
    sets.assign(at_root.begin(), at_root.end());
    return true;
}

DiagnosticList Verifier::check_translation(
    const Program& original, const std::vector<Pipelet>& pipelets,
    const std::vector<opt::PipeletPlan>& plans, const Program& optimized) const {
    DiagnosticList d;

    auto is_identity = [](const opt::CandidateLayout& layout) {
        if (!layout.caches.empty() || !layout.merges.empty()) return false;
        for (std::size_t i = 0; i < layout.order.size(); ++i) {
            if (layout.order[i] != i) return false;
        }
        return true;
    };

    for (const opt::PipeletPlan& plan : plans) {
        const opt::CandidateLayout& layout = plan.layout;
        if (plan.pipelet_id < 0 ||
            static_cast<std::size_t>(plan.pipelet_id) >= pipelets.size()) {
            d.error("plan.pipelet-id", kNoNode,
                    util::format("plan names pipelet %d of %zu",
                                 plan.pipelet_id, pipelets.size()));
            continue;
        }
        const Pipelet& pipelet =
            pipelets[static_cast<std::size_t>(plan.pipelet_id)];
        if (is_identity(layout)) continue;
        if (pipelet.is_switch_case) {
            d.error("plan.switch-case", pipelet.entry(),
                    util::format("pipelet %d is a switch-case table and "
                                 "cannot be transformed",
                                 plan.pipelet_id));
            continue;
        }
        const std::size_t n = pipelet.nodes.size();

        std::vector<ir::Table> tables;
        tables.reserve(n);
        bool nodes_ok = true;
        for (NodeId id : pipelet.nodes) {
            if (!id_in_range(original, id) || !original.node(id).is_table()) {
                d.error("plan.pipelet-id", id,
                        util::format("pipelet %d references node %d which is "
                                     "not a table of the original program",
                                     plan.pipelet_id, id));
                nodes_ok = false;
                break;
            }
            tables.push_back(original.node(id).table);
        }
        if (!nodes_ok) continue;

        // The order must be a permutation of the pipelet positions.
        bool perm_ok = layout.order.size() == n;
        std::vector<bool> seen(n, false);
        for (std::size_t v : layout.order) {
            if (!perm_ok) break;
            if (v >= n || seen[v]) perm_ok = false;
            else seen[v] = true;
        }
        if (!perm_ok) {
            d.error("plan.order", pipelet.entry(),
                    util::format("plan for pipelet %d: order is not a "
                                 "permutation of %zu positions",
                                 plan.pipelet_id, n));
            continue;
        }

        // Reorder legality: every dependent pair keeps its original relative
        // order (Match/Action/Write, analysis/dependency.h).
        DependencyGraph deps(tables);
        for (std::size_t x = 0; x < n; ++x) {
            for (std::size_t y = x + 1; y < n; ++y) {
                std::size_t i = layout.order[x];
                std::size_t j = layout.order[y];
                if (i <= j || !deps.dependent(i, j)) continue;
                // Original order was j before i; the plan swaps them.
                DependencyKind kind = classify_dependency(tables[j], tables[i]);
                if (kind == DependencyKind::None) {
                    kind = classify_dependency(tables[i], tables[j]);
                }
                d.error("plan.reorder.dependency", pipelet.nodes[j],
                        util::format(
                            "plan for pipelet %d reorders '%s' after '%s' "
                            "despite a %s dependency",
                            plan.pipelet_id, tables[j].name.c_str(),
                            tables[i].name.c_str(), to_string(kind)));
            }
        }

        // Segment sanity: in range, pairwise disjoint, caches and merges
        // never share a table.
        std::vector<opt::Segment> segments;
        for (const opt::Segment& s : layout.caches) segments.push_back(s);
        for (const opt::MergeSpec& m : layout.merges) segments.push_back(m.seg);
        bool segments_ok = true;
        for (const opt::Segment& s : segments) {
            if (s.first > s.last || s.last >= n) {
                d.error("plan.segments", pipelet.entry(),
                        util::format("plan for pipelet %d: segment [%zu-%zu] "
                                     "out of range for %zu tables",
                                     plan.pipelet_id, s.first, s.last, n));
                segments_ok = false;
            }
        }
        for (std::size_t a = 0; segments_ok && a < segments.size(); ++a) {
            for (std::size_t b = a + 1; b < segments.size(); ++b) {
                if (segments[a].overlaps(segments[b])) {
                    d.error("plan.segments", pipelet.entry(),
                            util::format("plan for pipelet %d: segments "
                                         "[%zu-%zu] and [%zu-%zu] overlap",
                                         plan.pipelet_id, segments[a].first,
                                         segments[a].last, segments[b].first,
                                         segments[b].last));
                    segments_ok = false;
                }
            }
        }
        if (!segments_ok) continue;

        // Cache segments: the cache key must be readable at lookup time — no
        // covered table may write a later covered table's match key — and
        // only Original tables can be covered.
        for (const opt::Segment& s : layout.caches) {
            std::vector<const ir::Table*> covered;
            for (std::size_t q = s.first; q <= s.last; ++q) {
                covered.push_back(&tables[layout.order[q]]);
            }
            for (const ir::Table* t : covered) {
                if (t->role != TableRole::Original) {
                    d.error("plan.cache.role", pipelet.entry(),
                            "cache segment covers non-original table '" +
                                t->name + "'");
                }
            }
            for (std::size_t a = 0; a < covered.size(); ++a) {
                for (std::size_t b = a + 1; b < covered.size(); ++b) {
                    if (classify_dependency(*covered[a], *covered[b]) ==
                        DependencyKind::Match) {
                        d.error("plan.cache.dependency", pipelet.entry(),
                                util::format(
                                    "cache segment in pipelet %d: '%s' writes "
                                    "a match key of '%s'; the cache key is "
                                    "not readable at lookup time",
                                    plan.pipelet_id, covered[a]->name.c_str(),
                                    covered[b]->name.c_str()));
                    }
                }
            }
        }

        // Merge segments: merged tables must be pairwise independent; the
        // merge-as-cache flavor needs all-exact keys; a full merge needs
        // argument-free default actions (a wildcard row cannot supply
        // action data, §3.2.3).
        for (const opt::MergeSpec& m : layout.merges) {
            std::vector<const ir::Table*> sources;
            for (std::size_t q = m.seg.first; q <= m.seg.last; ++q) {
                sources.push_back(&tables[layout.order[q]]);
            }
            for (const ir::Table* t : sources) {
                if (t->role != TableRole::Original) {
                    d.error("plan.merge.role", pipelet.entry(),
                            "merge segment covers non-original table '" +
                                t->name + "'");
                }
            }
            for (std::size_t a = 0; a < sources.size(); ++a) {
                for (std::size_t b = a + 1; b < sources.size(); ++b) {
                    if (!independent(*sources[a], *sources[b])) {
                        DependencyKind kind =
                            classify_dependency(*sources[a], *sources[b]);
                        if (kind == DependencyKind::None) {
                            kind = classify_dependency(*sources[b], *sources[a]);
                        }
                        d.error("plan.merge.dependency", pipelet.entry(),
                                util::format(
                                    "merge segment in pipelet %d combines "
                                    "'%s' and '%s' despite a %s dependency",
                                    plan.pipelet_id, sources[a]->name.c_str(),
                                    sources[b]->name.c_str(), to_string(kind)));
                    }
                }
            }
            for (const ir::Table* t : sources) {
                if (m.as_cache) {
                    for (const ir::MatchKey& k : t->keys) {
                        if (k.kind != ir::MatchKind::Exact) {
                            d.error("plan.merge.exact", pipelet.entry(),
                                    "merge-as-cache covers '" + t->name +
                                        "' whose key '" + k.field +
                                        "' is not exact-match");
                        }
                    }
                } else if (t->default_action >= 0) {
                    const ir::Action& def = t->actions[static_cast<std::size_t>(
                        t->default_action)];
                    if (action_args_needed(def) > 0) {
                        d.error("plan.merge.default", pipelet.entry(),
                                "full merge covers '" + t->name +
                                    "' whose default action '" + def.name +
                                    "' consumes runtime arguments");
                    }
                }
            }
        }
    }

    // Layer 1 over the optimized result.
    d.merge(check_program(optimized));

    // Path preservation: the canonical set of root-to-sink table sets must
    // be identical, with cache/merge provenance expanded. Only meaningful
    // when both sides are structurally sound.
    DiagnosticList original_structure = check_program(original);
    if (!original_structure.ok()) {
        d.warning("trans.original", kNoNode,
                  "original program fails structural verification; path "
                  "preservation not checked");
        return d;
    }
    if (!d.ok()) return d;

    std::vector<std::vector<std::string>> before, after;
    if (!canonical_path_sets(original, before) ||
        !canonical_path_sets(optimized, after)) {
        d.warning("trans.paths.capped", kNoNode,
                  util::format("path enumeration exceeded %zu sets; "
                               "preservation check skipped",
                               options_.max_path_sets));
        return d;
    }
    if (before != after) {
        for (const auto& s : before) {
            if (!std::binary_search(after.begin(), after.end(), s)) {
                d.error("trans.paths", kNoNode,
                        "optimized program loses root-to-sink table set " +
                            name_set_to_string(s));
            }
        }
        for (const auto& s : after) {
            if (!std::binary_search(before.begin(), before.end(), s)) {
                d.error("trans.paths", kNoNode,
                        "optimized program gains root-to-sink table set " +
                            name_set_to_string(s));
            }
        }
        if (d.ok()) {
            d.error("trans.paths", kNoNode,
                    "root-to-sink table sets differ between original and "
                    "optimized programs");
        }
    }
    return d;
}

DiagnosticList verify_structure(const Program& program,
                                const VerifyOptions& options) {
    return Verifier(options).check_program(program);
}

DiagnosticList verify_translation(const Program& original,
                                  const std::vector<Pipelet>& pipelets,
                                  const std::vector<opt::PipeletPlan>& plans,
                                  const Program& optimized,
                                  const VerifyOptions& options) {
    return Verifier(options).check_translation(original, pipelets, plans,
                                               optimized);
}

void verify_structure_or_throw(const Program& program,
                               const std::string& context,
                               const VerifyOptions& options) {
    DiagnosticList d = verify_structure(program, options);
    if (!d.ok()) throw VerifyError(context, std::move(d));
}

void verify_translation_or_throw(const Program& original,
                                 const std::vector<Pipelet>& pipelets,
                                 const std::vector<opt::PipeletPlan>& plans,
                                 const Program& optimized,
                                 const std::string& context,
                                 const VerifyOptions& options) {
    DiagnosticList d =
        verify_translation(original, pipelets, plans, optimized, options);
    if (!d.ok()) throw VerifyError(context, std::move(d));
}

}  // namespace pipeleon::analysis
