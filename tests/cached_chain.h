// The cached chain the data-plane tests share: a chain of exact tables with
// a flow cache over its first two, built the way the figure benches build
// cached layouts (form_pipelets + apply_plans). The cache is the program
// root, so polls run the group-of-8 probe pipeline, and traffic exercises
// cache learning, replay, and replay counters.
#pragma once

#include <cstddef>
#include <string>

#include "analysis/pipelet.h"
#include "ir/builder.h"
#include "opt/transform.h"
#include "util/strings.h"

namespace pipeleon::test_support {

/// ir::chain_of_exact_tables(name, tables, 2, 1) behind a 4096-entry cache.
/// With `args` > 0, each table's first action instead copies `args` entry
/// arguments into metadata fields, so cached flows carry inline arguments.
inline ir::Program cached_chain(const std::string& name, int tables,
                                int args = 0) {
    ir::Program prog = ir::chain_of_exact_tables(name, tables, 2, 1);
    for (std::size_t id = 0; args > 0 && id < prog.node_count(); ++id) {
        ir::Action& a0 = prog.node(static_cast<ir::NodeId>(id)).table.actions[0];
        a0.primitives.clear();
        for (int arg = 0; arg < args; ++arg) {
            a0.primitives.push_back(ir::Primitive::set_from_arg(
                util::format("m%zu_%d", id, arg), arg));
        }
    }
    analysis::PipeletOptions popt;
    popt.max_length = tables + 2;
    auto pipelets = analysis::form_pipelets(prog, popt);
    opt::PipeletPlan plan;
    plan.pipelet_id = 0;
    for (std::size_t i = 0; i < pipelets[0].nodes.size(); ++i) {
        plan.layout.order.push_back(i);
    }
    plan.layout.caches = {opt::Segment{0, 2}};
    plan.layout.cache_config.capacity = 4096;
    plan.layout.cache_config.max_insert_per_sec = 1e9;
    return opt::apply_plans(prog, pipelets, {plan});
}

}  // namespace pipeleon::test_support
