// Synthesized programs with table dependencies, shared by the dependency,
// estimate and search tests. synth::ProgramSynthesizer's tables share key
// fields but never write one, so this rewrites a seeded share of their
// no-op primitives into field writes and copies: match, action and write
// dependencies between nearby tables. Some tables also get a default action
// that takes an argument, which rules them out of full merges.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "ir/program.h"
#include "synth/program_synth.h"
#include "util/rng.h"
#include "util/strings.h"

namespace pipeleon::test_support {

/// `pipelets` pipelets of 2..max_pipelet_len tables; ternary, LPM, exact
/// and dropping tables mixed.
inline ir::Program dependent_program(std::uint64_t seed, int pipelets,
                                     int max_pipelet_len) {
    synth::SynthConfig cfg;
    cfg.pipelets = pipelets;
    cfg.min_pipelet_len = 2;
    cfg.max_pipelet_len = max_pipelet_len;
    cfg.lpm_fraction = 0.2;
    cfg.ternary_fraction = 0.3;
    cfg.drop_table_fraction = 0.5;
    cfg.dependency_fraction = 0.3;
    ir::Program program = synth::ProgramSynthesizer(cfg, seed).generate("deps");

    util::Rng rng(seed * 7919 + 1);
    auto scratch = [&rng] {
        return util::format("m%d", static_cast<int>(rng.uniform_int(0, 3)));
    };
    for (ir::NodeId id = 0; static_cast<std::size_t>(id) < program.node_count();
         ++id) {
        ir::Node& node = program.node(id);
        if (!node.is_table()) continue;
        ir::Table& t = node.table;
        // Synthesized key fields are f0, f1, ... in table order.
        int key = std::stoi(t.keys.at(0).field.substr(1));
        for (ir::Action& a : t.actions) {
            for (ir::Primitive& prim : a.primitives) {
                if (prim.kind != ir::PrimitiveKind::NoOp || !rng.chance(0.3)) {
                    continue;
                }
                switch (rng.uniform_int(0, 2)) {
                    case 0: {  // a neighbor's key: match dependency
                        int target = std::max<int>(
                            0, key + static_cast<int>(rng.uniform_int(-2, 2)));
                        prim = ir::Primitive::set_const(
                            util::format("f%d", target), 1);
                        break;
                    }
                    case 1:  // action dependency
                        prim = ir::Primitive::copy_field(scratch(), scratch());
                        break;
                    default:  // write dependency
                        prim = ir::Primitive::set_const(scratch(), 1);
                        break;
                }
            }
        }
        if (t.default_action >= 0 && rng.chance(0.2)) {
            t.actions[static_cast<std::size_t>(t.default_action)]
                .primitives.push_back(ir::Primitive::set_from_arg(scratch(), 0));
        }
    }
    return program;
}

}  // namespace pipeleon::test_support
