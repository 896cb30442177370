// Tests for opt/partition: heterogeneous core assignment, migration
// infrastructure, and the table-copy optimization (§3.2.4, Fig 7/17).
#include <gtest/gtest.h>

#include "ir/builder.h"
#include "opt/partition.h"
#include "sim/emulator.h"
#include "profile/profile.h"
#include "util/strings.h"

namespace pipeleon::opt {
namespace {

using ir::CoreKind;
using ir::NodeId;
using ir::Program;
using ir::ProgramBuilder;
using ir::TableSpec;

/// Interleaved chain: asic, cpu-only, asic, cpu-only (the Appendix A.2
/// program shape).
Program interleaved(int pairs) {
    ProgramBuilder b("inter");
    for (int i = 0; i < pairs; ++i) {
        b.append(TableSpec(util::format("hw%d", i))
                     .key(util::format("h%d", i))
                     .noop_action("a", 1)
                     .build());
        b.append(TableSpec(util::format("sw%d", i))
                     .key(util::format("s%d", i))
                     .noop_action("a", 1)
                     .cpu_only()
                     .build());
    }
    return b.build();
}

cost::CostModel model() {
    cost::CostParams p;
    p.l_mat = 10.0;
    p.l_act = 1.0;
    p.l_migration = 100.0;
    p.cpu_slowdown = 2.0;
    profile::InstrumentationConfig instr;
    instr.enabled = false;
    return cost::CostModel(p, instr);
}

TEST(Partition, BySupportAssignsCores) {
    Program p = partition_by_support(interleaved(2));
    EXPECT_EQ(p.node(p.find_table("hw0")).core, CoreKind::Asic);
    EXPECT_EQ(p.node(p.find_table("sw0")).core, CoreKind::Cpu);
    EXPECT_EQ(p.node(p.find_table("sw1")).core, CoreKind::Cpu);
}

TEST(Partition, BranchesInheritPredecessorCore) {
    ProgramBuilder b("br");
    NodeId t = b.add(TableSpec("t").key("x").noop_action("a").cpu_only().build());
    NodeId br = b.add_branch({"f", ir::CmpOp::Eq, 1});
    NodeId u = b.add(TableSpec("u").key("y").noop_action("a").build());
    b.connect(t, br);
    b.connect_branch(br, u, u);
    b.set_root(t);
    Program p = partition_by_support(b.build());
    EXPECT_EQ(p.node(br).core, CoreKind::Cpu);
}

TEST(Partition, ExpectedMigrationsCountsCrossings) {
    Program p = partition_by_support(interleaved(2));
    profile::RuntimeProfile prof;
    prof.reset_for(p, 1.0);
    // hw0->sw0, sw0->hw1, hw1->sw1: 3 crossings at probability 1.
    EXPECT_NEAR(expected_migrations(p, prof), 3.0, 1e-9);
}

TEST(Partition, InsertMigrationTablesAtBoundaries) {
    Program p = partition_by_support(interleaved(1));  // hw0 -> sw0: 1 crossing
    Program q = insert_migration_tables(p);
    int nav = 0, mig = 0;
    for (NodeId id : q.reachable()) {
        const ir::Node& n = q.node(id);
        if (!n.is_table()) continue;
        if (n.table.role == ir::TableRole::Navigation) {
            ++nav;
            EXPECT_EQ(n.core, CoreKind::Cpu);  // entry side of the CPU region
        }
        if (n.table.role == ir::TableRole::Migration) {
            ++mig;
            EXPECT_EQ(n.core, CoreKind::Asic);  // exit side of the ASIC region
        }
    }
    EXPECT_EQ(nav, 1);
    EXPECT_EQ(mig, 1);
    EXPECT_NO_THROW(q.validate());
    // The context tables match on next_tab_id.
    NodeId any_nav = q.find_table("navigate_0");
    ASSERT_NE(any_nav, ir::kNoNode);
    EXPECT_EQ(q.node(any_nav).table.keys[0].field, kNextTabIdField);
}

TEST(Partition, MigrationTablesPreserveMigrationCount) {
    Program p = partition_by_support(interleaved(2));
    profile::RuntimeProfile before;
    before.reset_for(p, 1.0);
    double crossings = expected_migrations(p, before);
    Program q = insert_migration_tables(p);
    profile::RuntimeProfile after;
    after.reset_for(q, 1.0);
    // Context tables sit on the boundary but the crossing count is the same.
    EXPECT_NEAR(expected_migrations(q, after), crossings, 1e-9);
}

TEST(Partition, DuplicateTableForCore) {
    Program p = interleaved(1);
    NodeId clone = duplicate_table_for_core(p, "hw0", CoreKind::Cpu);
    ASSERT_NE(clone, ir::kNoNode);
    EXPECT_EQ(p.node(clone).table.name, "hw0_cpu");
    EXPECT_EQ(p.node(clone).core, CoreKind::Cpu);
    EXPECT_EQ(duplicate_table_for_core(p, "nope", CoreKind::Cpu), ir::kNoNode);
}

TEST(Partition, OptimizeCopiesReducesCost) {
    // 4 interleaved pairs: naive partition migrates 7 times. Copying the
    // interior hw tables to CPU collapses the CPU region.
    Program p = partition_by_support(interleaved(4));
    profile::RuntimeProfile prof;
    prof.reset_for(p, 1.0);
    cost::CostModel m = model();
    double before = m.expected_latency(p, prof);
    Program q = optimize_copies(p, prof, m, 8);
    double after = m.expected_latency(q, prof);
    EXPECT_LT(after, before);
    EXPECT_LT(expected_migrations(q, prof), expected_migrations(p, prof));
}

TEST(Partition, OptimizeCopiesStopsWhenUnprofitable) {
    // Single pair: hw0 -> sw0 (1 migration at the boundary, none saveable:
    // moving hw0 to CPU saves the crossing but costs 2x on its table).
    // With migration cost 100 vs slowdown cost 11, copying IS profitable;
    // use a huge slowdown to make it unprofitable instead.
    cost::CostParams params;
    params.l_mat = 10.0;
    params.l_act = 1.0;
    params.l_migration = 1.0;  // cheap migration
    params.cpu_slowdown = 50.0;
    profile::InstrumentationConfig instr;
    instr.enabled = false;
    cost::CostModel m(params, instr);

    Program p = partition_by_support(interleaved(2));
    profile::RuntimeProfile prof;
    prof.reset_for(p, 1.0);
    Program q = optimize_copies(p, prof, m, 8);
    // No ASIC table should have moved.
    for (NodeId id : q.reachable()) {
        const ir::Node& n = q.node(id);
        if (n.is_table() && n.table.asic_supported) {
            EXPECT_EQ(n.core, CoreKind::Asic) << n.table.name;
        }
    }
}

TEST(Partition, MaxCopiesRespected) {
    Program p = partition_by_support(interleaved(4));
    profile::RuntimeProfile prof;
    prof.reset_for(p, 1.0);
    cost::CostModel m = model();
    Program q1 = optimize_copies(p, prof, m, 1);
    int moved = 0;
    for (NodeId id : q1.reachable()) {
        const ir::Node& n = q1.node(id);
        if (n.is_table() && n.table.asic_supported && n.core == CoreKind::Cpu) {
            ++moved;
        }
    }
    EXPECT_LE(moved, 1);
}

TEST(Partition, MigrationTablesExecuteOnEmulator) {
    // A partitioned program with navigation/migration tables must run to
    // completion and produce the same field effects as the unpartitioned
    // one; only the emulated cost differs.
    Program plain = interleaved(2);
    Program partitioned = insert_migration_tables(partition_by_support(plain));

    sim::NicModel nic_model;
    nic_model.costs.l_mat = 10.0;
    nic_model.costs.l_act = 2.0;
    nic_model.costs.l_migration = 50.0;
    nic_model.costs.cpu_slowdown = 2.0;
    sim::Emulator emu_plain(nic_model, plain, {});
    sim::Emulator emu_part(nic_model, partitioned, {});

    sim::Packet a, b;
    sim::ProcessResult ra = emu_plain.process(a);
    sim::ProcessResult rb = emu_part.process(b);
    EXPECT_EQ(ra.dropped, rb.dropped);
    // Same table count traversed, plus the inserted context tables.
    EXPECT_GT(rb.nodes_visited, ra.nodes_visited);
    EXPECT_EQ(rb.migrations, 3);  // hw0|sw0|hw1|sw1 -> 3 boundary crossings
    // The partitioned run pays migration + context-table costs.
    EXPECT_GT(rb.cycles, ra.cycles);
}

}  // namespace
}  // namespace pipeleon::opt
