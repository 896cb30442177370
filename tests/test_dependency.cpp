// Tests for analysis/dependency: the match/action/write dependency taxonomy
// and order enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "analysis/dependency.h"
#include "analysis/pipelet.h"
#include "dependent_programs.h"
#include "ir/builder.h"

namespace pipeleon::analysis {
namespace {

using ir::Action;
using ir::Primitive;
using ir::Table;
using ir::TableSpec;

Table reader(const std::string& name, const std::string& key_field) {
    return TableSpec(name).key(key_field).noop_action(name + "_a").build();
}

Table writer(const std::string& name, const std::string& key_field,
             const std::string& written) {
    Action a;
    a.name = name + "_w";
    a.primitives.push_back(Primitive::set_const(written, 1));
    return TableSpec(name).key(key_field).action(a).build();
}

Table field_reader(const std::string& name, const std::string& key_field,
                   const std::string& read) {
    Action a;
    a.name = name + "_r";
    a.primitives.push_back(Primitive::copy_field("scratch_" + name, read));
    return TableSpec(name).key(key_field).action(a).build();
}

TEST(Dependency, FieldSets) {
    Table t = writer("w", "k", "out");
    FieldSets fs = field_sets(t);
    EXPECT_TRUE(fs.keys.count("k"));
    EXPECT_TRUE(fs.reads.count("k"));
    EXPECT_TRUE(fs.writes.count("out"));
    EXPECT_FALSE(fs.writes.count("k"));
    EXPECT_FALSE(fs.keys.count("out"));
}

TEST(Dependency, MatchDependency) {
    Table a = writer("a", "k1", "x");
    Table b = reader("b", "x");  // matches on what a writes
    EXPECT_EQ(classify_dependency(a, b), DependencyKind::Match);
    EXPECT_FALSE(independent(a, b));
}

TEST(Dependency, ActionDependency) {
    Table a = writer("a", "k1", "x");
    Table b = field_reader("b", "k2", "x");  // action reads what a writes
    EXPECT_EQ(classify_dependency(a, b), DependencyKind::Action);
    EXPECT_FALSE(independent(a, b));
}

TEST(Dependency, WriteDependency) {
    Table a = writer("a", "k1", "x");
    Table b = writer("b", "k2", "x");
    EXPECT_EQ(classify_dependency(a, b), DependencyKind::Write);
    EXPECT_FALSE(independent(a, b));
}

TEST(Dependency, IndependentTables) {
    Table a = reader("a", "k1");
    Table b = reader("b", "k2");
    EXPECT_EQ(classify_dependency(a, b), DependencyKind::None);
    EXPECT_TRUE(independent(a, b));
}

TEST(Dependency, MatchOutranksAction) {
    // a writes x; b matches on x AND reads x in its action -> Match wins.
    Table a = writer("a", "k1", "x");
    Action act;
    act.name = "b_r";
    act.primitives.push_back(Primitive::copy_field("y", "x"));
    Table b = TableSpec("b").key("x").action(act).build();
    EXPECT_EQ(classify_dependency(a, b), DependencyKind::Match);
}

TEST(Dependency, DropActionsDoNotCreateDependencies) {
    // ACL tables that only drop commute with each other.
    Table a = TableSpec("acl1").key("src").noop_action("ok").drop_action().build();
    Table b = TableSpec("acl2").key("dst").noop_action("ok").drop_action().build();
    EXPECT_TRUE(independent(a, b));
}

TEST(DependencyGraph, IndependentChainAllowsAllOrders) {
    std::vector<Table> ts{reader("a", "k1"), reader("b", "k2"), reader("c", "k3")};
    DependencyGraph g(ts);
    EXPECT_FALSE(g.dependent(0, 1));
    auto orders = g.valid_orders(100);
    EXPECT_EQ(orders.size(), 6u);  // 3! permutations
    for (const auto& o : orders) EXPECT_TRUE(g.order_is_valid(o));
}

TEST(DependencyGraph, DependencyConstrainsOrders) {
    // b depends on a (a writes b's key); c independent.
    std::vector<Table> ts{writer("a", "k1", "x"), reader("b", "x"),
                          reader("c", "k3")};
    DependencyGraph g(ts);
    EXPECT_TRUE(g.dependent(0, 1));
    auto orders = g.valid_orders(100);
    // 3 of the 6 permutations keep a before b.
    EXPECT_EQ(orders.size(), 3u);
    EXPECT_FALSE(g.order_is_valid({1, 0, 2}));
    EXPECT_TRUE(g.order_is_valid({0, 2, 1}));
}

TEST(DependencyGraph, FullChainHasOneOrder) {
    std::vector<Table> ts{writer("a", "k", "x"), writer("b", "x", "y"),
                          reader("c", "y")};
    DependencyGraph g(ts);
    auto orders = g.valid_orders(100);
    ASSERT_EQ(orders.size(), 1u);
    EXPECT_EQ(orders[0], (std::vector<std::size_t>{0, 1, 2}));
}

TEST(DependencyGraph, OrderLimitRespected) {
    std::vector<Table> ts;
    for (int i = 0; i < 6; ++i) {
        ts.push_back(reader("t" + std::to_string(i), "k" + std::to_string(i)));
    }
    DependencyGraph g(ts);
    EXPECT_EQ(g.valid_orders(10).size(), 10u);
}

TEST(DependencyGraph, CanGroup) {
    // 0 writes x; 1 matches x and writes y; 2 reads y: 1 is forced between
    // 0 and 2, so {0, 2} cannot be contiguous.
    std::vector<Table> seq{writer("a", "q", "x"), writer("mid", "x", "y"),
                           reader("b", "y")};
    DependencyGraph g(seq);
    EXPECT_FALSE(g.can_group({0, 2}));
    EXPECT_TRUE(g.can_group({0, 1}));
    EXPECT_TRUE(g.can_group({1, 2}));

    std::vector<Table> free{reader("a", "k1"), reader("b", "k2"),
                            reader("c", "k3")};
    DependencyGraph g2(free);
    EXPECT_TRUE(g2.can_group({0, 2}));
}

TEST(DependencyGraph, ValidOrdersRespectDependenciesProperty) {
    std::vector<Table> ts{writer("a", "k0", "x"), reader("b", "x"),
                          writer("c", "k2", "y"), reader("d", "y"),
                          reader("e", "k4")};
    DependencyGraph g(ts);
    auto orders = g.valid_orders(1000);
    EXPECT_GT(orders.size(), 1u);
    for (const auto& o : orders) {
        EXPECT_TRUE(g.order_is_valid(o));
        auto pos = [&o](std::size_t p) {
            return std::find(o.begin(), o.end(), p) - o.begin();
        };
        EXPECT_LT(pos(0), pos(1));  // a before b
        EXPECT_LT(pos(2), pos(3));  // c before d
    }
}

TEST(DependencyGraph, KindMatrixMatchesPairwiseClassification) {
    std::map<DependencyKind, int> seen;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        ir::Program program = test_support::dependent_program(seed, 6, 6);
        for (const Pipelet& pl : form_pipelets(program)) {
            std::vector<Table> ts;
            for (ir::NodeId id : pl.nodes) ts.push_back(program.node(id).table);
            DependencyGraph g(ts);
            for (std::size_t i = 0; i < ts.size(); ++i) {
                EXPECT_EQ(g.kind(i, i), DependencyKind::None);
                EXPECT_FALSE(g.dependent(i, i));
                for (std::size_t j = 0; j < ts.size(); ++j) {
                    if (i == j) continue;
                    DependencyKind expected = classify_dependency(ts[i], ts[j]);
                    EXPECT_EQ(g.kind(i, j), expected) << "seed " << seed;
                    EXPECT_EQ(g.dependent(i, j), !independent(ts[i], ts[j]));
                    ++seen[expected];
                }
            }
        }
    }
    // The programs exercise every kind.
    for (DependencyKind k : {DependencyKind::None, DependencyKind::Match,
                             DependencyKind::Action, DependencyKind::Write}) {
        EXPECT_GT(seen[k], 0) << to_string(k);
    }
}

}  // namespace
}  // namespace pipeleon::analysis
