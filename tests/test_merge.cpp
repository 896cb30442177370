// Tests for opt/merge: reproduces the Fig 6 example — merging two exact
// tables yields a ternary table with wildcard rows and priorities — plus
// merge-as-cache, action-argument remapping, and the blowup estimators.
#include <gtest/gtest.h>

#include "ir/builder.h"
#include "opt/merge.h"
#include "util/strings.h"

namespace pipeleon::opt {
namespace {

using ir::Action;
using ir::FieldMatch;
using ir::MatchKind;
using ir::Primitive;
using ir::Table;
using ir::TableEntry;
using ir::TableSpec;

// The two tables from Fig 6: A matches srcIP exactly with actions a1/a2
// (default a2); B matches dstIP exactly with actions b1/b2 (default b2).
Table fig6_a() {
    return TableSpec("A")
        .key("srcIP")
        .noop_action("a1")
        .noop_action("a2")
        .default_to("a2")
        .build();
}

Table fig6_b() {
    return TableSpec("B")
        .key("dstIP")
        .noop_action("b1")
        .noop_action("b2")
        .default_to("b2")
        .build();
}

TEST(Merge, Fig6TableShape) {
    Table a = fig6_a(), b = fig6_b();
    auto merged = build_merged_table({&a, &b}, /*as_cache=*/false);
    ASSERT_TRUE(merged.has_value());
    EXPECT_EQ(merged->role, ir::TableRole::Merged);
    ASSERT_EQ(merged->keys.size(), 2u);
    // "The naive merge of two exact tables will generate a ternary table."
    EXPECT_EQ(merged->keys[0].kind, MatchKind::Ternary);
    EXPECT_EQ(merged->keys[1].kind, MatchKind::Ternary);
    // Cross product of actions: a1b1, a1b2, a2b1, a2b2.
    EXPECT_EQ(merged->actions.size(), 4u);
    EXPECT_GE(merged->action_index("a1+b1"), 0);
    EXPECT_GE(merged->action_index("a1+b2"), 0);
    EXPECT_GE(merged->action_index("a2+b1"), 0);
    EXPECT_GE(merged->action_index("a2+b2"), 0);
    // Miss = both defaults.
    EXPECT_EQ(merged->default_action, merged->action_index("a2+b2"));
    EXPECT_EQ(merged->origin_tables, (std::vector<std::string>{"A", "B"}));
}

TEST(Merge, Fig6Entries) {
    Table a = fig6_a(), b = fig6_b();
    auto merged = build_merged_table({&a, &b}, false);
    ASSERT_TRUE(merged.has_value());

    // A: 10.0.0.1 => a1.  B: 1.1.0.0 => b1.
    TableEntry ea;
    ea.key = {FieldMatch::exact(0x0A000001)};
    ea.action_index = 0;
    TableEntry eb;
    eb.key = {FieldMatch::exact(0x01010000)};
    eb.action_index = 0;

    auto entries = build_merged_entries({&a, &b}, {{ea}, {eb}}, *merged, false);
    ASSERT_TRUE(entries.has_value());
    // Fig 6 shows 4 rows; the all-miss row is the default action, so 3
    // materialized entries: (hit,hit), (hit,miss), (miss,hit).
    ASSERT_EQ(entries->size(), 3u);

    auto find_row = [&](const std::string& action) -> const TableEntry* {
        int idx = merged->action_index(action);
        for (const TableEntry& e : *entries) {
            if (e.action_index == idx) return &e;
        }
        return nullptr;
    };
    const TableEntry* both = find_row("a1+b1");
    ASSERT_NE(both, nullptr);
    EXPECT_EQ(both->priority, 2);  // Fig 6: priority=2 for the double hit
    EXPECT_EQ(both->key[0].mask, 0xFFFFFFFFu);
    EXPECT_EQ(both->key[1].mask, 0xFFFFFFFFu);

    const TableEntry* a_only = find_row("a1+b2");
    ASSERT_NE(a_only, nullptr);
    EXPECT_EQ(a_only->priority, 1);
    EXPECT_TRUE(a_only->key[1].is_wildcard());  // dstIP = "*"

    const TableEntry* b_only = find_row("a2+b1");
    ASSERT_NE(b_only, nullptr);
    EXPECT_EQ(b_only->priority, 1);
    EXPECT_TRUE(b_only->key[0].is_wildcard());

    EXPECT_EQ(find_row("a2+b2"), nullptr);  // covered by the default action
}

TEST(Merge, AsCacheKeepsExactKeysAndAllHitRowsOnly) {
    Table a = fig6_a(), b = fig6_b();
    auto merged = build_merged_table({&a, &b}, /*as_cache=*/true);
    ASSERT_TRUE(merged.has_value());
    EXPECT_EQ(merged->role, ir::TableRole::MergedCache);
    EXPECT_EQ(merged->keys[0].kind, MatchKind::Exact);
    EXPECT_EQ(merged->keys[1].kind, MatchKind::Exact);
    EXPECT_EQ(merged->default_action, -1);  // miss falls back to originals

    TableEntry ea;
    ea.key = {FieldMatch::exact(1)};
    ea.action_index = 0;
    TableEntry ea2;
    ea2.key = {FieldMatch::exact(2)};
    ea2.action_index = 1;
    TableEntry eb;
    eb.key = {FieldMatch::exact(9)};
    eb.action_index = 0;

    auto entries =
        build_merged_entries({&a, &b}, {{ea, ea2}, {eb}}, *merged, true);
    ASSERT_TRUE(entries.has_value());
    EXPECT_EQ(entries->size(), 2u);  // 2 x 1 all-hit combos
    for (const TableEntry& e : *entries) {
        for (const FieldMatch& m : e.key) EXPECT_EQ(m.kind, MatchKind::Exact);
    }
}

TEST(Merge, ActionArgumentsAreRemapped) {
    Action set_port;
    set_port.name = "set_port";
    set_port.primitives.push_back(Primitive::forward_from_arg(0));
    Table a = TableSpec("A").key("x").action(set_port).build();

    Action set_meta;
    set_meta.name = "set_meta";
    set_meta.primitives.push_back(Primitive::set_from_arg("meta", 0));
    Table b = TableSpec("B").key("y").action(set_meta).build();

    auto merged = build_merged_table({&a, &b}, false);
    ASSERT_TRUE(merged.has_value());
    int idx = merged->action_index("set_port+set_meta");
    ASSERT_GE(idx, 0);
    const Action& m = merged->actions[static_cast<std::size_t>(idx)];
    ASSERT_EQ(m.primitives.size(), 2u);
    EXPECT_EQ(m.primitives[0].arg_index, 0);  // A's arg stays at 0
    EXPECT_EQ(m.primitives[1].arg_index, 1);  // B's arg shifted past A's

    // Entry data concatenates in component order.
    TableEntry ea;
    ea.key = {FieldMatch::exact(1)};
    ea.action_index = 0;
    ea.action_data = {7};
    TableEntry eb;
    eb.key = {FieldMatch::exact(2)};
    eb.action_index = 0;
    eb.action_data = {13};
    auto entries = build_merged_entries({&a, &b}, {{ea}, {eb}}, *merged, false);
    ASSERT_TRUE(entries.has_value());
    const TableEntry* both = nullptr;
    for (const TableEntry& e : *entries) {
        if (e.action_index == idx) both = &e;
    }
    ASSERT_NE(both, nullptr);
    EXPECT_EQ(both->action_data, (std::vector<std::uint64_t>{7, 13}));
}

TEST(Merge, LpmSourceBecomesTernary) {
    Table a = TableSpec("A").key("dst", MatchKind::Lpm).noop_action("a1").build();
    Table b = fig6_b();
    auto merged = build_merged_table({&a, &b}, false);
    ASSERT_TRUE(merged.has_value());
    EXPECT_EQ(merged->keys[0].kind, MatchKind::Ternary);

    TableEntry ea;
    ea.key = {FieldMatch::lpm(0x0A000000, 8)};
    ea.action_index = 0;
    TableEntry eb;
    eb.key = {FieldMatch::exact(5)};
    eb.action_index = 0;
    auto entries = build_merged_entries({&a, &b}, {{ea}, {eb}}, *merged, false);
    ASSERT_TRUE(entries.has_value());
    // The LPM /8 prefix becomes mask 0xFF000000.
    bool found = false;
    for (const TableEntry& e : *entries) {
        if (e.key[0].mask == 0xFF000000u) found = true;
    }
    EXPECT_TRUE(found);
}

TEST(Merge, MergeableRejectsBadInputs) {
    Table a = fig6_a(), b = fig6_b();
    EXPECT_TRUE(mergeable({&a, &b}, false));
    EXPECT_FALSE(mergeable({&a}, false));  // need at least two

    Table lpm = TableSpec("L").key("x", MatchKind::Lpm).noop_action("l1").build();
    EXPECT_TRUE(mergeable({&a, &lpm}, false));
    EXPECT_FALSE(mergeable({&a, &lpm}, true));  // as-cache needs exact keys

    Table cache = TableSpec("C").key("x").noop_action("h").build();
    cache.role = ir::TableRole::Cache;
    EXPECT_FALSE(mergeable({&a, &cache}, false));

    // Default actions with runtime args cannot back wildcard rows.
    Action dflt;
    dflt.name = "argy";
    dflt.primitives.push_back(Primitive::set_from_arg("m", 0));
    Table bad = TableSpec("D").key("y").action(dflt).default_to("argy").build();
    EXPECT_FALSE(mergeable({&a, &bad}, false));
    EXPECT_TRUE(mergeable({&a, &bad}, true));  // cache flavor: hits only
}

TEST(Merge, ActionCrossProductCap) {
    TableSpec sa("A"), sb("B");
    sa.key("x");
    sb.key("y");
    for (int i = 0; i < 20; ++i) {
        sa.noop_action(util::format("a%d", i));
        sb.noop_action(util::format("b%d", i));
    }
    Table a = sa.build(), b = sb.build();
    MergeLimits limits;
    limits.max_actions = 100;  // 20*20 = 400 > 100
    EXPECT_FALSE(build_merged_table({&a, &b}, false, "", limits).has_value());
}

TEST(Merge, EntryCrossProductCap) {
    Table a = fig6_a(), b = fig6_b();
    auto merged = build_merged_table({&a, &b}, false);
    ASSERT_TRUE(merged.has_value());
    std::vector<TableEntry> many_a, many_b;
    for (int i = 0; i < 100; ++i) {
        TableEntry e;
        e.key = {FieldMatch::exact(static_cast<std::uint64_t>(i))};
        e.action_index = 0;
        many_a.push_back(e);
        many_b.push_back(e);
    }
    MergeLimits limits;
    limits.max_entries = 1000;  // 101*101 > 1000
    EXPECT_FALSE(
        build_merged_entries({&a, &b}, {many_a, many_b}, *merged, false, limits)
            .has_value());
}

TEST(Merge, Estimators) {
    // N(T_AB) = N(A) * N(B).
    EXPECT_DOUBLE_EQ(estimated_merged_entries({10, 20}), 200.0);
    EXPECT_DOUBLE_EQ(estimated_merged_entries({}), 1.0);
    // I(T_AB) = I_A*N_B + I_B*N_A.
    EXPECT_DOUBLE_EQ(estimated_merged_update_rate({10, 20}, {2, 3}),
                     2 * 20 + 3 * 10);
}

TEST(Merge, ThreeWayMerge) {
    Table a = fig6_a(), b = fig6_b();
    Table c = TableSpec("C")
                  .key("port")
                  .noop_action("c1")
                  .default_to("c1")
                  .build();
    auto merged = build_merged_table({&a, &b, &c}, false);
    ASSERT_TRUE(merged.has_value());
    EXPECT_EQ(merged->keys.size(), 3u);
    EXPECT_EQ(merged->actions.size(), 4u);  // 2*2*1
    EXPECT_EQ(merged->default_action, merged->action_index("a2+b2+c1"));
}

TEST(Merge, ArgCount) {
    Action a;
    a.name = "x";
    EXPECT_EQ(action_arg_count(a), 0);
    a.primitives.push_back(Primitive::set_from_arg("f", 2));
    EXPECT_EQ(action_arg_count(a), 3);
}

}  // namespace
}  // namespace pipeleon::opt
