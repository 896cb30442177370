// Tests for runtime/api_mapper and runtime/controller: control-plane API
// mapping onto optimized layouts (§2.3) and the profile->optimize->deploy
// loop (Fig 3).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "analysis/pipelet.h"
#include "ir/builder.h"
#include "opt/merge.h"
#include "opt/transform.h"
#include "runtime/controller.h"
#include "trafficgen/workload.h"
#include "util/rng.h"
#include "util/strings.h"

namespace pipeleon::runtime {
namespace {

using ir::FieldMatch;
using ir::kNoNode;
using ir::MatchKind;
using ir::NodeId;
using ir::Program;
using ir::ProgramBuilder;
using ir::TableEntry;
using ir::TableSpec;

sim::NicModel nic() {
    sim::NicModel m;
    m.costs.l_mat = 10.0;
    m.costs.l_act = 2.0;
    m.costs.l_branch = 1.0;
    m.costs.l_counter = 0.0;
    m.cores = 1;
    m.cycles_per_second = 1e9;
    return m;
}

Program two_tables() {
    ProgramBuilder b("orig");
    b.append(TableSpec("A").key("src").noop_action("a1").noop_action("a2").build());
    b.append(TableSpec("B").key("dst").noop_action("b1").noop_action("b2").build());
    return b.build();
}

TableEntry exact_entry(std::uint64_t key, int action) {
    TableEntry e;
    e.key = {FieldMatch::exact(key)};
    e.action_index = action;
    return e;
}

TEST(ApiMapper, DirectTablePropagation) {
    Program p = two_tables();
    sim::Emulator emu(nic(), p, {});
    ApiMapper api(p);

    EXPECT_TRUE(api.insert(emu, "A", exact_entry(1, 0)));
    EXPECT_EQ(emu.entry_count("A"), 1u);
    EXPECT_TRUE(api.modify(emu, "A", exact_entry(1, 1)));
    EXPECT_EQ(emu.entries("A")->at(0).action_index, 1);
    EXPECT_TRUE(api.erase(emu, "A", {FieldMatch::exact(1)}));
    EXPECT_EQ(emu.entry_count("A"), 0u);

    EXPECT_FALSE(api.insert(emu, "nope", exact_entry(1, 0)));
    EXPECT_FALSE(api.erase(emu, "A", {FieldMatch::exact(9)}));
    EXPECT_FALSE(api.modify(emu, "A", exact_entry(9, 0)));
}

TEST(ApiMapper, SnapshotsTrackWindows) {
    Program p = two_tables();
    sim::Emulator emu(nic(), p, {});
    ApiMapper api(p);
    api.insert(emu, "A", exact_entry(1, 0));
    api.insert(emu, "A", exact_entry(2, 0));
    auto snaps = api.snapshots();
    EXPECT_EQ(snaps.at("A").entry_count, 2u);
    EXPECT_EQ(snaps.at("A").entry_updates, 2u);
    api.begin_window();
    EXPECT_EQ(api.snapshots().at("A").entry_updates, 0u);
    EXPECT_EQ(api.snapshots().at("A").entry_count, 2u);
}

TEST(ApiMapper, MergedTableRebuiltOnInsert) {
    Program original = two_tables();
    auto pipelets = analysis::form_pipelets(original);
    opt::PipeletPlan plan;
    plan.pipelet_id = 0;
    plan.layout.order = {0, 1};
    plan.layout.merges = {opt::MergeSpec{opt::Segment{0, 1}, false}};
    Program optimized = opt::apply_plans(original, pipelets, {plan});

    sim::Emulator emu(nic(), optimized, {});
    ApiMapper api(original);
    // Insert through the ORIGINAL names even though only the merged table
    // is deployed.
    EXPECT_TRUE(api.insert(emu, "A", exact_entry(1, 0)));
    EXPECT_TRUE(api.insert(emu, "B", exact_entry(2, 0)));
    // Merged entries: (A hit, B hit), (A hit, miss), (miss, B hit) = 3.
    EXPECT_EQ(emu.entry_count("merge_A_B"), 3u);

    // A second A entry: (2 x 1) + 2 + 1 = 5 rows.
    EXPECT_TRUE(api.insert(emu, "A", exact_entry(7, 1)));
    EXPECT_EQ(emu.entry_count("merge_A_B"), 5u);
}

TEST(ApiMapper, CacheInvalidatedOnCoveredUpdate) {
    Program original = two_tables();
    auto pipelets = analysis::form_pipelets(original);
    opt::PipeletPlan plan;
    plan.pipelet_id = 0;
    plan.layout.order = {0, 1};
    plan.layout.caches = {opt::Segment{0, 1}};
    Program optimized = opt::apply_plans(original, pipelets, {plan});

    sim::Emulator emu(nic(), optimized, {});
    ApiMapper api(original);
    api.insert(emu, "A", exact_entry(1, 0));

    // Warm the cache.
    sim::Packet pkt;
    pkt.set(emu.fields().intern("src"), 1);
    pkt.set(emu.fields().intern("dst"), 2);
    emu.process(pkt);
    EXPECT_EQ(emu.cache_size("cache_A_B"), 1u);

    // Any covered-table update invalidates the whole cache (§3.2.2).
    api.insert(emu, "A", exact_entry(5, 1));
    EXPECT_EQ(emu.cache_size("cache_A_B"), 0u);
}

TEST(ApiMapper, DeployEntriesAfterReconfigure) {
    Program original = two_tables();
    sim::Emulator emu(nic(), original, {});
    ApiMapper api(original);
    api.insert(emu, "A", exact_entry(1, 0));
    api.insert(emu, "B", exact_entry(2, 1));

    auto pipelets = analysis::form_pipelets(original);
    opt::PipeletPlan plan;
    plan.pipelet_id = 0;
    plan.layout.order = {1, 0};  // reorder B before A
    Program optimized = opt::apply_plans(original, pipelets, {plan});
    emu.reconfigure(optimized);
    api.deploy_entries(emu);
    EXPECT_EQ(emu.entry_count("A"), 1u);
    EXPECT_EQ(emu.entry_count("B"), 1u);
}

/// The two-table original under a merge (merged=true) or a covering cache.
Program optimized_two_tables(bool merged) {
    Program original = two_tables();
    auto pipelets = analysis::form_pipelets(original);
    opt::PipeletPlan plan;
    plan.pipelet_id = 0;
    plan.layout.order = {0, 1};
    if (merged) {
        plan.layout.merges = {opt::MergeSpec{opt::Segment{0, 1}, false}};
    } else {
        plan.layout.caches = {opt::Segment{0, 1}};
    }
    return opt::apply_plans(original, pipelets, {plan});
}

/// Each ApiMapper call reaches the emulator as exactly one control op
/// (entry change, merged rebuilds and cache invalidation together), so no
/// batch can run between its parts; a refused call submits nothing.
TEST(ApiMapper, OneControlOpPerCall) {
    for (bool merged : {true, false}) {
        sim::Emulator emu(nic(), optimized_two_tables(merged), {});
        ApiMapper api(two_tables());
        auto submitted = [&emu] { return emu.control_stats().ops_submitted; };
        std::uint64_t before = submitted();
        ASSERT_TRUE(api.insert(emu, "A", exact_entry(1, 0)));
        EXPECT_EQ(submitted(), before + 1);
        before = submitted();
        ASSERT_TRUE(api.modify(emu, "A", exact_entry(1, 1)));
        EXPECT_EQ(submitted(), before + 1);
        before = submitted();
        ASSERT_TRUE(api.erase(emu, "A", {FieldMatch::exact(1)}));
        EXPECT_EQ(submitted(), before + 1);
        before = submitted();
        EXPECT_FALSE(api.erase(emu, "A", {FieldMatch::exact(1)}));
        EXPECT_EQ(submitted(), before);
    }
}

/// Orders entries by content, for comparing entry sets.
bool entry_less(const TableEntry& a, const TableEntry& b) {
    auto flat = [](const TableEntry& e) {
        std::vector<std::uint64_t> v;
        for (const FieldMatch& m : e.key) {
            v.insert(v.end(), {static_cast<std::uint64_t>(m.kind), m.value, m.mask,
                               static_cast<std::uint64_t>(m.prefix_len)});
        }
        v.push_back(static_cast<std::uint64_t>(e.action_index));
        v.push_back(static_cast<std::uint64_t>(e.priority));
        v.insert(v.end(), e.action_data.begin(), e.action_data.end());
        return v;
    };
    return flat(a) < flat(b);
}

std::vector<TableEntry> sorted(std::vector<TableEntry> v) {
    std::sort(v.begin(), v.end(), entry_less);
    return v;
}

/// Random inserts (duplicate keys included), erases and modifies through
/// the mapper keep every deployed table equal to an insertion-ordered model
/// of the store: the direct table holds the model's entries — including
/// those past its declared size, accepted as always — and the merged table
/// exactly the cross product of the model's lists. Packets then match as
/// on an emulator freshly loaded from the store, so tie-breaks survived the
/// in-place updates.
TEST(ApiMapper, DeployedTablesAgreeWithStore) {
    ProgramBuilder b("orig3");
    b.append(TableSpec("A").key("src").noop_action("a1").noop_action("a2").build());
    b.append(TableSpec("B").key("dst").noop_action("b1").noop_action("b2").build());
    b.append(
        TableSpec("C").key("port").noop_action("c1").noop_action("c2").size(4).build());
    const Program original = b.build();
    auto pipelets = analysis::form_pipelets(original);
    ASSERT_EQ(pipelets.size(), 1u);
    opt::PipeletPlan plan;
    plan.pipelet_id = 0;
    plan.layout.order = {0, 1, 2};
    plan.layout.merges = {opt::MergeSpec{opt::Segment{0, 1}, false}};
    const Program optimized = opt::apply_plans(original, pipelets, {plan});
    const NodeId merged_id = optimized.find_table("merge_A_B");
    ASSERT_NE(merged_id, kNoNode);
    ASSERT_NE(optimized.find_table("C"), kNoNode);
    const std::vector<const ir::Table*> sources = {
        &original.node(original.find_table("A")).table,
        &original.node(original.find_table("B")).table};

    sim::Emulator emu(nic(), optimized, {});
    ApiMapper api(original);
    std::map<std::string, std::vector<TableEntry>> model;  // insertion order
    for (std::uint64_t k = 0; k < 6; ++k) {
        const TableEntry e = exact_entry(k % 3, static_cast<int>(k % 2));
        ASSERT_TRUE(api.insert(emu, "C", e));
        model["C"].push_back(e);
    }
    EXPECT_EQ(emu.entry_count("C"), 6u);  // past the declared size of 4

    util::Rng rng(21);
    const char* const names[] = {"A", "B", "C"};
    for (int op = 0; op < 300; ++op) {
        const std::string table = names[rng.next_below(3)];
        const TableEntry e =
            exact_entry(rng.next_below(4), static_cast<int>(rng.next_below(2)));
        std::vector<TableEntry>& live = model[table];
        auto oldest = std::find_if(live.begin(), live.end(),
                                   [&e](const TableEntry& x) { return x.key == e.key; });
        const std::uint64_t dice = rng.next_below(10);
        if (dice < 5) {
            ASSERT_TRUE(api.insert(emu, table, e));
            live.push_back(e);
        } else if (dice < 8) {
            ASSERT_EQ(api.erase(emu, table, e.key), oldest != live.end());
            if (oldest != live.end()) live.erase(oldest);
        } else {
            ASSERT_EQ(api.modify(emu, table, e), oldest != live.end());
            if (oldest != live.end()) *oldest = e;
        }
        ASSERT_EQ(sorted(*emu.entries("C")), sorted(model["C"])) << "op " << op;
        const auto cross = opt::build_merged_entries(
            sources, {model["A"], model["B"]}, optimized.node(merged_id).table, false);
        ASSERT_TRUE(cross.has_value());
        ASSERT_EQ(*emu.entries("merge_A_B"), *cross) << "op " << op;
    }

    sim::Emulator fresh(nic(), optimized, {});
    api.deploy_entries(fresh);
    const sim::FieldId src = emu.fields().intern("src");
    const sim::FieldId dst = emu.fields().intern("dst");
    const sim::FieldId port = emu.fields().intern("port");
    for (int i = 0; i < 200; ++i) {
        sim::Packet p;
        p.set(src, rng.next_below(5));
        p.set(dst, rng.next_below(5));
        p.set(port, rng.next_below(5));
        sim::Packet q = p;
        const sim::ProcessResult a = emu.process(p);
        const sim::ProcessResult c = fresh.process(q);
        ASSERT_EQ(a.cycles, c.cycles);
        ASSERT_EQ(a.nodes_visited, c.nodes_visited);
    }
    EXPECT_EQ(emu.read_counters().action_hits, fresh.read_counters().action_hits);
    EXPECT_EQ(emu.read_counters().misses, fresh.read_counters().misses);
}

// ---------------------------------------------------------------- controller

/// ACL scenario: 4 droppable exact tables; traffic drops mostly at the LAST
/// table. The controller should reorder it to the front.
struct AclScenario {
    Program program;

    static AclScenario make() {
        ProgramBuilder b("acl");
        for (int i = 0; i < 4; ++i) {
            TableSpec spec(util::format("acl%d", i));
            spec.key(util::format("f%d", i));
            spec.noop_action(util::format("acl%d_ok", i), 1);
            spec.drop_action(util::format("acl%d_deny", i));
            spec.default_to(util::format("acl%d_ok", i));
            b.append(spec.build());
        }
        return {b.build()};
    }
};

ControllerConfig controller_config() {
    ControllerConfig cfg;
    cfg.optimizer.top_k_fraction = 1.0;
    cfg.optimizer.search.allow_cache = false;
    cfg.optimizer.search.allow_merge = false;
    cfg.detector.threshold = 0.05;
    cfg.min_relative_gain = 0.01;
    return cfg;
}

cost::CostModel model() {
    cost::CostParams p;
    p.l_mat = 10.0;
    p.l_act = 2.0;
    p.l_branch = 1.0;
    profile::InstrumentationConfig instr;  // enabled, full sampling
    return cost::CostModel(p, instr);
}

TEST(Controller, ReordersAfterObservingDrops) {
    AclScenario sc = AclScenario::make();
    sim::Emulator emu(nic(), sc.program, {});
    Controller ctl(emu, sc.program, model(), controller_config());

    // Deny 90% of flows at acl3 (the last table).
    sim::FieldId f3 = emu.fields().intern("f3");
    for (std::uint64_t flow = 0; flow < 90; ++flow) {
        TableEntry deny;
        deny.key = {FieldMatch::exact(flow)};
        deny.action_index = 1;  // the deny action
        ASSERT_TRUE(ctl.api().insert(emu, "acl3", deny));
    }
    // Traffic: f3 uniform over 100 flows -> 90% dropped at acl3.
    for (std::uint64_t i = 0; i < 1000; ++i) {
        sim::Packet pkt;
        pkt.set(f3, i % 100);
        emu.process(pkt);
    }
    emu.advance_time(5.0);

    TickResult r = ctl.tick();
    EXPECT_TRUE(r.searched);
    ASSERT_TRUE(r.deployed);
    // acl3 is now first.
    EXPECT_EQ(emu.program().node(emu.program().root()).table.name, "acl3");

    // The dropped traffic now terminates at the first table.
    sim::Packet denied;
    denied.set(f3, 5);
    sim::ProcessResult pr = emu.process(denied);
    EXPECT_TRUE(pr.dropped);
    EXPECT_EQ(pr.nodes_visited, 1);
}

TEST(Controller, NoRedeployWithoutProfileChange) {
    AclScenario sc = AclScenario::make();
    sim::Emulator emu(nic(), sc.program, {});
    Controller ctl(emu, sc.program, model(), controller_config());

    sim::FieldId f0 = emu.fields().intern("f0");
    auto run_traffic = [&] {
        for (std::uint64_t i = 0; i < 500; ++i) {
            sim::Packet pkt;
            pkt.set(f0, i % 50);
            emu.process(pkt);
        }
        emu.advance_time(5.0);
    };

    run_traffic();
    ctl.tick();
    run_traffic();
    TickResult r2 = ctl.tick();
    // Identical traffic again: no change detected, no search.
    EXPECT_FALSE(r2.searched);
    EXPECT_FALSE(r2.deployed);
}

TEST(Controller, AdaptsWhenDropPatternMoves) {
    AclScenario sc = AclScenario::make();
    sim::Emulator emu(nic(), sc.program, {});
    ControllerConfig cfg = controller_config();
    Controller ctl(emu, sc.program, model(), cfg);

    sim::FieldId f2 = emu.fields().intern("f2");
    sim::FieldId f1 = emu.fields().intern("f1");
    for (std::uint64_t flow = 0; flow < 80; ++flow) {
        TableEntry deny;
        deny.key = {FieldMatch::exact(flow)};
        deny.action_index = 1;
        ASSERT_TRUE(ctl.api().insert(emu, "acl2", deny));
        TableEntry deny1 = deny;
        ASSERT_TRUE(ctl.api().insert(emu, "acl1", deny1));
    }

    // Phase 1: traffic matches acl2's deny rules.
    for (std::uint64_t i = 0; i < 1000; ++i) {
        sim::Packet pkt;
        pkt.set(f2, i % 100);
        pkt.set(f1, 1000 + i % 100);  // misses acl1 rules
        emu.process(pkt);
    }
    emu.advance_time(5.0);
    TickResult r1 = ctl.tick();
    ASSERT_TRUE(r1.deployed);
    EXPECT_EQ(emu.program().node(emu.program().root()).table.name, "acl2");

    // Phase 2: the drop pattern moves to acl1.
    for (std::uint64_t i = 0; i < 1000; ++i) {
        sim::Packet pkt;
        pkt.set(f1, i % 100);
        pkt.set(f2, 1000 + i % 100);
        emu.process(pkt);
    }
    emu.advance_time(5.0);
    TickResult r2 = ctl.tick();
    ASSERT_TRUE(r2.deployed);
    EXPECT_EQ(emu.program().node(emu.program().root()).table.name, "acl1");
}

TEST(Controller, EntriesSurviveDeployment) {
    AclScenario sc = AclScenario::make();
    sim::Emulator emu(nic(), sc.program, {});
    Controller ctl(emu, sc.program, model(), controller_config());

    TableEntry deny;
    deny.key = {FieldMatch::exact(7)};
    deny.action_index = 1;
    ctl.api().insert(emu, "acl3", deny);
    for (std::uint64_t i = 0; i < 500; ++i) {
        sim::Packet pkt;
        pkt.set(emu.fields().intern("f3"), 7);  // always denied
        emu.process(pkt);
    }
    emu.advance_time(5.0);
    TickResult r = ctl.tick();
    ASSERT_TRUE(r.deployed);
    EXPECT_EQ(emu.entry_count("acl3"), 1u);  // redeployed by the API mapper
}

TEST(Controller, IncrementalDeploymentReportsWarmCaches) {
    // With incremental_deployment on, a second deployment that keeps an
    // existing cache's definition reports it as kept warm.
    // Two pipelets separated by a branch: a cacheable ternary block and a
    // reorderable ACL tail. Changing the tail must not disturb the block's
    // cache.
    ProgramBuilder b("inc");
    NodeId tt0 = b.add(TableSpec("tt0").key("kf0", MatchKind::Ternary)
                           .noop_action("a0", 1).build());
    NodeId tt1 = b.add(TableSpec("tt1").key("kf1", MatchKind::Ternary)
                           .noop_action("a1", 1).build());
    NodeId tt2 = b.add(TableSpec("tt2").key("kf2", MatchKind::Ternary)
                           .noop_action("a2", 1).build());
    b.connect(tt0, tt1);
    b.connect(tt1, tt2);
    NodeId br = b.add_branch({"which", ir::CmpOp::Eq, 1});
    b.connect(tt2, br);
    NodeId tail0 = b.add(TableSpec("tail0")
                             .key("tf0")
                             .noop_action("tail0_ok", 1)
                             .drop_action("tail0_deny")
                             .default_to("tail0_ok")
                             .build());
    NodeId tail1 = b.add(TableSpec("tail1")
                             .key("tf1")
                             .noop_action("tail1_ok", 1)
                             .drop_action("tail1_deny")
                             .default_to("tail1_ok")
                             .build());
    b.connect_branch(br, tail0, tail0);
    b.connect(tail0, tail1);
    b.set_root(tt0);
    Program p = b.build();

    sim::NicModel m = nic();
    m.live_reconfig = false;
    m.reload_downtime_s = 8.0;
    sim::Emulator emu(m, p, {});
    ControllerConfig cfg;
    cfg.optimizer.top_k_fraction = 1.0;
    cfg.incremental_deployment = true;
    cfg.detector.threshold = 0.02;
    cost::CostParams params;
    params.l_mat = 10.0;
    params.l_act = 2.0;
    params.default_ternary_m = 5;
    Controller ctl(emu, p, cost::CostModel(params, {}), cfg);
    for (int i = 0; i < 3; ++i) {
        for (int mm = 0; mm < 5; ++mm) {
            ir::TableEntry e;
            e.key = {ir::FieldMatch::ternary(0, 0xFULL << (4 + mm))};
            e.action_index = 0;
            e.priority = mm;
            ASSERT_TRUE(ctl.api().insert(emu, util::format("tt%d", i), e));
        }
    }

    auto traffic = [&]() {
        for (int i = 0; i < 2000; ++i) {
            sim::Packet pkt;
            pkt.set(emu.fields().intern("kf0"), 0);
            pkt.set(emu.fields().intern("tf1"), i % 100);
            emu.process(pkt);
            emu.advance_time(5.0 / 2000);
        }
    };

    traffic();
    TickResult first = ctl.tick();
    ASSERT_TRUE(first.deployed);  // caches the ternary block
    // The first deployment changes most tables: partial (or full) downtime.
    EXPECT_GT(first.downtime_s, 0.0);
    EXPECT_LE(first.downtime_s, 8.0 + 1e-9);

    // Trigger a second, small change: tail1 churns continuously (inserts
    // interleaved with traffic keep invalidating any cache covering it),
    // so the controller re-plans the tail pipelet while the cached ternary
    // block is untouched.
    std::uint64_t churn_key = 1000;
    auto churny_traffic = [&]() {
        for (int i = 0; i < 2000; ++i) {
            if (i % 5 == 0) {
                ir::TableEntry deny;
                deny.key = {ir::FieldMatch::exact(churn_key++)};
                deny.action_index = 1;
                ctl.api().insert(emu, "tail1", deny);
            }
            sim::Packet pkt;
            pkt.set(emu.fields().intern("kf0"), 0);
            pkt.set(emu.fields().intern("tf1"), i % 100);
            emu.process(pkt);
            emu.advance_time(5.0 / 2000);
        }
    };
    churny_traffic();
    TickResult second = ctl.tick();
    if (!second.deployed) {
        churny_traffic();
        second = ctl.tick();
    }
    ASSERT_TRUE(second.deployed);
    // The unchanged ternary-block cache survives the redeployment warm, and
    // the reflash only pays for the changed tail tables.
    EXPECT_GE(second.caches_kept_warm, 1u);
    EXPECT_LT(second.downtime_s, 8.0);
}

TEST(Controller, RemovesCacheUnderInsertionStorm) {
    // The Fig 11a mechanism: a deployed flow cache collapses when covered
    // tables churn; the controller must stop covering the churny table.
    ProgramBuilder b("storm");
    for (int i = 0; i < 3; ++i) {
        b.append(TableSpec(util::format("tern%d", i))
                     .key(util::format("tf%d", i), MatchKind::Ternary)
                     .noop_action(util::format("t%d_a", i), 1)
                     .build());
    }
    b.append(TableSpec("churny").key("vip").noop_action("pick", 1).size(100000).build());
    Program p = b.build();

    sim::Emulator emu(nic(), p, {});
    ControllerConfig cfg;
    cfg.optimizer.top_k_fraction = 1.0;
    cfg.optimizer.search.allow_merge = false;
    cfg.optimizer.search.allow_reorder = false;
    cost::CostParams params;
    params.l_mat = 10.0;
    params.l_act = 2.0;
    params.default_ternary_m = 5;
    params.cache_invalidation_penalty = 0.05;
    Controller ctl(emu, p, cost::CostModel(params, {}), cfg);

    // Ternary rules so caching looks attractive.
    for (int i = 0; i < 3; ++i) {
        for (int m = 0; m < 5; ++m) {
            ir::TableEntry e;
            e.key = {ir::FieldMatch::ternary(0, 0xFULL << (4 + m))};
            e.action_index = 0;
            e.priority = m;
            ASSERT_TRUE(ctl.api().insert(emu, util::format("tern%d", i), e));
        }
    }

    auto run_traffic = [&](int churn_inserts) {
        std::uint64_t vip = 50000;
        for (int i = 0; i < 2000; ++i) {
            if (churn_inserts > 0 && i % (2000 / churn_inserts) == 0) {
                ctl.api().insert(emu, "churny", exact_entry(vip++, 0));
            }
            sim::Packet pkt;
            pkt.set(emu.fields().intern("tf0"), 0);
            pkt.set(emu.fields().intern("vip"), i % 64);
            emu.process(pkt);
            emu.advance_time(5.0 / 2000);
        }
    };

    auto covers_churny = [&]() {
        for (const ir::Node& n : emu.program().nodes()) {
            if (n.is_table() && n.table.role == ir::TableRole::Cache) {
                for (const std::string& o : n.table.origin_tables) {
                    if (o == "churny") return true;
                }
            }
        }
        return false;
    };

    // Quiet phase: optimizer should cache broadly (possibly incl. churny).
    run_traffic(0);
    ctl.tick();
    bool cached_initially = false;
    for (const ir::Node& n : emu.program().nodes()) {
        if (n.is_table() && n.table.role == ir::TableRole::Cache) {
            cached_initially = true;
        }
    }
    EXPECT_TRUE(cached_initially);

    // Storm phase: several windows of heavy churn on "churny".
    for (int w = 0; w < 3; ++w) {
        run_traffic(400);
        ctl.tick();
    }
    // The churny table must no longer be covered by any cache...
    EXPECT_FALSE(covers_churny());
    // ...while the quiet ternary tables should still be cached.
    bool still_cached = false;
    for (const ir::Node& n : emu.program().nodes()) {
        if (n.is_table() && n.table.role == ir::TableRole::Cache) {
            still_cached = true;
        }
    }
    EXPECT_TRUE(still_cached);
}

}  // namespace
}  // namespace pipeleon::runtime
