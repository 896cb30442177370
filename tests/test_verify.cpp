// Verifier mutation tests (ISSUE 2): every optimization pass has a test
// that corrupts a plan (illegal reorder / merge / cache placement / core
// split) and asserts the verifier rejects it with the right rule id — plus
// pass-through tests that the seed examples and real optimizer outputs
// verify clean.
#include <gtest/gtest.h>

#include "analysis/verify.h"
#include "apps/scenarios.h"
#include "ir/builder.h"
#include "ir/entry.h"
#include "opt/partition.h"
#include "opt/transform.h"
#include "search/optimizer.h"
#include "sim/nic_model.h"
#include "synth/profile_synth.h"

namespace pipeleon {
namespace {

using analysis::DiagnosticList;
using analysis::Pipelet;
using analysis::Verifier;
using analysis::VerifyError;
using ir::kNoNode;
using ir::NodeId;

// t0 writes header field `x`; t1 matches on `x` (a Match dependency);
// t2 and t3 are independent of everything. One straight-line pipelet.
ir::Program dependent_chain() {
    ir::ProgramBuilder b("dep_chain");
    b.append(ir::TableSpec("t0")
                 .key("f0")
                 .set_field_action("t0_set", "x")
                 .noop_action("t0_noop")
                 .default_to("t0_noop"));
    b.append(ir::TableSpec("t1").key("x").noop_action("t1_a").default_to("t1_a"));
    b.append(ir::TableSpec("t2").key("f2").noop_action("t2_a").default_to("t2_a"));
    b.append(ir::TableSpec("t3").key("f3").noop_action("t3_a").default_to("t3_a"));
    return b.build();
}

opt::PipeletPlan plan_for(int pipelet_id, std::vector<std::size_t> order) {
    opt::PipeletPlan plan;
    plan.pipelet_id = pipelet_id;
    plan.layout.order = std::move(order);
    return plan;
}

TEST(VerifyStructure, SeedScenariosAreClean) {
    for (const ir::Program& p :
         {apps::acl_routing_program(), apps::load_balancer_program(),
          apps::dash_routing_program(), apps::nf_composition_program(),
          apps::microbench_program(3)}) {
        DiagnosticList d = analysis::verify_structure(p);
        EXPECT_TRUE(d.ok()) << p.name() << ":\n" << d.to_string();
    }
}

TEST(VerifyStructure, DanglingEdgeIsReported) {
    ir::Program p = dependent_chain();
    p.node(1).miss_next = static_cast<NodeId>(p.node_count() + 7);
    DiagnosticList d = analysis::verify_structure(p);
    EXPECT_FALSE(d.ok());
    EXPECT_TRUE(d.has_rule("structure.edge-target")) << d.to_string();
}

TEST(VerifyStructure, CycleIsReported) {
    ir::Program p = dependent_chain();
    // t3's exits loop back to the root: root -> ... -> t3 -> root.
    for (NodeId& e : p.node(3).next_by_action) e = p.root();
    p.node(3).miss_next = p.root();
    DiagnosticList d = analysis::verify_structure(p);
    EXPECT_FALSE(d.ok());
    EXPECT_TRUE(d.has_rule("structure.cycle")) << d.to_string();
}

TEST(VerifyStructure, SelfLoopIsReported) {
    ir::Program p = dependent_chain();
    p.node(2).miss_next = 2;
    DiagnosticList d = analysis::verify_structure(p);
    EXPECT_TRUE(d.has_rule("structure.self-loop")) << d.to_string();
}

TEST(VerifyStructure, BadDefaultActionIsReported) {
    ir::Program p = dependent_chain();
    p.node(0).table.default_action = 9;
    DiagnosticList d = analysis::verify_structure(p);
    EXPECT_TRUE(d.has_rule("structure.table.default-action")) << d.to_string();
}

TEST(VerifyStructure, ActionEdgeArityMismatchIsReported) {
    ir::Program p = dependent_chain();
    p.node(1).next_by_action.push_back(kNoNode);
    DiagnosticList d = analysis::verify_structure(p);
    EXPECT_TRUE(d.has_rule("structure.table.arity")) << d.to_string();
}

TEST(VerifyStructure, DuplicateTableNameIsReported) {
    ir::Program p = dependent_chain();
    p.node(3).table.name = p.node(2).table.name;
    DiagnosticList d = analysis::verify_structure(p);
    EXPECT_TRUE(d.has_rule("structure.table.name")) << d.to_string();
}

TEST(VerifyStructure, UnreachableNodeIsAWarningNotAnError) {
    ir::Program p = dependent_chain();
    p.add_table(ir::TableSpec("orphan").key("f9").noop_action("a").build());
    DiagnosticList d = analysis::verify_structure(p);
    EXPECT_TRUE(d.ok()) << d.to_string();
    EXPECT_TRUE(d.has_rule("structure.unreachable")) << d.to_string();
}

TEST(VerifyStructure, CorruptedCacheCoverageIsReported) {
    // Build a genuine cached layout through the transformation pipeline,
    // then corrupt the cache's provenance so the covered run no longer
    // matches.
    ir::Program p = dependent_chain();
    std::vector<Pipelet> pipelets = analysis::form_pipelets(p);
    ASSERT_EQ(pipelets.size(), 1u);
    opt::PipeletPlan plan = plan_for(0, {0, 1, 2, 3});
    plan.layout.caches.push_back(opt::Segment{2, 3});
    ir::Program cached = opt::apply_plans(p, pipelets, {plan},
                                          analysis::VerifyMode::Full);
    ASSERT_TRUE(analysis::verify_structure(cached).ok());

    ir::Program broken = cached;
    for (std::size_t i = 0; i < broken.node_count(); ++i) {
        ir::Table& t = broken.node(static_cast<NodeId>(i)).table;
        if (broken.node(static_cast<NodeId>(i)).is_table() &&
            t.role == ir::TableRole::Cache) {
            t.origin_tables = {"t3", "t2"};  // reversed: miss chain mismatch
        }
    }
    DiagnosticList d = analysis::verify_structure(broken);
    EXPECT_FALSE(d.ok());
    EXPECT_TRUE(d.has_rule("structure.cache.cover")) << d.to_string();
}

TEST(VerifyStructure, IllegalCoreSplitIsReported) {
    // A partitioned + instrumented program verifies clean; flipping one
    // table onto the other core creates a bare crossing (§3.2.4).
    ir::ProgramBuilder b("split");
    b.append(ir::TableSpec("a0").key("f0").noop_action("a").default_to("a"));
    b.append(ir::TableSpec("c0").key("f1").noop_action("a").default_to("a").cpu_only());
    b.append(ir::TableSpec("a1").key("f2").noop_action("a").default_to("a"));
    ir::Program instrumented =
        opt::insert_migration_tables(opt::partition_by_support(b.build()));
    ASSERT_TRUE(analysis::verify_structure(instrumented).ok())
        << analysis::verify_structure(instrumented).to_string();

    ir::Program broken = instrumented;
    for (std::size_t i = 0; i < broken.node_count(); ++i) {
        ir::Node& n = broken.node(static_cast<NodeId>(i));
        if (n.is_table() && n.table.name == "a1") {
            n.core = ir::CoreKind::Cpu;
        }
    }
    DiagnosticList d = analysis::verify_structure(broken);
    EXPECT_FALSE(d.ok());
    EXPECT_TRUE(d.has_rule("structure.core-crossing")) << d.to_string();
}

TEST(VerifyEntries, ArityKindActionIdAndDataAreChecked) {
    ir::Table t = ir::TableSpec("t")
                      .key("f0")
                      .noop_action("hit")
                      .set_field_action("set_x", "x")
                      .build();
    Verifier v;

    ir::TableEntry ok;
    ok.key = {ir::FieldMatch::exact(5)};
    ok.action_index = 1;
    ok.action_data = {42};
    EXPECT_TRUE(v.check_entries(t, {ok}).ok());

    ir::TableEntry arity = ok;
    arity.key.push_back(ir::FieldMatch::exact(1));
    EXPECT_TRUE(v.check_entries(t, {arity}).has_rule("entry.key-arity"));

    ir::TableEntry kind = ok;
    kind.key = {ir::FieldMatch::lpm(5, 24)};
    EXPECT_TRUE(v.check_entries(t, {kind}).has_rule("entry.key-kind"));

    ir::TableEntry action = ok;
    action.action_index = 5;
    EXPECT_TRUE(v.check_entries(t, {action}).has_rule("entry.action-id"));

    ir::TableEntry data = ok;
    data.action_data.clear();  // set_x consumes arg 0
    EXPECT_TRUE(v.check_entries(t, {data}).has_rule("entry.action-data"));
}

TEST(VerifyTranslation, IllegalReorderIsRejected) {
    ir::Program p = dependent_chain();
    std::vector<Pipelet> pipelets = analysis::form_pipelets(p);
    // Swap the dependent pair: t1 (reads x) now runs before t0 (writes x).
    opt::PipeletPlan plan = plan_for(0, {1, 0, 2, 3});
    try {
        opt::apply_plans(p, pipelets, {plan}, analysis::VerifyMode::Full);
        FAIL() << "illegal reorder was not rejected";
    } catch (const VerifyError& e) {
        EXPECT_TRUE(e.diagnostics().has_rule("plan.reorder.dependency"))
            << e.diagnostics().to_string();
    }
    // The structural result is well-formed — only translation validation
    // catches the semantic break.
    EXPECT_NO_THROW(
        opt::apply_plans(p, pipelets, {plan}, analysis::VerifyMode::Structure));
}

TEST(VerifyTranslation, IllegalCachePlacementIsRejected) {
    ir::Program p = dependent_chain();
    std::vector<Pipelet> pipelets = analysis::form_pipelets(p);
    // Cache over {t0, t1}: t0 writes t1's match key, so the compound cache
    // key is not readable at lookup time.
    opt::PipeletPlan plan = plan_for(0, {0, 1, 2, 3});
    plan.layout.caches.push_back(opt::Segment{0, 1});
    DiagnosticList d =
        analysis::verify_translation(p, pipelets, {plan}, p);
    EXPECT_FALSE(d.ok());
    EXPECT_TRUE(d.has_rule("plan.cache.dependency")) << d.to_string();
    // The transformation pipeline refuses to even build it.
    EXPECT_THROW(
        opt::apply_plans(p, pipelets, {plan}, analysis::VerifyMode::Off),
        VerifyError);
}

TEST(VerifyTranslation, IllegalMergeIsRejected) {
    ir::Program p = dependent_chain();
    std::vector<Pipelet> pipelets = analysis::form_pipelets(p);
    opt::PipeletPlan plan = plan_for(0, {0, 1, 2, 3});
    plan.layout.merges.push_back(opt::MergeSpec{opt::Segment{0, 1}, false});
    DiagnosticList d =
        analysis::verify_translation(p, pipelets, {plan}, p);
    EXPECT_FALSE(d.ok());
    EXPECT_TRUE(d.has_rule("plan.merge.dependency")) << d.to_string();
}

TEST(VerifyTranslation, MergeAsCacheRequiresExactKeys) {
    ir::ProgramBuilder b("lpm_pair");
    b.append(ir::TableSpec("u0")
                 .key("dst", ir::MatchKind::Lpm)
                 .noop_action("a")
                 .default_to("a"));
    b.append(ir::TableSpec("u1").key("port").noop_action("a").default_to("a"));
    ir::Program p = b.build();
    std::vector<Pipelet> pipelets = analysis::form_pipelets(p);
    opt::PipeletPlan plan = plan_for(0, {0, 1});
    plan.layout.merges.push_back(opt::MergeSpec{opt::Segment{0, 1}, true});
    DiagnosticList d =
        analysis::verify_translation(p, pipelets, {plan}, p);
    EXPECT_TRUE(d.has_rule("plan.merge.exact")) << d.to_string();
}

TEST(VerifyTranslation, OverlappingSegmentsAreRejected) {
    ir::Program p = dependent_chain();
    std::vector<Pipelet> pipelets = analysis::form_pipelets(p);
    opt::PipeletPlan plan = plan_for(0, {0, 1, 2, 3});
    plan.layout.caches.push_back(opt::Segment{1, 2});
    plan.layout.merges.push_back(opt::MergeSpec{opt::Segment{2, 3}, false});
    DiagnosticList d =
        analysis::verify_translation(p, pipelets, {plan}, p);
    EXPECT_TRUE(d.has_rule("plan.segments")) << d.to_string();
}

TEST(VerifyTranslation, LegalPlanVerifiesClean) {
    ir::Program p = dependent_chain();
    std::vector<Pipelet> pipelets = analysis::form_pipelets(p);
    opt::PipeletPlan plan = plan_for(0, {0, 1, 2, 3});
    plan.layout.caches.push_back(opt::Segment{2, 3});
    ir::Program optimized;
    ASSERT_NO_THROW(optimized = opt::apply_plans(p, pipelets, {plan},
                                                 analysis::VerifyMode::Full));
    DiagnosticList d =
        analysis::verify_translation(p, pipelets, {plan}, optimized);
    EXPECT_TRUE(d.ok()) << d.to_string();
}

TEST(VerifyTranslation, DroppedTableIsCaughtByPathPreservation) {
    // "Optimized" program silently loses table b: the canonical
    // root-to-sink table sets differ even though both programs are
    // structurally sound.
    ir::Program original = ir::chain_of_exact_tables("chain", 3);
    ir::ProgramBuilder b("chain_lossy");
    b.append(ir::TableSpec("t0").key("f0").noop_action("a").default_to("a"));
    b.append(ir::TableSpec("t2").key("f2").noop_action("a").default_to("a"));
    ir::Program lossy = b.build();
    DiagnosticList d = analysis::verify_translation(
        original, analysis::form_pipelets(original), {}, lossy);
    EXPECT_FALSE(d.ok());
    EXPECT_TRUE(d.has_rule("trans.paths")) << d.to_string();
}

TEST(VerifyTranslation, OptimizerOutputsVerifyClean) {
    for (ir::Program original :
         {apps::acl_routing_program(), apps::load_balancer_program(),
          apps::microbench_program(3)}) {
        synth::ProfileSynthesizer profgen(synth::high_locality_config(), 17);
        profile::RuntimeProfile prof = profgen.generate(original);
        search::OptimizerConfig cfg;
        search::Optimizer optimizer(
            cost::CostModel(sim::bluefield2_model().costs, {}), cfg);
        search::OptimizationOutcome out = optimizer.optimize(original, prof);
        EXPECT_EQ(out.plans_rejected, 0u) << original.name();
        std::vector<Pipelet> pipelets =
            analysis::form_pipelets(original, cfg.pipelet);
        DiagnosticList d = analysis::verify_translation(
            original, pipelets, out.plans, out.optimized);
        EXPECT_TRUE(d.ok()) << original.name() << ":\n" << d.to_string();
    }
}

// ---------------------------------------------------------- entry.remap.*
// The entry-remap family (ISSUE 3) checks the control plane's remapped
// entry set against the deployed layout before an epoch swap ships it.

/// Two-table original with one live entry per table in the original store.
struct RemapFixture {
    ir::Program original;
    std::unordered_map<std::string, std::vector<ir::TableEntry>> store;

    static RemapFixture make() {
        RemapFixture f;
        ir::ProgramBuilder b("remap");
        b.append(ir::TableSpec("A").key("src").noop_action("a1").noop_action("a2").build());
        b.append(ir::TableSpec("B").key("dst").noop_action("b1").noop_action("b2").build());
        f.original = b.build();
        ir::TableEntry ea;
        ea.key = {ir::FieldMatch::exact(1)};
        ea.action_index = 0;
        ir::TableEntry eb;
        eb.key = {ir::FieldMatch::exact(2)};
        eb.action_index = 1;
        f.store["A"] = {ea};
        f.store["B"] = {eb};
        return f;
    }

    std::unordered_map<std::string, std::size_t> counts() const {
        std::unordered_map<std::string, std::size_t> out;
        for (const auto& [name, entries] : store) out.emplace(name, entries.size());
        return out;
    }

    std::vector<ir::EntryLoad> full_loads() const {
        return {ir::EntryLoad{"A", store.at("A")},
                ir::EntryLoad{"B", store.at("B")}};
    }
};

TEST(VerifyEntryRemap, FaithfulRemapIsClean) {
    RemapFixture f = RemapFixture::make();
    Verifier v;
    DiagnosticList d =
        v.check_entry_remap(f.original, f.counts(), f.original, f.full_loads());
    EXPECT_TRUE(d.ok()) << d.to_string();
}

TEST(VerifyEntryRemap, UnknownTableIsReported) {
    RemapFixture f = RemapFixture::make();
    auto loads = f.full_loads();
    loads.push_back(ir::EntryLoad{"Z", {}});
    Verifier v;
    DiagnosticList d = v.check_entry_remap(f.original, f.counts(), f.original, loads);
    EXPECT_TRUE(d.has_rule("entry.remap.unknown-table")) << d.to_string();
}

TEST(VerifyEntryRemap, LoadingAFlowCacheIsReported) {
    RemapFixture f = RemapFixture::make();
    auto pipelets = analysis::form_pipelets(f.original);
    opt::PipeletPlan plan = plan_for(0, {0, 1});
    plan.layout.caches = {opt::Segment{0, 1}};
    ir::Program cached = opt::apply_plans(f.original, pipelets, {plan});

    auto loads = f.full_loads();
    loads.push_back(ir::EntryLoad{"cache_A_B", {}});
    Verifier v;
    DiagnosticList d = v.check_entry_remap(f.original, f.counts(), cached, loads);
    EXPECT_TRUE(d.has_rule("entry.remap.role")) << d.to_string();
}

TEST(VerifyEntryRemap, DuplicateLoadIsReported) {
    RemapFixture f = RemapFixture::make();
    auto loads = f.full_loads();
    loads.push_back(ir::EntryLoad{"A", f.store.at("A")});
    Verifier v;
    DiagnosticList d = v.check_entry_remap(f.original, f.counts(), f.original, loads);
    EXPECT_TRUE(d.has_rule("entry.remap.duplicate-load")) << d.to_string();
}

TEST(VerifyEntryRemap, CountMismatchOnDirectTableIsReported) {
    RemapFixture f = RemapFixture::make();
    auto loads = f.full_loads();
    loads[0].entries.clear();  // A's load silently drops the stored entry
    Verifier v;
    DiagnosticList d = v.check_entry_remap(f.original, f.counts(), f.original, loads);
    EXPECT_TRUE(d.has_rule("entry.remap.count")) << d.to_string();
}

TEST(VerifyEntryRemap, MergedTableWithoutLoadIsReported) {
    RemapFixture f = RemapFixture::make();
    auto pipelets = analysis::form_pipelets(f.original);
    opt::PipeletPlan plan = plan_for(0, {0, 1});
    plan.layout.merges = {opt::MergeSpec{opt::Segment{0, 1}, false}};
    ir::Program merged = opt::apply_plans(f.original, pipelets, {plan});

    // No load at all for the merged cross-product table: it would deploy
    // empty and miss every packet.
    Verifier v;
    DiagnosticList d = v.check_entry_remap(f.original, f.counts(), merged, {});
    EXPECT_TRUE(d.has_rule("entry.remap.missing-load")) << d.to_string();
}

TEST(VerifyEntryRemap, DroppedOriginalEntriesAreReported) {
    RemapFixture f = RemapFixture::make();
    // Deployed layout lost table A entirely, and no merged table covers it.
    ir::ProgramBuilder b("without_a");
    b.append(ir::TableSpec("B").key("dst").noop_action("b1").noop_action("b2").build());
    ir::Program without_a = b.build();

    Verifier v;
    DiagnosticList d = v.check_entry_remap(
        f.original, f.counts(), without_a, {ir::EntryLoad{"B", f.store.at("B")}});
    EXPECT_TRUE(d.has_rule("entry.remap.dropped")) << d.to_string();
}

TEST(VerifyMode, DefaultsAndOverridesAreScoped) {
    analysis::VerifyMode saved = analysis::verify_mode();
    analysis::set_verify_mode(analysis::VerifyMode::Off);
    EXPECT_EQ(analysis::verify_mode(), analysis::VerifyMode::Off);
    analysis::set_verify_mode(saved);
    EXPECT_EQ(analysis::verify_mode(), saved);
}

}  // namespace
}  // namespace pipeleon
