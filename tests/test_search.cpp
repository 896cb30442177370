// Tests for search/enumerate, search/group, and search/optimizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <numeric>
#include <set>

#include "analysis/pipelet.h"
#include "dependent_programs.h"
#include "ir/builder.h"
#include "search/optimizer.h"
#include "synth/profile_synth.h"
#include "util/strings.h"

namespace pipeleon::search {
namespace {

using ir::MatchKind;
using ir::NodeId;
using ir::Program;
using ir::ProgramBuilder;
using ir::TableSpec;

cost::CostModel model() {
    cost::CostParams p;
    p.l_mat = 10.0;
    p.l_act = 1.0;
    p.default_ternary_m = 5;
    p.default_cache_hit_rate = 0.9;
    profile::InstrumentationConfig instr;
    instr.enabled = false;
    return cost::CostModel(p, instr);
}

struct PipeletCase {
    Program program;
    profile::RuntimeProfile profile;
    std::vector<analysis::Pipelet> pipelets;
};

PipeletCase ternary_chain(std::size_t n) {
    ProgramBuilder b("tc");
    for (std::size_t i = 0; i < n; ++i) {
        b.append(TableSpec(util::format("t%zu", i))
                     .key(util::format("f%zu", i), MatchKind::Ternary)
                     .noop_action(util::format("t%zu_a", i), 1)
                     .build());
    }
    PipeletCase s{b.build(), {}, {}};
    s.profile.reset_for(s.program, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
        s.profile.table(static_cast<NodeId>(i)).action_hits = {1000};
        s.profile.table(static_cast<NodeId>(i)).entry_count = 64;
    }
    s.pipelets = analysis::form_pipelets(s.program);
    return s;
}

TEST(Enumerate, PaperExampleTwoTableCandidates) {
    // "a pipelet with two tables T_A and T_B will generate four table
    // caching candidates [TA], [TB], [TA][TB], and [TA,TB] … one merging
    // candidate [TA,TB], and two table reordering options."
    PipeletCase s = ternary_chain(2);
    cost::CostModel m = model();
    opt::PipeletEvaluator ev(s.program, s.pipelets[0], s.profile, m);
    SearchOptions opts;
    opts.min_latency_gain = -1e18;  // keep everything, we count shapes

    auto cands = enumerate_candidates(ev, 0, 1.0, opts);
    int identity_orders = 0, swapped_orders = 0;
    std::set<std::string> cache_shapes;
    int merges = 0;
    for (const opt::Candidate& c : cands) {
        if (c.layout.order == std::vector<std::size_t>{0, 1}) ++identity_orders;
        if (c.layout.order == std::vector<std::size_t>{1, 0}) ++swapped_orders;
        if (!c.layout.merges.empty()) ++merges;
        if (c.layout.merges.empty() && !c.layout.caches.empty() &&
            c.layout.order == std::vector<std::size_t>{0, 1}) {
            std::string shape;
            for (const opt::Segment& seg : c.layout.caches) {
                shape += util::format("[%zu-%zu]", seg.first, seg.last);
            }
            cache_shapes.insert(shape);
        }
    }
    EXPECT_GT(identity_orders, 0);
    EXPECT_GT(swapped_orders, 0);
    // The four caching shapes of the paper example.
    EXPECT_TRUE(cache_shapes.count("[0-0]"));
    EXPECT_TRUE(cache_shapes.count("[1-1]"));
    EXPECT_TRUE(cache_shapes.count("[0-0][1-1]"));
    EXPECT_TRUE(cache_shapes.count("[0-1]"));
    EXPECT_GT(merges, 0);
}

TEST(Enumerate, PositiveGainFilter) {
    PipeletCase s = ternary_chain(3);
    cost::CostModel m = model();
    opt::PipeletEvaluator ev(s.program, s.pipelets[0], s.profile, m);
    SearchOptions opts;  // default: only improving candidates
    auto cands = enumerate_candidates(ev, 0, 1.0, opts);
    EXPECT_FALSE(cands.empty());
    for (const opt::Candidate& c : cands) EXPECT_GT(c.gain, 0.0);
    // Sorted descending.
    for (std::size_t i = 1; i < cands.size(); ++i) {
        EXPECT_GE(cands[i - 1].gain, cands[i].gain);
    }
}

TEST(Enumerate, RespectsTechniqueToggles) {
    PipeletCase s = ternary_chain(3);
    cost::CostModel m = model();
    opt::PipeletEvaluator ev(s.program, s.pipelets[0], s.profile, m);
    SearchOptions opts;
    opts.allow_cache = false;
    opts.allow_merge = false;
    opts.allow_reorder = false;
    EXPECT_TRUE(enumerate_candidates(ev, 0, 1.0, opts).empty());

    opts.allow_cache = true;
    auto cands = enumerate_candidates(ev, 0, 1.0, opts);
    EXPECT_FALSE(cands.empty());
    for (const opt::Candidate& c : cands) {
        EXPECT_TRUE(c.layout.merges.empty());
        EXPECT_FALSE(c.layout.caches.empty());
    }
}

TEST(Enumerate, CandidateCapRespected) {
    PipeletCase s = ternary_chain(6);
    cost::CostModel m = model();
    opt::PipeletEvaluator ev(s.program, s.pipelets[0], s.profile, m);
    SearchOptions opts;
    opts.max_candidates = 10;
    opts.min_latency_gain = -1e18;
    EXPECT_LE(enumerate_candidates(ev, 0, 1.0, opts).size(), 10u);
}

/// The exhaustive search enumerate_candidates must reproduce: label every
/// layout of every order, evaluate() each one, keep what it accepts.
std::vector<opt::Candidate> evaluate_every_layout(const opt::PipeletEvaluator& ev,
                                                  int pipelet_id, double reach,
                                                  const SearchOptions& options) {
    std::vector<opt::Candidate> out;
    const std::size_t n = ev.size();
    std::vector<std::vector<std::size_t>> orders;
    std::vector<std::size_t> identity(n);
    std::iota(identity.begin(), identity.end(), std::size_t{0});
    orders.push_back(identity);
    if (options.allow_reorder) {
        std::vector<std::size_t> greedy = ev.greedy_drop_order();
        if (greedy != identity) orders.push_back(greedy);
        for (auto& order : ev.deps().valid_orders(options.max_orders)) {
            if (std::find(orders.begin(), orders.end(), order) == orders.end()) {
                orders.push_back(std::move(order));
            }
        }
    }

    opt::CandidateLayout layout;
    layout.cache_config = options.cache_config;
    std::function<void(std::size_t)> label = [&](std::size_t p) {
        if (out.size() >= options.max_candidates) return;
        if (p >= n) {
            if (layout.is_identity()) return;
            opt::EvalResult eval = ev.evaluate(layout);
            double latency_gain = ev.baseline_latency() - eval.latency;
            if (!eval.valid || latency_gain < options.min_latency_gain) return;
            out.push_back(opt::Candidate{pipelet_id, layout, latency_gain * reach,
                                         eval.extra_memory, eval.extra_updates});
            return;
        }
        if (options.allow_cache) {
            for (std::size_t q = n; q-- > p;) {
                layout.caches.push_back(opt::Segment{p, q});
                label(q + 1);
                layout.caches.pop_back();
            }
        }
        if (options.allow_merge && options.max_merge_len >= 2) {
            for (std::size_t q = p + 1;
                 q <= std::min(n - 1, p + options.max_merge_len - 1); ++q) {
                for (bool as_cache : {false, true}) {
                    layout.merges.push_back(opt::MergeSpec{opt::Segment{p, q}, as_cache});
                    label(q + 1);
                    layout.merges.pop_back();
                }
            }
        }
        label(p + 1);
    };
    for (const auto& order : orders) {
        layout.order = order;
        label(0);
        if (out.size() >= options.max_candidates) break;
    }
    std::sort(out.begin(), out.end(), [](const opt::Candidate& a, const opt::Candidate& b) {
        return a.gain > b.gain;
    });
    return out;
}

::testing::AssertionResult same_candidates(const std::vector<opt::Candidate>& got,
                                           const std::vector<opt::Candidate>& want) {
    if (got.size() != want.size()) {
        return ::testing::AssertionFailure()
               << got.size() << " candidates, expected " << want.size();
    }
    auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    for (std::size_t i = 0; i < got.size(); ++i) {
        const opt::Candidate& g = got[i];
        const opt::Candidate& w = want[i];
        if (g.layout.to_string() != w.layout.to_string() ||
            g.pipelet_id != w.pipelet_id || bits(g.gain) != bits(w.gain) ||
            bits(g.memory_cost) != bits(w.memory_cost) ||
            bits(g.update_cost) != bits(w.update_cost)) {
            return ::testing::AssertionFailure()
                   << "candidate " << i << ": " << g.layout.to_string() << " gain "
                   << g.gain << ", expected " << w.layout.to_string() << " gain "
                   << w.gain;
        }
    }
    return ::testing::AssertionSuccess();
}

TEST(Enumerate, MatchesEvaluatingEveryLayout) {
    // Default cost parameters with instrumentation on, as the controller runs.
    cost::CostModel m(cost::CostParams{}, profile::InstrumentationConfig{});
    const synth::ProfileSynthConfig presets[] = {synth::heavy_drop_config(),
                                                 synth::small_static_config(),
                                                 synth::high_locality_config()};
    std::size_t searches = 0, capped = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Program program = test_support::dependent_program(seed, 5, 5);
        profile::RuntimeProfile prof =
            synth::ProfileSynthesizer(presets[seed % 3], seed).generate(program);
        for (const analysis::Pipelet& pl : analysis::form_pipelets(program)) {
            if (pl.is_switch_case) continue;
            opt::PipeletEvaluator ev(program, pl, prof, m);
            for (bool merge : {false, true}) {
                for (std::size_t merge_len : {2u, 3u}) {
                    for (std::size_t cap : {25u, 100000u}) {
                        SearchOptions opts;
                        opts.allow_merge = merge;
                        opts.max_merge_len = merge_len;
                        opts.max_orders = 6;
                        opts.max_candidates = cap;
                        // Keep losing layouts too when uncapped: every bit
                        // of every valid layout is compared.
                        if (cap > 25) opts.min_latency_gain = -1e18;
                        auto got = enumerate_candidates(ev, pl.id, 0.5, opts);
                        auto want = evaluate_every_layout(ev, pl.id, 0.5, opts);
                        EXPECT_TRUE(same_candidates(got, want))
                            << "seed " << seed << " pipelet " << pl.id
                            << " merge " << merge << " len " << merge_len
                            << " cap " << cap;
                        ++searches;
                        if (got.size() == cap) ++capped;
                    }
                }
            }
        }
    }
    EXPECT_GT(searches, 100u);
    EXPECT_GT(capped, 10u);  // the cap truncates some searches
}

TEST(Optimizer, CachesTernaryChain) {
    PipeletCase s = ternary_chain(4);
    OptimizerConfig cfg;
    cfg.top_k_fraction = 1.0;
    Optimizer opt(model(), cfg);
    OptimizationOutcome out = opt.optimize(s.program, s.profile);
    EXPECT_FALSE(out.plans.empty());
    EXPECT_GT(out.predicted_gain, 0.0);
    EXPECT_LT(out.predicted_latency, out.baseline_latency);
    // A cache table shows up in the optimized program.
    bool has_cache = false;
    for (NodeId id : out.optimized.reachable()) {
        if (out.optimized.node(id).table.role == ir::TableRole::Cache) {
            has_cache = true;
        }
    }
    EXPECT_TRUE(has_cache);
    EXPECT_GT(out.search_seconds, 0.0);
}

TEST(Optimizer, ReordersDropHeavyAcl) {
    // Exact chain where the LAST table drops 90%: the only useful move is
    // promoting it (caching exact tables barely helps; merge is capped).
    ProgramBuilder b("acl");
    for (int i = 0; i < 4; ++i) {
        TableSpec spec(util::format("t%d", i));
        spec.key(util::format("f%d", i));
        spec.noop_action(util::format("t%d_ok", i), 1);
        spec.drop_action(util::format("t%d_deny", i));
        spec.default_to(util::format("t%d_ok", i));
        b.append(spec.build());
    }
    Program p = b.build();
    profile::RuntimeProfile prof;
    prof.reset_for(p, 1.0);
    for (int i = 0; i < 4; ++i) {
        prof.table(i).action_hits = {1000, 0};
        prof.table(i).entry_count = 10;
    }
    prof.table(3).action_hits = {100, 900};  // hot dropper

    OptimizerConfig cfg;
    cfg.top_k_fraction = 1.0;
    cfg.search.allow_cache = false;
    cfg.search.allow_merge = false;
    Optimizer opt(model(), cfg);
    OptimizationOutcome out = opt.optimize(p, prof);
    ASSERT_EQ(out.plans.size(), 1u);
    // t3 moved to the front.
    EXPECT_EQ(out.plans[0].layout.order[0], 3u);
    EXPECT_EQ(out.optimized.node(out.optimized.root()).table.name, "t3");
}

TEST(Optimizer, ResourceLimitsShrinkThePlan) {
    PipeletCase s = ternary_chain(4);
    OptimizerConfig cfg;
    cfg.top_k_fraction = 1.0;
    Optimizer unlimited(model(), cfg);
    OptimizationOutcome free_run = unlimited.optimize(s.program, s.profile);

    cfg.limits.memory_bytes = 1.0;  // essentially no memory for caches
    cfg.limits.updates_per_sec = 0.1;
    Optimizer tight(model(), cfg);
    OptimizationOutcome tight_run = tight.optimize(s.program, s.profile);
    EXPECT_LE(tight_run.memory_used, 1.0);
    EXPECT_LE(tight_run.predicted_gain, free_run.predicted_gain);
}

TEST(Optimizer, TopKLimitsScope) {
    // Two pipelets; k=50% should only touch the hotter one.
    ProgramBuilder b("topk");
    NodeId t0 = b.add(TableSpec("t0").key("a", MatchKind::Ternary)
                          .noop_action("a0", 1)
                          .build());
    NodeId br = b.add_branch({"f", ir::CmpOp::Eq, 1});
    NodeId t1 = b.add(TableSpec("t1").key("b", MatchKind::Ternary)
                          .noop_action("a1", 1)
                          .build());
    NodeId t2 = b.add(TableSpec("t2").key("c", MatchKind::Ternary)
                          .noop_action("a2", 1)
                          .build());
    b.connect(t0, br);
    b.connect_branch(br, t1, t2);
    b.set_root(t0);
    Program p = b.build();
    profile::RuntimeProfile prof;
    prof.reset_for(p, 1.0);
    prof.table(t0).action_hits = {1000};
    prof.branch(br).taken_true = 990;
    prof.branch(br).taken_false = 10;
    prof.table(t1).action_hits = {990};
    prof.table(t2).action_hits = {10};

    OptimizerConfig cfg;
    cfg.top_k_fraction = 0.3;  // 1 of 3 pipelets
    Optimizer opt(model(), cfg);
    OptimizationOutcome out = opt.optimize(p, prof);
    EXPECT_EQ(out.hot_pipelets.size(), 1u);
    EXPECT_LE(out.plans.size(), 1u);
}

TEST(Group, JointOptimizationBeatsSeparate) {
    // pre (1 ternary table) -> branch -> {armt, armf} -> post (1 ternary
    // table). Separately, each 1-table pipelet can only self-cache; jointly,
    // pre+post can share one cache / merge.
    ProgramBuilder b("grp");
    NodeId pre = b.add(TableSpec("pre").key("p", MatchKind::Ternary)
                           .noop_action("pa", 1)
                           .build());
    NodeId br = b.add_branch({"flag", ir::CmpOp::Eq, 1});
    NodeId armt = b.add(TableSpec("armt").key("x").noop_action("xa", 1).build());
    NodeId armf = b.add(TableSpec("armf").key("y").noop_action("ya", 1).build());
    NodeId post = b.add(TableSpec("post").key("q", MatchKind::Ternary)
                            .noop_action("qa", 1)
                            .build());
    b.connect(pre, br);
    b.connect_branch(br, armt, armf);
    b.connect(armt, post);
    b.connect(armf, post);
    b.set_root(pre);
    Program p = b.build();

    profile::RuntimeProfile prof;
    prof.reset_for(p, 1.0);
    prof.table(pre).action_hits = {1000};
    prof.branch(br).taken_true = 500;
    prof.branch(br).taken_false = 500;
    prof.table(armt).action_hits = {500};
    prof.table(armf).action_hits = {500};
    prof.table(post).action_hits = {1000};

    auto pipelets = analysis::form_pipelets(p);
    auto groups = analysis::find_pipelet_groups(p, pipelets);
    ASSERT_EQ(groups.size(), 1u);

    std::vector<int> selected;
    for (const auto& pl : pipelets) selected.push_back(pl.id);
    SearchOptions opts;
    auto opps = evaluate_groups(p, pipelets, groups, selected, prof, model(), opts);
    ASSERT_EQ(opps.size(), 1u);
    EXPECT_GT(opps[0].extra_gain, 0.0);
}

TEST(Group, DependentTablesNotGrouped) {
    // post matches the field the branch tests AND that pre writes: no joint
    // optimization allowed.
    ProgramBuilder b("dep");
    ir::Action w;
    w.name = "w";
    w.primitives.push_back(ir::Primitive::set_const("flag", 1));
    NodeId pre = b.add(TableSpec("pre").key("p").action(w).build());
    NodeId br = b.add_branch({"flag", ir::CmpOp::Eq, 1});
    NodeId armt = b.add(TableSpec("armt").key("x").noop_action("xa").build());
    NodeId armf = b.add(TableSpec("armf").key("y").noop_action("ya").build());
    NodeId post = b.add(TableSpec("post").key("q").noop_action("qa").build());
    b.connect(pre, br);
    b.connect_branch(br, armt, armf);
    b.connect(armt, post);
    b.connect(armf, post);
    b.set_root(pre);
    Program p = b.build();
    profile::RuntimeProfile prof;
    prof.reset_for(p, 1.0);

    auto pipelets = analysis::form_pipelets(p);
    auto groups = analysis::find_pipelet_groups(p, pipelets);
    std::vector<int> selected;
    for (const auto& pl : pipelets) selected.push_back(pl.id);
    SearchOptions opts;
    EXPECT_TRUE(
        evaluate_groups(p, pipelets, groups, selected, prof, model(), opts)
            .empty());
}

}  // namespace
}  // namespace pipeleon::search
