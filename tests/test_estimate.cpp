// Tests for opt/estimate: the PipeletEvaluator's candidate verdicts must
// mirror the paper's qualitative claims — reordering promotes droppers for
// free, caching helps complex matches and hurts with low hit rates, naive
// exact merges can regress while merge-as-cache cannot blow up the match
// cost.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/pipelet.h"
#include "cost/model.h"
#include "dependent_programs.h"
#include "ir/builder.h"
#include "opt/cache.h"
#include "opt/estimate.h"
#include "opt/merge.h"
#include "synth/profile_synth.h"
#include "util/strings.h"

namespace pipeleon::opt {
namespace {

using ir::MatchKind;
using ir::NodeId;
using ir::Program;
using ir::ProgramBuilder;
using ir::TableSpec;

cost::CostParams params() {
    cost::CostParams p;
    p.l_mat = 10.0;
    p.l_act = 1.0;
    p.default_cache_hit_rate = 0.9;
    p.default_ternary_m = 5;
    p.default_lpm_m = 3;
    p.cache_invalidation_penalty = 0.02;
    return p;
}

profile::InstrumentationConfig no_instr() {
    profile::InstrumentationConfig c;
    c.enabled = false;
    return c;
}

struct PipeletCase {
    Program program;
    profile::RuntimeProfile profile;
    analysis::Pipelet pipelet;
};

/// Chain of n independent exact tables; positions given drop rates.
PipeletCase make_chain(const std::vector<double>& drop_rates) {
    ProgramBuilder b("chain");
    for (std::size_t i = 0; i < drop_rates.size(); ++i) {
        TableSpec spec(util::format("t%zu", i));
        spec.key(util::format("f%zu", i));
        spec.noop_action(util::format("t%zu_ok", i), 1);
        spec.drop_action(util::format("t%zu_deny", i));
        spec.default_to(util::format("t%zu_ok", i));
        b.append(spec.build());
    }
    PipeletCase s{b.build(), {}, {}};
    s.profile.reset_for(s.program, 1.0);
    for (std::size_t i = 0; i < drop_rates.size(); ++i) {
        auto& st = s.profile.table(static_cast<NodeId>(i));
        st.action_hits[0] =
            static_cast<std::uint64_t>(1000 * (1.0 - drop_rates[i]));
        st.action_hits[1] = static_cast<std::uint64_t>(1000 * drop_rates[i]);
        st.entry_count = 100;
    }
    auto pipelets = analysis::form_pipelets(s.program);
    s.pipelet = pipelets.at(0);
    return s;
}

CandidateLayout identity(std::size_t n) {
    CandidateLayout l;
    for (std::size_t i = 0; i < n; ++i) l.order.push_back(i);
    return l;
}

TEST(Estimate, BaselineMatchesIdentityLayout) {
    PipeletCase s = make_chain({0.0, 0.0, 0.0});
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);
    EvalResult r = ev.evaluate(identity(3));
    ASSERT_TRUE(r.valid);
    EXPECT_NEAR(r.latency, ev.baseline_latency(), 1e-9);
    EXPECT_DOUBLE_EQ(r.extra_memory, 0.0);
    EXPECT_DOUBLE_EQ(r.extra_updates, 0.0);
}

TEST(Estimate, PromotingDropperReducesLatency) {
    // Last table drops 80%: moving it first should cut the pipelet cost.
    PipeletCase s = make_chain({0.0, 0.0, 0.8});
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);

    CandidateLayout reordered = identity(3);
    reordered.order = {2, 0, 1};
    EvalResult r = ev.evaluate(reordered);
    ASSERT_TRUE(r.valid);
    EXPECT_LT(r.latency, ev.baseline_latency() * 0.7);
    EXPECT_DOUBLE_EQ(r.extra_memory, 0.0);  // reordering is free (§3.2.1)
}

TEST(Estimate, HigherDropRateGivesBiggerReorderGain) {
    cost::CostModel model(params(), no_instr());
    double prev_gain = -1.0;
    for (double rate : {0.25, 0.5, 0.75}) {
        PipeletCase s = make_chain({0.0, 0.0, rate});
        PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);
        CandidateLayout l = identity(3);
        l.order = {2, 0, 1};
        double gain = ev.baseline_latency() - ev.evaluate(l).latency;
        EXPECT_GT(gain, prev_gain);
        prev_gain = gain;
    }
}

TEST(Estimate, InvalidOrderRejected) {
    // Create a dependency: t0 writes the field t1 matches on.
    ProgramBuilder b("dep");
    ir::Action w;
    w.name = "w";
    w.primitives.push_back(ir::Primitive::set_const("k1", 1));
    b.append(TableSpec("t0").key("k0").action(w).build());
    b.append(TableSpec("t1").key("k1").noop_action("n").build());
    Program p = b.build();
    profile::RuntimeProfile prof;
    prof.reset_for(p, 1.0);
    auto pipelets = analysis::form_pipelets(p);
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(p, pipelets[0], prof, model);

    CandidateLayout swapped;
    swapped.order = {1, 0};
    EXPECT_FALSE(ev.evaluate(swapped).valid);
}

PipeletCase make_ternary_chain(std::size_t n) {
    ProgramBuilder b("tern");
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
        s.profile.table(static_cast<NodeId>(i)).entry_count = 50;
        s.profile.table(static_cast<NodeId>(i)).ternary_mask_count = 5;
    }
    s.pipelet = analysis::form_pipelets(s.program).at(0);
    return s;
}

TEST(Estimate, CachingComplexTablesHelps) {
    PipeletCase s = make_ternary_chain(3);
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);

    CandidateLayout cached = identity(3);
    cached.caches = {Segment{0, 2}};
    EvalResult r = ev.evaluate(cached);
    ASSERT_TRUE(r.valid);
    // Baseline: 3 * (5*10 + 1) = 153. Cache: 10 + 0.9*3 + 0.1*153 ≈ 28.
    EXPECT_LT(r.latency, 0.3 * ev.baseline_latency());
    EXPECT_GT(r.extra_memory, 0.0);  // reserved cache budget
}

TEST(Estimate, MeasuredLowHitRateKillsCacheGain) {
    PipeletCase s = make_ternary_chain(3);
    // Pretend a deployed cache over these tables is missing 90% of the time.
    for (NodeId id : {0, 1, 2}) {
        s.profile.table(id).cache_hits = 100;
        s.profile.table(id).cache_misses = 900;
    }
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);
    CandidateLayout cached = identity(3);
    cached.caches = {Segment{0, 2}};
    EvalResult r = ev.evaluate(cached);
    ASSERT_TRUE(r.valid);
    // With h = 0.1 the cache barely helps (pays lookup + 90% full path).
    EXPECT_GT(r.latency, 0.9 * ev.baseline_latency());
}

TEST(Estimate, UpdateRateDecaysPredictedHitRate) {
    PipeletCase quiet = make_ternary_chain(2);
    PipeletCase churny = make_ternary_chain(2);
    churny.profile.table(0).entry_updates = 1000;  // 1000 updates / 1 s window
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev_q(quiet.program, quiet.pipelet, quiet.profile, model);
    PipeletEvaluator ev_c(churny.program, churny.pipelet, churny.profile, model);
    CandidateLayout cached = identity(2);
    cached.caches = {Segment{0, 1}};
    EXPECT_LT(ev_q.evaluate(cached).latency, ev_c.evaluate(cached).latency);
}

TEST(Estimate, NaiveExactMergeCanRegress) {
    // Two exact tables with few actions: full merge turns them ternary
    // (m = 4 > 2 exact lookups), so latency gets WORSE — the Fig 6 pitfall.
    PipeletCase s = make_chain({0.0, 0.0});
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);
    CandidateLayout merged = identity(2);
    merged.merges = {MergeSpec{Segment{0, 1}, /*as_cache=*/false}};
    EvalResult r = ev.evaluate(merged);
    ASSERT_TRUE(r.valid);
    EXPECT_GT(r.latency, ev.baseline_latency());
}

TEST(Estimate, MergeAsCacheHelpsExactTables) {
    PipeletCase s = make_chain({0.0, 0.0});
    // No misses recorded -> miss_prob 0 -> hit rate 1 for the merged cache.
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);
    CandidateLayout merged = identity(2);
    merged.merges = {MergeSpec{Segment{0, 1}, /*as_cache=*/true}};
    EvalResult r = ev.evaluate(merged);
    ASSERT_TRUE(r.valid);
    // One exact lookup + both actions instead of two lookups.
    EXPECT_LT(r.latency, ev.baseline_latency());
    EXPECT_GT(r.extra_memory, 0.0);
}

TEST(Estimate, MergeAmplifiesUpdates) {
    PipeletCase s = make_chain({0.0, 0.0});
    s.profile.table(0).entry_updates = 10;
    s.profile.table(0).entry_count = 100;
    s.profile.table(1).entry_count = 1000;
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);
    CandidateLayout merged = identity(2);
    merged.merges = {MergeSpec{Segment{0, 1}, true}};
    EvalResult r = ev.evaluate(merged);
    ASSERT_TRUE(r.valid);
    // I(T_AB) >= I_A * N_B = 10 * 1000.
    EXPECT_GE(r.extra_updates, 10000.0);
}

TEST(Estimate, OverlappingSegmentsRejected) {
    PipeletCase s = make_chain({0.0, 0.0, 0.0});
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);
    CandidateLayout bad = identity(3);
    bad.caches = {Segment{0, 1}};
    bad.merges = {MergeSpec{Segment{1, 2}, false}};
    EXPECT_FALSE(ev.evaluate(bad).valid);
}

TEST(Estimate, SingleTableMergeRejected) {
    PipeletCase s = make_chain({0.0, 0.0});
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);
    CandidateLayout bad = identity(2);
    bad.merges = {MergeSpec{Segment{0, 0}, false}};
    EXPECT_FALSE(ev.evaluate(bad).valid);
}

TEST(Estimate, TrafficRateFromWindow) {
    PipeletCase s = make_chain({0.0});
    s.profile.set_window_seconds(2.0);
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);
    EXPECT_DOUBLE_EQ(ev.traffic_rate(), 500.0);  // 1000 lookups / 2 s
}

TEST(Estimate, MatrixLegalityMatchesApplyTimeChecks) {
    // The evaluator answers run legality from its dependency matrix and
    // per-table flags; opt::cacheable and opt::mergeable (plus pairwise
    // independence) are the apply-time rules it must agree with.
    cost::CostModel model(params(), no_instr());
    int verdicts[2][2] = {};  // [cache/merge][rejected/accepted]
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Program program = test_support::dependent_program(seed, 6, 5);
        profile::RuntimeProfile prof =
            synth::ProfileSynthesizer(synth::heavy_drop_config(), seed)
                .generate(program);
        util::Rng rng(seed);
        for (const analysis::Pipelet& pl : analysis::form_pipelets(program)) {
            if (pl.is_switch_case) continue;
            PipeletEvaluator ev(program, pl, prof, model);
            const std::size_t n = ev.size();
            auto orders = ev.deps().valid_orders(64);
            rng.shuffle(orders);
            orders.resize(std::min<std::size_t>(orders.size(), 4));
            for (const auto& order : orders) {
                for (std::size_t a = 0; a < n; ++a) {
                    for (std::size_t b = a; b < n; ++b) {
                        std::vector<const ir::Table*> covered;
                        for (std::size_t p = a; p <= b; ++p) {
                            covered.push_back(&ev.table(order[p]));
                        }
                        bool independent = true;
                        for (std::size_t x = 0; x < covered.size(); ++x) {
                            for (std::size_t y = x + 1; y < covered.size(); ++y) {
                                if (!analysis::independent(*covered[x], *covered[y])) {
                                    independent = false;
                                }
                            }
                        }
                        Segment seg{a, b};
                        bool cache = cacheable(covered);
                        EXPECT_EQ(ev.can_cache_segment(order, seg), cache)
                            << "seed " << seed << " run " << a << "-" << b;
                        ++verdicts[0][cache];
                        for (bool as_cache : {false, true}) {
                            bool merge = mergeable(covered, as_cache) && independent;
                            EXPECT_EQ(ev.can_merge_segment(order, seg, as_cache), merge)
                                << "seed " << seed << " run " << a << "-" << b;
                            ++verdicts[1][merge];
                        }
                    }
                }
            }
        }
    }
    // Both answers occur for both techniques.
    EXPECT_GT(verdicts[0][0], 0);
    EXPECT_GT(verdicts[0][1], 0);
    EXPECT_GT(verdicts[1][0], 0);
    EXPECT_GT(verdicts[1][1], 0);
}

}  // namespace
}  // namespace pipeleon::opt
