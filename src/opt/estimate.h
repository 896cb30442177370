// opt/estimate.h — cost-model evaluation of candidate layouts. For each
// candidate the evaluator computes the transformed pipelet's expected
// latency (with drop truncation), plus the additional memory and entry-
// update bandwidth it would consume — the three quantities the global
// knapsack search trades off (Eq. 5). Evaluation is purely analytic: no
// program is materialized, which is what keeps the search fast enough for
// sub-minute runtime reoptimization (§5.4.2).
//
// A layout is costed by walking its runs left to right — plain table, cache
// run, merge run — with one step function per kind. evaluate() is the
// checked single-layout API: it validates the whole layout, then walks it.
// The candidate search calls the same steps incrementally, carrying a
// prefix's PrefixCost down its enumeration, and asks run legality from the
// pipelet's dependency matrix and per-table flags (can_cache_segment,
// can_merge_segment), so both paths produce bit-identical verdicts.
#pragma once

#include <vector>

#include "analysis/dependency.h"
#include "analysis/pipelet.h"
#include "cost/model.h"
#include "ir/program.h"
#include "opt/candidate.h"
#include "profile/profile.h"

namespace pipeleon::opt {

/// Outcome of evaluating one candidate layout.
struct EvalResult {
    bool valid = false;
    double latency = 0.0;        ///< expected L(G') of the transformed pipelet
    double extra_memory = 0.0;   ///< additional bytes vs. the baseline
    double extra_updates = 0.0;  ///< additional entry updates/sec vs. baseline
};

/// The totals of a layout walk after its leftmost runs, accumulated in
/// walk order. `extra_memory` and `extra_updates` are not yet clamped at 0;
/// PipeletEvaluator::finish does that once the walk is complete.
struct PrefixCost {
    double survive = 1.0;  ///< share of packets reaching the next position
    double latency = 0.0;
    double extra_memory = 0.0;
    double extra_updates = 0.0;
};

/// Evaluates candidate layouts for a single pipelet.
class PipeletEvaluator {
public:
    PipeletEvaluator(const ir::Program& program, const analysis::Pipelet& pipelet,
                     const profile::RuntimeProfile& profile,
                     const cost::CostModel& model);

    std::size_t size() const { return tables_.size(); }
    const analysis::DependencyGraph& deps() const { return deps_; }
    const ir::Table& table(std::size_t original_pos) const {
        return tables_[original_pos];
    }

    /// L(G') of the unmodified pipelet.
    double baseline_latency() const;

    /// Measured drop probability of the table at an original position.
    double drop_probability(std::size_t original_pos) const {
        return info_[original_pos].drop_prob;
    }

    /// A dependency-respecting order that greedily places the highest-drop
    /// table next (§3.2.1: "promotes tables with higher dropping rates to
    /// earlier parts of the program"). With 64+-permutation pipelets the
    /// exhaustive order enumeration cannot reach such orders within its cap,
    /// so the search seeds its order list with this one.
    std::vector<std::size_t> greedy_drop_order() const;

    /// Packets per second entering the pipelet during the profile window.
    double traffic_rate() const { return traffic_rate_; }

    /// Full legality + cost evaluation of a layout: the checked
    /// single-layout API, and the reference the candidate search is tested
    /// against.
    EvalResult evaluate(const CandidateLayout& layout) const;

    /// Segment legality (already mapped through `order`), answered from the
    /// dependency matrix: the run may be cached when opt::cacheable would
    /// accept its tables, merged when opt::mergeable would and they are
    /// pairwise independent.
    bool can_cache_segment(const std::vector<std::size_t>& order,
                           const Segment& seg) const;
    bool can_merge_segment(const std::vector<std::size_t>& order,
                           const Segment& seg, bool as_cache) const;

    /// The walk's steps: `prefix` extended by the next run of a layout with
    /// `order` — the plain table at position `pos`, a cache run, or a merge
    /// run. They cost the run; legality is the caller's job.
    PrefixCost add_plain(const PrefixCost& prefix,
                         const std::vector<std::size_t>& order,
                         std::size_t pos) const;
    PrefixCost add_cache(const PrefixCost& prefix,
                         const std::vector<std::size_t>& order,
                         const Segment& seg, const ir::CacheConfig& config) const;
    PrefixCost add_merge(const PrefixCost& prefix,
                         const std::vector<std::size_t>& order,
                         const MergeSpec& merge) const;
    /// The verdict on a legal layout whose runs have all been added.
    static EvalResult finish(const PrefixCost& total);

private:
    /// Cost-model facts about one table, precomputed per original position.
    struct Info {
        double match_cost = 0.0;   ///< m * L_mat
        double action_cost = 0.0;  ///< Σ P(a) n_a L_act
        double instr_cost = 0.0;   ///< counter update share
        double drop_prob = 0.0;
        double miss_prob = 0.0;
        double entries = 1.0;
        double update_rate = 0.0;
        double entry_bytes = 0.0;  ///< key bytes + overhead
        double memory = 0.0;       ///< current M(v)
        int m = 1;
        bool exact = true;
        bool optimizable = true;  ///< Original-role table
        bool mergeable = false;           ///< opt::mergeable_table(t, false)
        bool mergeable_as_cache = false;  ///< opt::mergeable_table(t, true)
        /// Measured cache statistics attributed to this table (non-zero only
        /// when a deployed cache currently covers it).
        std::uint64_t cache_hits = 0;
        std::uint64_t cache_misses = 0;
        /// Update rate across the covering cache's whole origin set; when
        /// high, the measured hit rate is churn noise (contaminated).
        double covering_update_rate = 0.0;
    };

    /// A run's back-to-back cost with drop truncation inside it, its
    /// hit-path action replay cost, and its combined drop probability.
    struct RunEval {
        double run_cost = 0.0;
        double action_replay = 0.0;
        double combined_drop = 0.0;
    };
    RunEval eval_run(const std::vector<std::size_t>& order, const Segment& seg) const;

    /// Predicted hit rate for a cache over the run's tables: the measured
    /// rate when one is deployed, otherwise the default decayed by the
    /// covered tables' update rates (invalidation model).
    double segment_hit_rate(const std::vector<std::size_t>& order,
                            const Segment& seg) const;

    double node_cost(const Info& info) const {
        return info.match_cost + info.action_cost + info.instr_cost;
    }

    std::vector<ir::Table> tables_;  // by original position
    std::vector<Info> info_;
    analysis::DependencyGraph deps_;
    cost::CostParams params_;
    double instr_cost_ = 0.0;
    double traffic_rate_ = 0.0;
};

}  // namespace pipeleon::opt
