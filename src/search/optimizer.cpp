#include "search/optimizer.h"

#include <chrono>

#include "analysis/diagnostics.h"
#include "util/logging.h"
#include "util/strings.h"

namespace pipeleon::search {

using analysis::Pipelet;
using analysis::ScoredPipelet;
using ir::Program;

Optimizer::Optimizer(cost::CostModel model, OptimizerConfig config)
    : model_(std::move(model)), config_(std::move(config)) {}

OptimizationOutcome Optimizer::optimize(
    const Program& original, const profile::RuntimeProfile& profile) const {
    auto t0 = std::chrono::steady_clock::now();
    OptimizationOutcome out;
    out.optimized = original;

    std::vector<Pipelet> pipelets = analysis::form_pipelets(original, config_.pipelet);
    out.pipelet_count = pipelets.size();
    if (pipelets.empty()) return out;

    out.baseline_latency = model_.expected_latency(original, profile);

    // Hot pipelet detection: L(G') * P(G') ranking (§4.1.2).
    out.hot_pipelets = analysis::top_k_pipelets(
        original, pipelets, profile, config_.top_k_fraction,
        [&](const Pipelet& p) {
            return model_.pipelet_latency(original, p, profile);
        });

    // Local search per hot pipelet.
    std::vector<std::vector<opt::Candidate>> groups;
    groups.reserve(out.hot_pipelets.size());
    for (const ScoredPipelet& hot : out.hot_pipelets) {
        const Pipelet& p = pipelets[static_cast<std::size_t>(hot.pipelet_id)];
        if (p.is_switch_case) {
            groups.emplace_back();  // not transformable; keep group indexing
            continue;
        }
        opt::PipeletEvaluator evaluator(original, p, profile, model_);
        std::vector<opt::Candidate> cands = enumerate_candidates(
            evaluator, hot.pipelet_id, hot.reach_probability, config_.search);
        out.candidates_evaluated += cands.size();
        groups.push_back(std::move(cands));
    }

    // Global knapsack over the per-pipelet candidate groups.
    GlobalPlan plan = global_optimize(groups, config_.limits, config_.knapsack);
    out.memory_used = plan.memory_used;
    out.updates_used = plan.updates_used;

    for (std::size_t g = 0; g < groups.size(); ++g) {
        if (plan.chosen[g] < 0) continue;
        const opt::Candidate& cand =
            groups[g][static_cast<std::size_t>(plan.chosen[g])];
        opt::PipeletPlan chosen{cand.pipelet_id, cand.layout};
        // Translation-validate the candidate's applied form before adopting
        // it (ISSUE 2): a plan the verifier rejects is dropped — and its
        // budget refunded — instead of surfacing as an exception from a
        // background optimization round.
        if (analysis::verify_mode() != analysis::VerifyMode::Off) {
            try {
                opt::apply_plan(original, pipelets, chosen,
                                analysis::VerifyMode::Full);
            } catch (const analysis::VerifyError& e) {
                ++out.plans_rejected;
                out.memory_used -= cand.memory_cost;
                out.updates_used -= cand.update_cost;
                plan.total_gain -= cand.gain;
                util::log_warn(util::format(
                    "pipelet %d: candidate %s rejected by verifier: %s",
                    cand.pipelet_id, cand.layout.to_string().c_str(),
                    e.diagnostics().to_string().c_str()));
                continue;
            }
        }
        out.plans.push_back(std::move(chosen));
        util::log_info(util::format(
            "pipelet %d: %s (gain %.2f, mem %.0f B, upd %.1f/s)",
            cand.pipelet_id, cand.layout.to_string().c_str(), cand.gain,
            cand.memory_cost, cand.update_cost));
    }

    // Optional cross-pipelet group analysis (§5.4.4).
    if (config_.enable_groups) {
        std::vector<analysis::PipeletGroup> diamond_groups =
            analysis::find_pipelet_groups(original, pipelets);
        std::vector<int> selected;
        for (const ScoredPipelet& hot : out.hot_pipelets) {
            selected.push_back(hot.pipelet_id);
        }
        for (const GroupOpportunity& opp :
             evaluate_groups(original, pipelets, diamond_groups, selected,
                             profile, model_, config_.search)) {
            out.group_extra_gain += opp.extra_gain;
        }
    }

    if (!out.plans.empty()) {
        try {
            out.optimized = opt::apply_plans(original, pipelets, out.plans);
        } catch (const analysis::VerifyError& e) {
            // Every plan passed individually, so a combined failure means
            // cross-plan interference; keep the unoptimized program rather
            // than deploying an unverified layout.
            util::log_warn(util::format(
                "combined plan rejected by verifier; keeping the original "
                "program: %s",
                e.diagnostics().to_string().c_str()));
            out.plans_rejected += out.plans.size();
            out.plans.clear();
            out.optimized = original;
            out.memory_used = 0.0;
            out.updates_used = 0.0;
            plan.total_gain = 0.0;
        }
    }
    out.predicted_gain = plan.total_gain;
    out.predicted_latency = out.baseline_latency - plan.total_gain;

    out.search_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return out;
}

}  // namespace pipeleon::search
