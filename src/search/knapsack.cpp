#include "search/knapsack.h"

#include <algorithm>
#include <cmath>

namespace pipeleon::search {

using opt::Candidate;

namespace {

GlobalPlan pick_best_per_group(const std::vector<std::vector<Candidate>>& groups) {
    GlobalPlan plan;
    plan.chosen.assign(groups.size(), -1);
    for (std::size_t g = 0; g < groups.size(); ++g) {
        int best = -1;
        double best_gain = 0.0;
        for (std::size_t c = 0; c < groups[g].size(); ++c) {
            if (groups[g][c].gain > best_gain) {
                best_gain = groups[g][c].gain;
                best = static_cast<int>(c);
            }
        }
        plan.chosen[g] = best;
        if (best >= 0) {
            plan.total_gain += groups[g][static_cast<std::size_t>(best)].gain;
            plan.memory_used +=
                groups[g][static_cast<std::size_t>(best)].memory_cost;
            plan.updates_used +=
                groups[g][static_cast<std::size_t>(best)].update_cost;
        }
    }
    return plan;
}

}  // namespace

GlobalPlan global_optimize(const std::vector<std::vector<Candidate>>& groups,
                           const ResourceLimits& limits,
                           const KnapsackOptions& options) {
    if (limits.unconstrained()) return pick_best_per_group(groups);

    const std::size_t mg =
        std::isfinite(limits.memory_bytes) ? std::max<std::size_t>(1, options.memory_grid) : 1;
    const std::size_t eg =
        std::isfinite(limits.updates_per_sec) ? std::max<std::size_t>(1, options.update_grid) : 1;
    const double mem_cell =
        std::isfinite(limits.memory_bytes) ? limits.memory_bytes / static_cast<double>(mg) : 0.0;
    const double upd_cell =
        std::isfinite(limits.updates_per_sec) ? limits.updates_per_sec / static_cast<double>(eg) : 0.0;

    // Conservative rounding: a candidate occupies ceil(cost / cell) cells,
    // so the reconstructed plan can never exceed the true limits.
    auto cells = [](double cost, double cell, std::size_t grid) -> std::ptrdiff_t {
        if (cell <= 0.0) return 0;  // unconstrained axis
        if (cost <= 0.0) return 0;
        double c = std::ceil(cost / cell);
        if (c > static_cast<double>(grid)) return -1;  // never fits
        return static_cast<std::ptrdiff_t>(c);
    };

    const std::size_t cells_total = (mg + 1) * (eg + 1);
    std::vector<double> dp(cells_total, 0.0);
    // choice[g][m*(eg+1)+e] = candidate picked for group g at that budget.
    std::vector<std::vector<int>> choice(groups.size(),
                                         std::vector<int>(cells_total, -1));

    auto at = [eg](std::size_t m, std::size_t e) { return m * (eg + 1) + e; };

    for (std::size_t g = 0; g < groups.size(); ++g) {
        std::vector<double> next = dp;  // default: pick nothing for group g
        for (std::size_t c = 0; c < groups[g].size(); ++c) {
            const Candidate& cand = groups[g][c];
            if (cand.gain <= 0.0) continue;
            std::ptrdiff_t cm = cells(cand.memory_cost, mem_cell, mg);
            std::ptrdiff_t ce = cells(cand.update_cost, upd_cell, eg);
            if (cm < 0 || ce < 0) continue;
            for (std::size_t m = static_cast<std::size_t>(cm); m <= mg; ++m) {
                for (std::size_t e = static_cast<std::size_t>(ce); e <= eg; ++e) {
                    double v = dp[at(m - static_cast<std::size_t>(cm),
                                     e - static_cast<std::size_t>(ce))] +
                               cand.gain;
                    if (v > next[at(m, e)]) {
                        next[at(m, e)] = v;
                        choice[g][at(m, e)] = static_cast<int>(c);
                    }
                }
            }
        }
        dp = std::move(next);
    }

    // Reconstruct from the full-budget cell.
    GlobalPlan plan;
    plan.chosen.assign(groups.size(), -1);
    std::size_t m = mg, e = eg;
    for (std::size_t gi = groups.size(); gi-- > 0;) {
        int c = choice[gi][at(m, e)];
        plan.chosen[gi] = c;
        if (c < 0) continue;
        const Candidate& cand = groups[gi][static_cast<std::size_t>(c)];
        plan.total_gain += cand.gain;
        plan.memory_used += cand.memory_cost;
        plan.updates_used += cand.update_cost;
        m -= static_cast<std::size_t>(cells(cand.memory_cost, mem_cell, mg));
        e -= static_cast<std::size_t>(cells(cand.update_cost, upd_cell, eg));
    }
    return plan;
}

}  // namespace pipeleon::search
