#include "search/enumerate.h"

#include <algorithm>
#include <functional>

namespace pipeleon::search {

using opt::Candidate;
using opt::CandidateLayout;
using opt::MergeSpec;
using opt::PipeletEvaluator;
using opt::PrefixCost;
using opt::Segment;

std::vector<Candidate> enumerate_candidates(const PipeletEvaluator& evaluator,
                                            int pipelet_id,
                                            double reach_probability,
                                            const SearchOptions& options) {
    std::vector<Candidate> out;
    const std::size_t n = evaluator.size();
    if (n == 0) return out;

    double baseline = evaluator.baseline_latency();

    // Orders to consider: the identity, the greedy drop-promoting order
    // (reachable even when the permutation cap cannot), then all
    // dependency-respecting permutations up to the cap.
    std::vector<std::vector<std::size_t>> orders;
    std::vector<std::size_t> identity(n);
    for (std::size_t i = 0; i < n; ++i) identity[i] = i;
    orders.push_back(identity);
    if (options.allow_reorder) {
        std::vector<std::size_t> greedy = evaluator.greedy_drop_order();
        if (greedy != identity) orders.push_back(std::move(greedy));
        for (auto& order : evaluator.deps().valid_orders(options.max_orders)) {
            if (std::find(orders.begin(), orders.end(), order) == orders.end()) {
                orders.push_back(std::move(order));
            }
        }
    }

    CandidateLayout layout;
    layout.cache_config = options.cache_config;

    // A complete labeling: every run passed the evaluator's legality check,
    // so this is a layout evaluate() accepts, and `cost` is its walk.
    auto consider = [&](const PrefixCost& cost) {
        if (layout.is_identity()) return;
        opt::EvalResult eval = PipeletEvaluator::finish(cost);
        double latency_gain = baseline - eval.latency;
        if (latency_gain < options.min_latency_gain) return;
        Candidate c;
        c.pipelet_id = pipelet_id;
        c.layout = layout;
        c.gain = latency_gain * reach_probability;
        c.memory_cost = eval.extra_memory;
        c.update_cost = eval.extra_updates;
        out.push_back(std::move(c));
    };

    // Recursive labeling of positions: start a cache run (longest first, so
    // high-coverage candidates are reached before any enumeration cap), a
    // merge run (both flavors), or leave the position plain. Runs are
    // disjoint by construction. A run the evaluator rejects is skipped, since
    // evaluate() rejects every layout containing it. `cost` is the walk of
    // the runs left of p, so each layout adds only its last run.
    std::function<void(std::size_t, const PrefixCost&)> label;
    label = [&](std::size_t p, const PrefixCost& cost) {
        if (out.size() >= options.max_candidates) return;
        if (p >= n) {
            consider(cost);
            return;
        }
        const std::vector<std::size_t>& order = layout.order;
        if (options.allow_cache) {
            for (std::size_t q = n; q-- > p;) {
                Segment seg{p, q};
                if (!evaluator.can_cache_segment(order, seg)) continue;
                layout.caches.push_back(seg);
                label(q + 1, evaluator.add_cache(cost, order, seg, layout.cache_config));
                layout.caches.pop_back();
            }
        }
        if (options.allow_merge && options.max_merge_len >= 2) {
            std::size_t max_q = std::min(n - 1, p + options.max_merge_len - 1);
            for (std::size_t q = p + 1; q <= max_q; ++q) {
                for (bool as_cache : {false, true}) {
                    MergeSpec merge{Segment{p, q}, as_cache};
                    if (!evaluator.can_merge_segment(order, merge.seg, as_cache)) {
                        continue;
                    }
                    layout.merges.push_back(merge);
                    label(q + 1, evaluator.add_merge(cost, order, merge));
                    layout.merges.pop_back();
                }
            }
        }
        // Position stays plain.
        label(p + 1, evaluator.add_plain(cost, order, p));
    };

    for (const auto& order : orders) {
        if (!evaluator.deps().order_is_valid(order)) continue;
        layout.order = order;
        label(0, PrefixCost{});
        if (out.size() >= options.max_candidates) break;
    }

    // Highest gain first: deterministic and friendly to greedy fallbacks.
    std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
        return a.gain > b.gain;
    });
    return out;
}

}  // namespace pipeleon::search
