#include "opt/estimate.h"

#include <algorithm>
#include <cmath>

#include "opt/merge.h"

namespace pipeleon::opt {

namespace {

std::vector<ir::Table> extract_tables(const ir::Program& program,
                                      const analysis::Pipelet& pipelet) {
    std::vector<ir::Table> tables;
    tables.reserve(pipelet.nodes.size());
    for (ir::NodeId id : pipelet.nodes) tables.push_back(program.node(id).table);
    return tables;
}

}  // namespace

PipeletEvaluator::PipeletEvaluator(const ir::Program& program,
                                   const analysis::Pipelet& pipelet,
                                   const profile::RuntimeProfile& profile,
                                   const cost::CostModel& model)
    : tables_(extract_tables(program, pipelet)),
      deps_(tables_),
      params_(model.params()) {
    instr_cost_ = model.instrumentation().enabled
                      ? params_.l_counter * model.instrumentation().sampling_rate
                      : 0.0;
    info_.reserve(tables_.size());
    for (std::size_t p = 0; p < tables_.size(); ++p) {
        const ir::Node& node = program.node(pipelet.nodes[p]);
        const profile::TableStats& stats = profile.table(node.id);
        Info in;
        in.match_cost = model.match_cost(node.table, stats);
        in.action_cost = model.action_cost(node, profile);
        in.instr_cost = instr_cost_;
        in.drop_prob = profile.drop_probability(node);
        in.miss_prob = profile.miss_probability(node);
        in.entries = static_cast<double>(
            std::max<std::size_t>(1, stats.entry_count));
        in.update_rate = profile.update_rate(node.id);
        in.entry_bytes = static_cast<double>(node.table.key_width_bits()) / 8.0 +
                         static_cast<double>(params_.entry_overhead_bytes);
        in.memory = model.memory_bytes(node.table, stats);
        in.m = model.m_multiplier(node.table, stats);
        in.exact = node.table.effective_match_kind() == ir::MatchKind::Exact;
        in.optimizable = node.table.role == ir::TableRole::Original;
        in.mergeable = mergeable_table(node.table, /*as_cache=*/false);
        in.mergeable_as_cache = mergeable_table(node.table, /*as_cache=*/true);
        in.cache_hits = stats.cache_hits;
        in.cache_misses = stats.cache_misses;
        in.covering_update_rate = stats.covering_update_rate;
        info_.push_back(in);
    }
    if (!pipelet.nodes.empty() && profile.window_seconds() > 0.0) {
        traffic_rate_ =
            static_cast<double>(profile.table(pipelet.nodes.front()).lookups()) /
            profile.window_seconds();
    }
}

std::vector<std::size_t> PipeletEvaluator::greedy_drop_order() const {
    const std::size_t n = info_.size();
    std::vector<std::size_t> order;
    std::vector<bool> placed(n, false);
    while (order.size() < n) {
        std::size_t best = n;
        for (std::size_t p = 0; p < n; ++p) {
            if (placed[p]) continue;
            // p may be placed only after every unplaced q < p it depends on.
            bool ready = true;
            for (std::size_t q = 0; q < p && ready; ++q) {
                if (!placed[q] && deps_.dependent(q, p)) ready = false;
            }
            if (!ready) continue;
            if (best == n || info_[p].drop_prob > info_[best].drop_prob) {
                best = p;
            }
        }
        placed[best] = true;
        order.push_back(best);
    }
    return order;
}

PipeletEvaluator::RunEval PipeletEvaluator::eval_run(
    const std::vector<std::size_t>& order, const Segment& seg) const {
    RunEval r;
    double s = 1.0;
    for (std::size_t p = seg.first; p <= seg.last; ++p) {
        const Info& in = info_[order[p]];
        r.run_cost += s * node_cost(in);
        r.action_replay += s * in.action_cost;
        s *= 1.0 - in.drop_prob;
    }
    r.combined_drop = 1.0 - s;
    return r;
}

double PipeletEvaluator::segment_hit_rate(const std::vector<std::size_t>& order,
                                          const Segment& seg) const {
    std::uint64_t hits = 0, misses = 0;
    double update_rate = 0.0;
    double covering_rate = 0.0;
    for (std::size_t p = seg.first; p <= seg.last; ++p) {
        const Info& in = info_[order[p]];
        hits += in.cache_hits;
        misses += in.cache_misses;
        update_rate += in.update_rate;
        covering_rate = std::max(covering_rate, in.covering_update_rate);
    }
    // The candidate's own covered update rate always applies as an
    // invalidation discount: every covered-table entry update clears the
    // whole cache. When the segment is churny, that discount is the signal
    // and any measured hit rate is churn noise (and may even have been
    // produced by a deployed cache with different coverage); when the
    // segment is quiet, a measured hit rate from a covering cache refines
    // the default ("continuously monitors its actual performance") — e.g. a
    // cache collapsing under low traffic locality is detected here.
    double discount = 1.0 + params_.cache_invalidation_penalty * update_rate;
    bool churn_dominated = discount > 1.5;
    // A measurement is only meaningful when neither this segment nor the
    // cache that produced the measurement was churning: a collapsed hit
    // rate caused by some other covered table must not condemn this one.
    bool measurement_contaminated =
        1.0 + params_.cache_invalidation_penalty * covering_rate > 1.5;
    double base = params_.default_cache_hit_rate;
    if (!churn_dominated && !measurement_contaminated && hits + misses > 0) {
        base = static_cast<double>(hits) / static_cast<double>(hits + misses);
    }
    return base / discount;
}

double PipeletEvaluator::baseline_latency() const {
    double survive = 1.0;
    double total = 0.0;
    for (const Info& in : info_) {
        total += survive * node_cost(in);
        survive *= 1.0 - in.drop_prob;
    }
    return total;
}

bool PipeletEvaluator::can_cache_segment(const std::vector<std::size_t>& order,
                                         const Segment& seg) const {
    if (seg.first > seg.last) return false;
    for (std::size_t x = seg.first; x <= seg.last; ++x) {
        if (!info_[order[x]].optimizable) return false;
        // opt::cacheable's rule: the cache looks every key field up before
        // any covered action runs, so no table may write a later one's key.
        for (std::size_t y = x + 1; y <= seg.last; ++y) {
            if (deps_.kind(order[x], order[y]) == analysis::DependencyKind::Match) {
                return false;
            }
        }
    }
    return true;
}

bool PipeletEvaluator::can_merge_segment(const std::vector<std::size_t>& order,
                                         const Segment& seg, bool as_cache) const {
    if (seg.last <= seg.first) return false;  // a merge needs two tables
    for (std::size_t x = seg.first; x <= seg.last; ++x) {
        const Info& in = info_[order[x]];
        if (!(as_cache ? in.mergeable_as_cache : in.mergeable)) return false;
        // Merged tables perform every component's match in one lookup: the
        // components must be pairwise independent.
        for (std::size_t y = x + 1; y <= seg.last; ++y) {
            if (deps_.dependent(order[x], order[y])) return false;
        }
    }
    return true;
}

PrefixCost PipeletEvaluator::add_plain(const PrefixCost& prefix,
                                       const std::vector<std::size_t>& order,
                                       std::size_t pos) const {
    const Info& in = info_[order[pos]];
    PrefixCost c = prefix;
    c.latency += c.survive * node_cost(in);
    c.survive *= 1.0 - in.drop_prob;
    return c;
}

PrefixCost PipeletEvaluator::add_cache(const PrefixCost& prefix,
                                       const std::vector<std::size_t>& order,
                                       const Segment& seg,
                                       const ir::CacheConfig& config) const {
    PrefixCost c = prefix;
    RunEval run = eval_run(order, seg);
    double h = segment_hit_rate(order, seg);
    double cost = params_.l_mat + instr_cost_ + h * run.action_replay +
                  (1.0 - h) * run.run_cost;
    c.latency += c.survive * cost;

    // Reserved cache budget (fixed, LRU beyond): capacity × entry.
    double key_bytes = 0.0;
    for (std::size_t p = seg.first; p <= seg.last; ++p) {
        key_bytes += info_[order[p]].entry_bytes;
    }
    c.extra_memory += static_cast<double>(config.capacity) * key_bytes;
    // Insertions happen on misses, capped by the rate limit; the miss
    // traffic is the share that reaches this segment at all.
    double miss_rate = (1.0 - h) * traffic_rate_ * c.survive;
    c.extra_updates += std::min(config.max_insert_per_sec, miss_rate);
    c.survive *= 1.0 - run.combined_drop;
    return c;
}

PrefixCost PipeletEvaluator::add_merge(const PrefixCost& prefix,
                                       const std::vector<std::size_t>& order,
                                       const MergeSpec& merge) const {
    PrefixCost c = prefix;
    const Segment& seg = merge.seg;
    RunEval run = eval_run(order, seg);
    double act_sum = 0.0;
    double entry_bytes = 0.0;
    std::vector<double> entry_counts, update_rates;
    double removed_memory = 0.0, removed_updates = 0.0;
    for (std::size_t p = seg.first; p <= seg.last; ++p) {
        const Info& in = info_[order[p]];
        act_sum += in.action_cost;
        entry_bytes += in.entry_bytes;
        entry_counts.push_back(in.entries);
        update_rates.push_back(in.update_rate);
        removed_memory += in.memory;
        removed_updates += in.update_rate;
    }
    double merged_entries = estimated_merged_entries(entry_counts);
    double merged_updates = estimated_merged_update_rate(entry_counts, update_rates);

    if (merge.as_cache) {
        // Exact merged cache; hit iff every component hits.
        double h = 1.0;
        for (std::size_t p = seg.first; p <= seg.last; ++p) {
            h *= 1.0 - info_[order[p]].miss_prob;
        }
        double cost = params_.l_mat + instr_cost_ + h * act_sum +
                      (1.0 - h) * run.run_cost;
        c.latency += c.survive * cost;
        c.extra_memory += merged_entries * entry_bytes;  // originals stay
        c.extra_updates += merged_updates;
    } else {
        // Full merge becomes a wider (usually ternary) table.
        double m_product = 1.0;
        for (std::size_t p = seg.first; p <= seg.last; ++p) {
            const Info& in = info_[order[p]];
            m_product *= static_cast<double>(in.exact ? 2 : in.m + 1);
        }
        double m_ab = std::min(m_product, static_cast<double>(params_.max_m));
        double cost = m_ab * params_.l_mat + instr_cost_ + act_sum;
        c.latency += c.survive * cost;
        c.extra_memory += merged_entries * entry_bytes * m_ab - removed_memory;
        c.extra_updates += merged_updates - removed_updates;
    }
    c.survive *= 1.0 - run.combined_drop;
    return c;
}

EvalResult PipeletEvaluator::finish(const PrefixCost& total) {
    EvalResult result;
    result.valid = true;
    result.latency = total.latency;
    result.extra_memory = std::max(0.0, total.extra_memory);
    result.extra_updates = std::max(0.0, total.extra_updates);
    return result;
}

EvalResult PipeletEvaluator::evaluate(const CandidateLayout& layout) const {
    const std::size_t n = tables_.size();
    if (layout.order.size() != n || !layout.segments_valid(n)) return {};
    if (!deps_.order_is_valid(layout.order)) return {};

    for (const Segment& seg : layout.caches) {
        if (!can_cache_segment(layout.order, seg)) return {};
    }
    for (const MergeSpec& m : layout.merges) {
        if (!can_merge_segment(layout.order, m.seg, m.as_cache)) return {};
    }

    PrefixCost cost;
    std::size_t p = 0;
    while (p < n) {
        // Segment starting here?
        const Segment* cache_seg = nullptr;
        const MergeSpec* merge_spec = nullptr;
        for (const Segment& s : layout.caches) {
            if (s.first == p) cache_seg = &s;
        }
        for (const MergeSpec& m : layout.merges) {
            if (m.seg.first == p) merge_spec = &m;
        }

        if (cache_seg != nullptr) {
            cost = add_cache(cost, layout.order, *cache_seg, layout.cache_config);
            p = cache_seg->last + 1;
        } else if (merge_spec != nullptr) {
            cost = add_merge(cost, layout.order, *merge_spec);
            p = merge_spec->seg.last + 1;
        } else {
            cost = add_plain(cost, layout.order, p);
            ++p;
        }
    }
    return finish(cost);
}

}  // namespace pipeleon::opt
