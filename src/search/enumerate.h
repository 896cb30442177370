// search/enumerate.h — the local search of §4.2: "for each top-k pipelet,
// Pipeleon computes all possible optimizations for each technique
// independently … Next, Pipeleon enumerates all valid combinations of these
// candidates." A pipelet with tables T_A, T_B yields caching candidates
// [T_A], [T_B], [T_A][T_B], [T_A,T_B], one merging candidate [T_A,T_B], and
// the dependency-respecting orders; merging and caching never apply to the
// same table. Every valid combination is evaluated with the cost model.
//
// The enumeration checks each order once, skips any cache or merge run the
// evaluator's dependency-matrix legality rejects, and carries the running
// cost of the runs placed so far down the labeling recursion, so a layout
// costs only its last run. The result equals labeling every layout and
// keeping what PipeletEvaluator::evaluate accepts, bit for bit.
#pragma once

#include <vector>

#include "opt/candidate.h"
#include "opt/estimate.h"

namespace pipeleon::search {

/// Knobs bounding the local enumeration.
struct SearchOptions {
    bool allow_reorder = true;
    bool allow_cache = true;
    bool allow_merge = true;
    /// Paper default: "we restrict Pipeleon to merge at most two tables to
    /// control the memory overhead".
    std::size_t max_merge_len = 2;
    /// Caps keeping worst-case pipelets bounded.
    std::size_t max_orders = 64;
    std::size_t max_candidates = 2048;
    /// Per-cache sizing for every cache the candidates create.
    ir::CacheConfig cache_config;
    /// Candidates must beat the baseline by at least this much (cycles).
    double min_latency_gain = 1e-9;
};

/// Enumerates and evaluates all valid candidates for one pipelet. Returned
/// candidates have positive `gain` (= latency reduction × reach probability)
/// and carry their resource overheads; the identity layout is *not*
/// included (the global search may always pick nothing).
std::vector<opt::Candidate> enumerate_candidates(
    const opt::PipeletEvaluator& evaluator, int pipelet_id,
    double reach_probability, const SearchOptions& options);

}  // namespace pipeleon::search
