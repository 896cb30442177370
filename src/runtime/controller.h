// runtime/controller.h — the Pipeleon runtime loop (Fig 3): profile the
// deployed program, translate counters back to the original program via the
// counter map, detect profile changes, recompute the optimization plan from
// the original program, and deploy when it beats what is running. Because
// every round recomputes from the original program, bad decisions revert
// automatically — a merge whose tables grew is simply not chosen again
// (§3.2.3), and a cache whose measured hit rate collapsed loses to the
// cache-free layout (§3.2.2, the Fig 11a scenario).
#pragma once

#include <functional>
#include <optional>

#include "analysis/verify.h"
#include "profile/change_detect.h"
#include "runtime/api_mapper.h"
#include "search/optimizer.h"
#include "sim/emulator.h"
#include "trafficgen/workload.h"

namespace pipeleon::runtime {

struct ControllerConfig {
    search::OptimizerConfig optimizer;
    profile::ChangeDetector detector;
    /// When true, skip the search unless the profile moved; the first tick
    /// always optimizes.
    bool reoptimize_on_change_only = true;
    /// Minimum predicted relative gain (fraction of baseline latency) to
    /// deploy a new layout.
    double min_relative_gain = 0.01;
    /// Use incremental deployment (§6): unchanged flow caches stay warm and
    /// reflash downtime scales with the changed-table fraction.
    bool incremental_deployment = false;

    /// Gate every deployment behind the verifier (ISSUE 3): translation
    /// validation of the optimized program against the original, plus
    /// entry.remap.* consistency of the remapped entry set. A rejected
    /// deployment never reaches Emulator::reconfigure* — the old program
    /// keeps serving and TickResult carries the diagnostics.
    bool verify_deploys = true;
    analysis::VerifyOptions verify;

    /// Dynamic batch sizing (pump_window without an explicit size): the
    /// batch grows/shrinks between these bounds from the previous batch's
    /// measured cycles, amortizing steering cost when flows are cheap and
    /// capping tail latency when they are not.
    std::size_t batch_floor = 32;
    std::size_t batch_cap = 1024;
    /// Cycle budget one batch should stay near.
    double target_batch_cycles = 200000.0;
    /// Overflow drop-rate feedback (ISSUE 6): a burst whose RX-ring overflow
    /// drop fraction exceeds this shrinks the next burst (overload sheds in
    /// smaller units), taking priority over the cycle-budget move. The
    /// signal is the ring drop *counters* — actual descriptors the rings
    /// refused — not the per-packet policy verdicts: an ACL deny-all
    /// workload drops 100% of its packets by policy yet overloads nothing,
    /// and must not thrash the batch size.
    double max_batch_drop_rate = 0.5;
    /// RX descriptors per queue for the pump's ring front end. 0 = auto:
    /// 2 × the largest burst the pump can issue, rounded up to a power of
    /// two, so the closed-loop pump never overflow-drops. Set it small to
    /// exercise overload shedding.
    std::size_t ring_capacity = 0;

    /// Test seam: mutates the optimizer's outcome before prepare/verify.
    /// Lets tests inject a known-bad optimized program and assert the
    /// verifier gate rejects it. Null in production.
    std::function<void(search::OptimizationOutcome&)> outcome_hook;
};

/// Result of one controller tick.
struct TickResult {
    bool profiled = false;
    bool searched = false;
    bool deployed = false;
    double downtime_s = 0.0;
    double profile_shift = 0.0;
    /// Incremental deployments only: how many caches survived warm.
    std::size_t caches_kept_warm = 0;
    /// The verifier refused the candidate deployment: the previously
    /// deployed program is still serving and `verify_diagnostics` explains
    /// why the candidate was unsound.
    bool verify_rejected = false;
    analysis::DiagnosticList verify_diagnostics;
    std::optional<search::OptimizationOutcome> outcome;
};

class Controller {
public:
    Controller(sim::Emulator& emulator, ir::Program original,
               cost::CostModel model, ControllerConfig config);

    ApiMapper& api() { return api_; }
    const ir::Program& original() const { return original_; }
    const profile::RuntimeProfile& last_profile() const { return last_profile_; }
    const ControllerConfig& config() const { return config_; }
    ControllerConfig& config() { return config_; }

    /// One profiling/optimization round against the emulator's current
    /// window. The harness decides the cadence (virtual time).
    TickResult tick();

    /// Deploys an externally supplied program through the same
    /// prepare→verify→commit path tick() uses (ISSUE 8: a tenant pushing a
    /// program revision). The target must host the original program's API
    /// surface (its tables, possibly merged/cached) so the remapped entry
    /// set stays well-defined; the verifier gates the commit exactly as for
    /// optimizer output (structure + entry-remap checks — no translation
    /// validation, since the program was not derived by our search). On
    /// rejection the old program keeps serving and the result carries the
    /// diagnostics.
    TickResult deploy_external(ir::Program target);

    /// Aggregate measurements of one pumped window. `packets` counts
    /// packets offered (generated); `dropped`/`drop_rate` are the policy
    /// verdicts of processed packets; `ring_drops` are descriptors the RX
    /// rings refused (overload shed before processing).
    struct PumpStats {
        double mean_cycles = 0.0;
        double drop_rate = 0.0;
        double throughput_gbps = 0.0;
        std::uint64_t packets = 0;
        std::uint64_t dropped = 0;
        /// Ring front end (ISSUE 6): packets offered to the dispatcher and
        /// RX overflow drops over the window.
        std::uint64_t offered = 0;
        std::uint64_t ring_drops = 0;
        /// Batch-size telemetry (dynamic sizing observability).
        std::uint64_t batches = 0;
        std::size_t min_batch = 0;
        std::size_t max_batch = 0;
        std::size_t last_batch = 0;
        /// Why the adaptive controller moved (counts per decision): drops
        /// feedback shrank, cycle budget shrank, cycle budget grew.
        std::uint64_t batch_shrinks_drops = 0;
        std::uint64_t batch_shrinks_cycles = 0;
        std::uint64_t batch_grows = 0;
        /// Worst single-burst ring-overflow drop fraction seen this window
        /// (the shrink-feedback signal).
        double max_batch_drop = 0.0;
    };

    /// Streams `packets` packets from the workload through the emulator's
    /// descriptor-ring data plane (bursts of `batch_size` dispatched via
    /// RSS, then polled to completion) and advances virtual time by
    /// `window_seconds`. This is the harness-side pump the figure benches
    /// use between tick()s. Each poll is a control-plane drain point (ring
    /// drain == batch boundary). Time advances proportionally to the
    /// packets actually generated, so a workload phase ending early cannot
    /// skew window timestamps.
    PumpStats pump_window(trafficgen::Workload& workload, int packets,
                          double window_seconds, std::size_t batch_size);

    /// Dynamic-batch overload: sizes each batch from the previous one's
    /// measured cycles, halving above config().target_batch_cycles and
    /// doubling below half of it, clamped to [batch_floor, batch_cap]. The
    /// adapted size persists across windows.
    PumpStats pump_window(trafficgen::Workload& workload, int packets,
                          double window_seconds);

private:
    /// A deployment candidate, fully computed off the hot path: the program
    /// to install and the remapped entry loads that must land with it.
    struct PreparedDeploy {
        ir::Program program;
        std::vector<ir::EntryLoad> entries;
        bool incremental = false;
    };

    /// prepare: compute the remapped entry set for `target`.
    PreparedDeploy prepare_deploy(ir::Program target) const;
    /// verify: translation validation (when `outcome` describes an
    /// optimization of original_) plus entry.remap consistency.
    analysis::DiagnosticList verify_deploy(
        const search::OptimizationOutcome* outcome,
        const PreparedDeploy& prepared) const;
    /// commit: ship program + entries as one queued epoch swap.
    void commit_deploy(PreparedDeploy prepared, TickResult& result);

    /// The pump loop shared by both overloads; `adaptive` enables dynamic
    /// sizing starting from `batch_size`.
    PumpStats pump_window_impl(trafficgen::Workload& workload, int packets,
                               double window_seconds, std::size_t batch_size,
                               bool adaptive);

    /// (Re)builds the pump's dispatcher when the ring capacity or worker
    /// count it was built for changed. The pump drains its rings every
    /// poll, so a rebuild never strands descriptors.
    void ensure_rings(std::size_t capacity);

    /// Reads the emulator window, augments entry snapshots from the API
    /// mapper, and translates to original-program space.
    profile::RuntimeProfile collect_profile();

    sim::Emulator& emulator_;
    ir::Program original_;
    cost::CostModel model_;
    ControllerConfig config_;
    ApiMapper api_;
    profile::RuntimeProfile last_profile_;
    bool have_profile_ = false;
    /// Dynamic pump batch size carried across windows (0 = not yet seeded).
    std::size_t dyn_batch_ = 0;
    /// The pump's ring front end, rebuilt lazily by ensure_rings().
    std::optional<sim::RssDispatcher> rings_;
    std::size_t rings_capacity_ = 0;
    int rings_workers_ = 0;
    /// Reused poll output (results vector keeps its capacity).
    sim::BatchResult pump_out_;
    /// ctl.* counters registered in the emulator's metrics registry.
    telemetry::MetricId ctl_ticks_ = 0;
    telemetry::MetricId ctl_deploys_ = 0;
    telemetry::MetricId ctl_rejects_ = 0;
};

}  // namespace pipeleon::runtime
