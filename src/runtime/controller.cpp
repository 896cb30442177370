#include "runtime/controller.h"

#include <algorithm>

#include "util/logging.h"
#include "util/strings.h"

namespace pipeleon::runtime {

Controller::Controller(sim::Emulator& emulator, ir::Program original,
                       cost::CostModel model, ControllerConfig config)
    : emulator_(emulator),
      original_(std::move(original)),
      model_(std::move(model)),
      config_(std::move(config)),
      api_(original_) {
    original_.validate();
    ctl_ticks_ = emulator_.metrics().counter("ctl.ticks");
    ctl_deploys_ = emulator_.metrics().counter("ctl.deploys");
    ctl_rejects_ = emulator_.metrics().counter("ctl.verify_rejects");
}

profile::RuntimeProfile Controller::collect_profile() {
    TELEMETRY_SPAN("controller.profile");
    profile::RawCounters raw = emulator_.read_counters();
    // The emulator only knows deployed tables; the API mapper supplies the
    // authoritative original-space entry snapshots (including merged-away
    // tables) and control-plane update counts.
    for (auto& [name, snap] : api_.snapshots()) {
        raw.entries[name] = snap;
    }
    profile::CounterMap map =
        profile::CounterMap::build(original_, emulator_.program());
    return map.translate(original_, raw);
}

void Controller::ensure_rings(std::size_t capacity) {
    const int workers = emulator_.worker_count();
    if (rings_.has_value() && rings_capacity_ == capacity &&
        rings_workers_ == workers) {
        return;
    }
    sim::RingConfig cfg;
    cfg.rx_capacity = capacity;
    rings_.emplace(emulator_.make_rings(cfg));
    rings_capacity_ = capacity;
    rings_workers_ = workers;
}

Controller::PumpStats Controller::pump_window_impl(trafficgen::Workload& workload,
                                                   int packets,
                                                   double window_seconds,
                                                   std::size_t batch_size,
                                                   bool adaptive) {
    PumpStats stats;
    if (packets <= 0) {
        // Nothing to pump: still advance the window clock so callers that
        // alternate empty and busy windows keep a monotonic timeline.
        emulator_.advance_time(window_seconds);
        return stats;
    }
    const std::size_t floor = std::max<std::size_t>(1, config_.batch_floor);
    const std::size_t cap = std::max(floor, config_.batch_cap);
    if (batch_size == 0) batch_size = 1;
    if (adaptive) batch_size = std::min(cap, std::max(floor, batch_size));

    // The ring front end: bursts dispatch through RSS into per-worker RX
    // rings and a poll services them (poll == batch boundary == control
    // drain point). Auto capacity covers the largest burst twice over, so
    // the closed-loop pump only overflow-drops when the user configured a
    // smaller ring on purpose.
    const std::size_t capacity =
        config_.ring_capacity != 0 ? config_.ring_capacity
                                   : 2 * std::max(cap, batch_size);

    auto remaining = static_cast<std::uint64_t>(packets);
    const double seconds_per_packet =
        window_seconds / static_cast<double>(packets);
    double total_cycles = 0.0;
    std::uint64_t completed = 0;
    while (remaining > 0) {
        // The worker count may change mid-window via drained control ops;
        // the rings are empty between polls, so rebuilding here never
        // strands descriptors.
        ensure_rings(capacity);
        std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining, batch_size));
        sim::PacketBatch batch = workload.next_batch(emulator_.fields(), n);
        if (batch.empty()) break;  // workload ran dry (phase ended early)
        const std::size_t accepted =
            rings_->dispatch_batch(batch, emulator_.now_seconds());
        emulator_.poll(*rings_, pump_out_);
        total_cycles += pump_out_.total_cycles;
        stats.dropped += pump_out_.dropped;
        stats.packets += batch.size();
        stats.offered += batch.size();
        stats.ring_drops += batch.size() - accepted;
        completed += pump_out_.results.size();
        // Advance by packets actually generated, not requested: a workload
        // phase ending early must not skew the window timestamps.
        emulator_.advance_time(seconds_per_packet *
                               static_cast<double>(batch.size()));
        remaining -= std::min<std::uint64_t>(remaining, batch.size());

        ++stats.batches;
        stats.last_batch = batch.size();
        if (stats.min_batch == 0 || batch.size() < stats.min_batch) {
            stats.min_batch = batch.size();
        }
        stats.max_batch = std::max(stats.max_batch, batch.size());

        // The overload signal is the ring counters — descriptors the RX
        // rings actually refused — not the policy verdicts of processed
        // packets (a deny-all ACL drops everything by policy while the
        // rings idle along).
        const double burst_overflow =
            static_cast<double>(batch.size() - accepted) /
            static_cast<double>(batch.size());
        stats.max_batch_drop = std::max(stats.max_batch_drop, burst_overflow);

        if (adaptive) {
            // Two feedback signals, overflow first: a burst the rings shed
            // shrinks regardless of its cycle cost (overload is best shed
            // in small units), then the cycle-budget controller halves
            // above budget and doubles below half of it — multiplicative
            // moves so the size converges in a few batches.
            if (burst_overflow > config_.max_batch_drop_rate) {
                batch_size = std::max(floor, batch_size / 2);
                ++stats.batch_shrinks_drops;
            } else if (pump_out_.total_cycles > config_.target_batch_cycles) {
                batch_size = std::max(floor, batch_size / 2);
                ++stats.batch_shrinks_cycles;
            } else if (pump_out_.total_cycles <
                       config_.target_batch_cycles / 2.0) {
                batch_size = std::min(cap, batch_size * 2);
                ++stats.batch_grows;
            }
        }
    }
    if (adaptive) dyn_batch_ = batch_size;
    if (completed > 0) {
        stats.mean_cycles = total_cycles / static_cast<double>(completed);
        stats.drop_rate = static_cast<double>(stats.dropped) /
                          static_cast<double>(completed);
    }
    stats.throughput_gbps = emulator_.throughput_gbps(stats.mean_cycles);
    return stats;
}

Controller::PumpStats Controller::pump_window(trafficgen::Workload& workload,
                                              int packets, double window_seconds,
                                              std::size_t batch_size) {
    return pump_window_impl(workload, packets, window_seconds, batch_size,
                            /*adaptive=*/false);
}

Controller::PumpStats Controller::pump_window(trafficgen::Workload& workload,
                                              int packets,
                                              double window_seconds) {
    const std::size_t seed = dyn_batch_ != 0 ? dyn_batch_ : 256;
    return pump_window_impl(workload, packets, window_seconds, seed,
                            /*adaptive=*/true);
}

Controller::PreparedDeploy Controller::prepare_deploy(ir::Program target) const {
    TELEMETRY_SPAN("controller.prepare");
    PreparedDeploy prepared;
    prepared.entries = api_.remapped_entries(target);
    prepared.program = std::move(target);
    prepared.incremental = config_.incremental_deployment;
    return prepared;
}

analysis::DiagnosticList Controller::verify_deploy(
    const search::OptimizationOutcome* outcome,
    const PreparedDeploy& prepared) const {
    TELEMETRY_SPAN("controller.verify");
    analysis::Verifier verifier(config_.verify);
    analysis::DiagnosticList diags;
    if (outcome != nullptr) {
        // Translation validation: the optimized program must preserve the
        // original's semantics under the plans that produced it.
        std::vector<analysis::Pipelet> pipelets =
            analysis::form_pipelets(original_, config_.optimizer.pipelet);
        diags.merge(verifier.check_translation(original_, pipelets,
                                               outcome->plans,
                                               prepared.program));
    } else {
        // Reverts re-deploy the original program: structure only.
        diags.merge(verifier.check_program(prepared.program));
    }
    diags.merge(verifier.check_entry_remap(original_, api_.entry_counts(),
                                           prepared.program, prepared.entries));
    return diags;
}

void Controller::commit_deploy(PreparedDeploy prepared, TickResult& result) {
    TELEMETRY_SPAN("controller.commit");
    sim::EpochSwap swap;
    swap.program = std::move(prepared.program);
    swap.entries = std::move(prepared.entries);
    swap.incremental = prepared.incremental;
    sim::Emulator::ReconfigureStats stats =
        emulator_.apply_epoch(std::move(swap));
    result.downtime_s = stats.downtime_s;
    if (prepared.incremental) result.caches_kept_warm = stats.caches_kept_warm;
    result.deployed = true;
    emulator_.metrics().add(ctl_deploys_);
}

TickResult Controller::deploy_external(ir::Program target) {
    TELEMETRY_SPAN("controller.deploy_external");
    TickResult result;
    target.validate();
    PreparedDeploy prepared = prepare_deploy(std::move(target));
    if (config_.verify_deploys) {
        analysis::DiagnosticList diags = verify_deploy(nullptr, prepared);
        if (!diags.ok()) {
            result.verify_rejected = true;
            result.verify_diagnostics = std::move(diags);
            emulator_.metrics().add(ctl_rejects_);
            util::log_warn(util::format(
                "controller: verifier rejected external deploy (%zu findings)",
                result.verify_diagnostics.size()));
            return result;
        }
    }
    commit_deploy(std::move(prepared), result);
    return result;
}

TickResult Controller::tick() {
    TELEMETRY_SPAN("controller.tick");
    TickResult result;
    emulator_.metrics().add(ctl_ticks_);

    profile::RuntimeProfile current = collect_profile();
    result.profiled = true;

    bool should_search = true;
    if (have_profile_ && config_.reoptimize_on_change_only) {
        profile::ProfileDelta delta =
            profile::profile_delta(original_, last_profile_, current);
        result.profile_shift = delta.max_shift();
        should_search = delta.max_shift() >= config_.detector.threshold;
    }

    if (should_search) {
        search::Optimizer optimizer(model_, config_.optimizer);
        search::OptimizationOutcome outcome;
        {
            TELEMETRY_SPAN("controller.search");
            outcome = optimizer.optimize(original_, current);
        }
        result.searched = true;
        if (config_.outcome_hook) config_.outcome_hook(outcome);

        bool worthwhile =
            outcome.baseline_latency > 0.0 &&
            outcome.predicted_gain >=
                config_.min_relative_gain * outcome.baseline_latency;
        bool differs = !(outcome.optimized == emulator_.program());
        // Hysteresis: a new layout must also beat what is *measured* on the
        // currently deployed program, or reconfiguration (which may cost
        // downtime on reflash targets) would flap between near-equal plans.
        if (differs && emulator_.latency_stats().count() > 0) {
            double measured = emulator_.latency_stats().mean();
            worthwhile = worthwhile &&
                         outcome.predicted_latency <
                             measured * (1.0 - config_.min_relative_gain);
        }
        if (worthwhile && differs) {
            // prepare -> verify -> commit: the remapped entry set is
            // computed here, off the data-plane hot path; the verifier gates
            // the commit; a rejected candidate never reaches the emulator.
            PreparedDeploy prepared = prepare_deploy(outcome.optimized);
            if (config_.verify_deploys) {
                analysis::DiagnosticList diags =
                    verify_deploy(&outcome, prepared);
                if (!diags.ok()) {
                    result.verify_rejected = true;
                    result.verify_diagnostics = std::move(diags);
                    util::log_warn(util::format(
                        "controller: verifier rejected candidate layout "
                        "(%zu findings); keeping the deployed program",
                        result.verify_diagnostics.size()));
                }
            }
            if (!result.verify_rejected) {
                util::log_info(util::format(
                    "controller: deploying new layout (predicted %.1f -> %.1f "
                    "cycles, %zu plans)",
                    outcome.baseline_latency, outcome.predicted_latency,
                    outcome.plans.size()));
                commit_deploy(std::move(prepared), result);
            }
        } else if (!worthwhile && differs &&
                   !(original_ == emulator_.program())) {
            // The best found plan is not worth deploying. Keep what is
            // running unless it *measures* worse than the plain original
            // would be — then revert (e.g. a cache whose hit rate collapsed,
            // §3.2.2/§3.2.3 reversal).
            bool deployed_is_harmful =
                emulator_.latency_stats().count() > 0 &&
                emulator_.latency_stats().mean() >
                    outcome.baseline_latency * (1.0 + config_.min_relative_gain);
            if (deployed_is_harmful) {
                util::log_info("controller: reverting to the original layout");
                PreparedDeploy prepared = prepare_deploy(original_);
                prepared.incremental = false;  // reverts re-flash cleanly
                bool revert_ok = true;
                if (config_.verify_deploys) {
                    analysis::DiagnosticList diags =
                        verify_deploy(nullptr, prepared);
                    if (!diags.ok()) {
                        // Should be impossible (the original validated at
                        // construction); fail safe and keep serving.
                        result.verify_rejected = true;
                        result.verify_diagnostics = std::move(diags);
                        revert_ok = false;
                    }
                }
                if (revert_ok) commit_deploy(std::move(prepared), result);
            }
        }
        result.outcome = std::move(outcome);
    }

    if (result.verify_rejected) emulator_.metrics().add(ctl_rejects_);
    last_profile_ = std::move(current);
    have_profile_ = true;
    api_.begin_window();
    if (!result.deployed) emulator_.begin_window();
    return result;
}

}  // namespace pipeleon::runtime
