// hostbench/src/workloads.h — the benchmark's three seeded workloads and the
// rig that drives one set-up of a workload through the public APIs of `sim`
// and `runtime`.
//
// Load model: closed loop. One driver thread keeps one burst outstanding:
// each round is RssDispatcher::dispatch_batch, then Emulator::poll (which
// drains control ops, services the rings and reaps TX). Entry ops go through
// runtime::ApiMapper and re-optimization through runtime::Controller::tick,
// both issued between bursts. Every input is generated from the seed before
// anything is timed; the program only ever sees those inputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/controller.h"
#include "sim/emulator.h"
#include "trace_log.h"

namespace hostbench {

using Clock = std::chrono::steady_clock;

/// Virtual time one burst advances the emulator clock by (feeds the cache
/// insertion limiters and the controller's window rates).
inline constexpr double kBurstSeconds = 1e-5;

/// Which data path a rig feeds: the descriptor rings (dispatch + poll), or
/// the scalar Emulator::process() oracle, one packet at a time.
enum class Path { Ring, Scalar };

/// Table lookups per kind, from the emulator's window counters.
struct Lookups {
    std::uint64_t cache = 0;
    std::uint64_t exact = 0;
    std::uint64_t ternary = 0;
    std::uint64_t other = 0;
};

/// Adds the lookups of the emulator's current window to `into`.
void count_lookups(const pipeleon::sim::Emulator& emu, Lookups& into);

/// What the benchmark measures around its own calls during one phase.
struct Meter {
    std::vector<double> round_ns;     ///< dispatch + poll of one burst
    /// Process CPU time per packet, one sample per round on a one-thread
    /// process, per data segment when worker threads run (see timed_phase).
    std::vector<double> cpu_ns_per_pkt;
    std::vector<double> dispatch_ns;  ///< RssDispatcher::dispatch_batch
    std::vector<double> poll_ns;      ///< Emulator::poll
    std::vector<double> empty_poll_ns;
    std::vector<double> op_ns;        ///< ApiMapper::insert / erase, churned table
    std::vector<double> tick_ns;      ///< Controller::tick
    std::uint64_t ticks_deployed = 0;
    std::uint64_t verify_rejects = 0;
    std::uint64_t ticks_searched = 0;
    std::uint64_t candidates = 0;  ///< summed over searched ticks
    Lookups lookups;

    /// Traced phase only: where spans go. The traced phase also issues one
    /// extra poll on empty rings every kEmptyPollEvery rounds.
    SpanLog* spans = nullptr;
    static constexpr std::uint64_t kEmptyPollEvery = 16;
};

/// One set-up of a workload: emulator, controller (which owns the API
/// mapper), and the ring front end. Non-movable: the controller holds a
/// reference to the emulator.
class Rig {
public:
    Rig(const pipeleon::sim::NicModel& nic, pipeleon::ir::Program deployed,
        pipeleon::ir::Program original,
        pipeleon::runtime::ControllerConfig config, int workers, Path path,
        std::size_t ring_capacity);
    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;

    /// Offers one burst and completes it. `m` may be null (set-up).
    void round(const pipeleon::sim::PacketBatch& burst, Meter* m);
    bool insert(const std::string& table, const pipeleon::ir::TableEntry& entry,
                Meter* m);
    bool erase(const std::string& table,
               const std::vector<pipeleon::ir::FieldMatch>& key, Meter* m);
    pipeleon::runtime::TickResult tick(Meter* m);

    pipeleon::sim::Emulator emu;
    pipeleon::runtime::Controller ctl;
    const Path path;
    std::optional<pipeleon::sim::RssDispatcher> rings;  ///< Ring path only

    // Emulated outputs and conservation counts since construction.
    std::uint64_t offered = 0;
    std::uint64_t reaped = 0;  ///< completions reaped (results returned)
    std::uint64_t policy_drops = 0;
    std::uint64_t nodes = 0;
    double cycles = 0.0;
    std::uint64_t ops = 0;
    std::uint64_t ops_failed = 0;
    std::uint64_t rounds = 0;
    std::uint64_t ticks = 0;
    /// When set, every per-packet result is appended here (prefix checks).
    std::vector<pipeleon::sim::ProcessResult>* record = nullptr;

    // Per-instance workload script state.
    std::size_t cursor = 0;     ///< next input burst
    std::uint64_t churn = 0;    ///< next churn key
    int acl_side = -1;          ///< ACL holding the deny set, -1 = none

private:
    void tally(const std::vector<pipeleon::sim::ProcessResult>& results);
    void note_op(bool ok, std::uint64_t t0, Meter* m);

    pipeleon::sim::BatchResult out_;
};

/// A workload: its inputs (made from the seed), how to set it up, the fixed
/// warm-up, and the timed loop.
class Workload {
public:
    virtual ~Workload() = default;

    virtual const char* name() const = 0;
    virtual int workers() const = 0;
    std::size_t burst() const { return 256; }

    /// Generates every input from the seed. Never timed.
    virtual void make_inputs(std::uint64_t seed) = 0;

    /// Builds one instance: emulator and controller, entries installed one
    /// op at a time through ApiMapper, first deploy. This is what setup_s
    /// times.
    virtual std::unique_ptr<Rig> setup(
        Path path, std::size_t ring_capacity,
        std::vector<pipeleon::sim::ProcessResult>* record) = 0;

    /// Fixed-length warm-up, identical on every instance of the workload.
    virtual void warm_up(Rig& rig) = 0;

    /// One segment of the timed loop on the main instance: rounds until
    /// `until`, or a workload-defined unit of work that ignores it.
    virtual void data_segment(Rig& rig, Clock::time_point until, Meter& m) = 0;

    /// True when the timed loop issues no entry ops or ticks of its own. The
    /// driver then interleaves control_segment() calls on a second instance
    /// between data segments, so the control plane is measured across the
    /// same stretch of time without touching the data-plane instance.
    virtual bool separate_control() const = 0;

    /// A fixed batch of entry ops and ticks on the second instance.
    virtual void control_segment(Rig& rig, Meter& m) = 0;

    /// Tables whose deployed entry count must equal the ApiMapper store.
    virtual std::vector<std::string> churned_tables() const = 0;

    /// The inputs, cycled by the segments and replayed by the layer
    /// measurements.
    const std::vector<pipeleon::sim::PacketBatch>& pool() const { return pool_; }

    /// Entry-count mismatches found by the workload's own per-window check.
    std::uint64_t count_mismatches = 0;

protected:
    /// The rig's next input burst; every instance walks the pool from the
    /// start, so all of them see the same sequence.
    const pipeleon::sim::PacketBatch& next_burst(Rig& rig) const;

    std::vector<pipeleon::sim::PacketBatch> pool_;
};

/// "fwd_tiny", "flowcache_zipf" or "lb_churn"; null for other names.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace hostbench
