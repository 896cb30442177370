// hostbench/src/main.cpp — the host-time benchmark driver.
//
//   hostbench --workload <fwd_tiny|flowcache_zipf|lb_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--fault small-ring]
//             [--out-dir <dir>]
//
// Measures host wall-clock and CPU time only. Emulated cycles are cost-model
// outputs: they are checked for exactness, never reported as performance.
//
// --trace 0 prints the end-to-end metrics; --trace 1 is a separate run of the
// same seed that prints the per-layer metrics and writes a chrome trace to
// <out-dir>/<workload>.trace.json. Every run checks the correctness gate
// below; when a check fails the run prints the failures and failed_frac to
// stderr, no metrics, and exits 1. The last line of stdout is the result.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sched.h>
#include <string>
#include <unistd.h>
#include <vector>

#include "layers.h"
#include "sim/match_batch.h"
#include "stats.h"
#include "telemetry/telemetry.h"
#include "util/logging.h"
#include "util/strings.h"
#include "workloads.h"

using namespace hostbench;
namespace sim = pipeleon::sim;
namespace telemetry = pipeleon::telemetry;

namespace {

/// Set-ups per run, at least: setup_s is their median.
constexpr std::size_t kMinSetups = 4;

/// Quantiles the end-to-end timings report (see run()): rounds and entry
/// ops number in the thousands per run, ticks and data segments in the
/// hundreds.
constexpr double kRoundQuantile = 0.01;
constexpr double kSampleQuantile = 0.05;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    bool small_ring = false;  ///< fault injection: RX ring < burst
    std::string out_dir = ".bench_out";
};

bool parse(int argc, char** argv, Args& a) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char* v = argv[i + 1];
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, nullptr, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, nullptr);
        } else if (k == "--trace") {
            a.trace = std::atoi(v);
        } else if (k == "--fault") {
            if (std::strcmp(v, "small-ring") != 0) return false;
            a.small_ring = true;
        } else if (k == "--out-dir") {
            a.out_dir = v;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
           (a.trace == 0 || a.trace == 1);
}

/// Emulated outputs that must repeat exactly for a seed.
struct Digest {
    double cycles = 0.0;
    std::uint64_t completed = 0, policy_drops = 0, nodes = 0, ops = 0, epoch = 0;
    std::uint64_t tier[9] = {};

    bool operator==(const Digest& o) const {
        return std::memcmp(&cycles, &o.cycles, sizeof cycles) == 0 &&
               completed == o.completed && policy_drops == o.policy_drops &&
               nodes == o.nodes && ops == o.ops && epoch == o.epoch &&
               std::equal(std::begin(tier), std::end(tier), std::begin(o.tier));
    }

    std::string str() const {
        std::string s = pipeleon::util::format(
            "cycles=%.17g completed=%" PRIu64 " policy_drops=%" PRIu64
            " nodes=%" PRIu64 " ops=%" PRIu64 " epoch=%" PRIu64 " tier=",
            cycles, completed, policy_drops, nodes, ops, epoch);
        for (std::uint64_t t : tier) s += std::to_string(t) + ",";
        s.pop_back();
        return s;
    }
};

const char* const kTierCounters[9] = {
    "tier.lookups",    "tier.sram_hits",  "tier.dram_hits",
    "tier.host_hits",  "tier.misses",     "tier.promotions",
    "tier.demotions",  "tier.dma_batches", "tier.dma_fetches"};

void tier_counts(Rig& r, std::uint64_t out[9]) {
    const telemetry::MetricsSnapshot snap = r.emu.telemetry_snapshot();
    for (int i = 0; i < 9; ++i) out[i] = snap.counter(kTierCounters[i]);
}

Digest digest_of(Rig& r) {
    Digest d;
    d.cycles = r.cycles;
    d.completed = r.reaped;
    d.policy_drops = r.policy_drops;
    d.nodes = r.nodes;
    d.ops = r.ops;
    d.epoch = r.emu.epoch();
    tier_counts(r, d.tier);
    return d;
}

bool same_result(const sim::ProcessResult& a, const sim::ProcessResult& b) {
    return std::memcmp(&a.cycles, &b.cycles, sizeof a.cycles) == 0 &&
           a.dropped == b.dropped && a.migrations == b.migrations &&
           a.nodes_visited == b.nodes_visited;
}

class Gate {
public:
    void check(bool ok, const std::string& what) {
        if (!ok) failures_.push_back(what);
    }
    bool ok() const { return failures_.empty(); }
    const std::vector<std::string>& failures() const { return failures_; }

private:
    std::vector<std::string> failures_;
};

/// Ring conservation: offered = completed + RX drops + backlog, and every
/// RX dequeue was reaped as a completion.
void check_rings(const Rig& r, const char* who, Gate& gate) {
    const sim::RingStats s = r.rings->stats();
    gate.check(s.offered() == r.offered,
               pipeleon::util::format("%s: dispatcher saw %" PRIu64 " offered, driver %" PRIu64,
                                      who, s.offered(), r.offered));
    gate.check(r.offered == r.reaped + s.dropped + s.depth,
               pipeleon::util::format("%s: offered %" PRIu64 " != completed %" PRIu64
                                      " + RX drops %" PRIu64 " + backlog %" PRIu64,
                                      who, r.offered, r.reaped, s.dropped, s.depth));
    gate.check(r.reaped == s.dequeued,
               pipeleon::util::format("%s: reaped %" PRIu64 " != RX dequeues %" PRIu64,
                                      who, r.reaped, s.dequeued));
}

/// Deployed entry counts of the churned tables equal the API mapper store.
std::uint64_t check_entry_counts(Rig& r, const Workload& w, Gate& gate) {
    std::uint64_t off = 0;
    for (const std::string& t : w.churned_tables()) {
        const std::size_t deployed = r.emu.entry_count(t);
        const std::size_t store = r.ctl.api().entries(t).size();
        gate.check(deployed == store,
                   pipeleon::util::format("%s: deployed %zu entries, ApiMapper holds %zu",
                                          t.c_str(), deployed, store));
        off += deployed > store ? deployed - store : store - deployed;
    }
    return off;
}

/// Data segments of this length alternate with control segments, so both
/// sample the same stretch of time: on a shared host, contention from
/// other tenants comes and goes over fractions of a second to minutes.
constexpr auto kSegment = std::chrono::milliseconds(50);
/// One more set-up is timed every kSetupEvery control segments.
constexpr int kSetupEvery = 20;

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
    return cpus;
}

/// The CPUs the driver thread takes turns on: every allowed CPU but those
/// the emulator pinned its workers to.
std::vector<int> driver_cpus(const Rig& rig) {
    std::vector<int> cpus = allowed_cpus();
    if (rig.emu.pinned_workers() > 0) {
        for (int c : rig.emu.topology().assign(rig.emu.worker_count())) {
            cpus.erase(std::remove(cpus.begin(), cpus.end(), c), cpus.end());
        }
    }
    return cpus;
}

/// Restricts the calling thread to `cpus`. Best effort: a refused call
/// leaves the thread where the scheduler puts it.
void pin_thread(const std::vector<int>& cpus) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus) CPU_SET(c, &set);
    sched_setaffinity(0, sizeof set, &set);
}

/// Times one more set-up (destroyed again) into `setup_s`. Tracing is
/// suspended: set-up is not a traced layer.
void time_setup(Workload& w, std::size_t ring_capacity, std::vector<double>& setup_s) {
    telemetry::Tracer& tracer = telemetry::Tracer::global();
    const bool tracing = tracer.enabled();
    tracer.set_enabled(false);
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<Rig> r = w.setup(Path::Ring, ring_capacity, nullptr);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    tracer.set_enabled(tracing);
}

struct Phase {
    std::uint64_t completed = 0;
    std::uint64_t nodes = 0;
    std::uint64_t tier_before[9] = {};
    std::uint64_t tier_after[9] = {};
};

/// The timed loop: data segments on `rig`; for workloads without control
/// work of their own, control segments on `second` in between. The driver
/// thread runs each segment on the next of its CPUs in turn: contention from
/// other tenants differs from CPU to CPU, so visiting all of them makes an
/// uncontended stretch likely.
///
/// With one worker the process runs one thread and Rig::round samples CPU
/// time per round. With worker threads it is sampled per data segment: the
/// kernel adds a running thread's CPU time to the process clock only at its
/// next context switch or tick, so a per-round reading misses the workers'
/// share.
Phase timed_phase(Workload& w, Rig& rig, Rig& second, Meter& m, double seconds,
                  std::size_t ring_capacity, std::vector<double>& setup_s) {
    const bool one_thread = w.workers() == 1;
    const std::vector<int> all_cpus = allowed_cpus();
    const std::vector<int> cpus = driver_cpus(rig);
    for (std::vector<double>* v :
         {&m.round_ns, &m.cpu_ns_per_pkt, &m.dispatch_ns, &m.poll_ns}) {
        v->reserve(1u << 20);
    }
    m.op_ns.reserve(1u << 16);
    Phase p;
    tier_counts(rig, p.tier_before);
    const std::uint64_t reaped0 = rig.reaped, nodes0 = rig.nodes;
    const bool count_window = m.spans != nullptr && w.separate_control();
    if (count_window) rig.emu.begin_window();
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (int seg = 1; Clock::now() < deadline; ++seg) {
        if (!cpus.empty()) pin_thread({cpus[static_cast<std::size_t>(seg) % cpus.size()]});
        const double cpu0 = cpu_seconds();
        const std::uint64_t before = rig.reaped;
        w.data_segment(rig, std::min(deadline, Clock::now() + kSegment), m);
        if (!one_thread && rig.reaped > before) {
            m.cpu_ns_per_pkt.push_back((cpu_seconds() - cpu0) * 1e9 /
                                       static_cast<double>(rig.reaped - before));
        }
        if (w.separate_control()) {
            w.control_segment(second, m);
            if (seg % kSetupEvery == 0) time_setup(w, ring_capacity, setup_s);
        }
    }
    if (!cpus.empty()) pin_thread(all_cpus);
    if (count_window) count_lookups(rig.emu, m.lookups);
    p.completed = rig.reaped - reaped0;
    p.nodes = rig.nodes - nodes0;
    tier_counts(rig, p.tier_after);
    return p;
}

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

std::string json_number(double v) { return pipeleon::util::format("%.17g", v); }

std::string host_facts(const Args& a, Rig& main_rig) {
    const char* simd_env = std::getenv("PIPELEON_SIMD");
    const char* pin_env = std::getenv("PIPELEON_PIN_WORKERS");
    return pipeleon::util::format(
        "{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"nproc\":%ld,"
        "\"simd_tier\":\"%s\",\"workers\":%d,\"pinned_workers\":%d,"
        "\"numa_nodes\":%d,\"build_type\":\"%s\",\"telemetry\":%s,"
        "\"PIPELEON_SIMD\":\"%s\",\"PIPELEON_PIN_WORKERS\":\"%s\"}",
        a.workload.c_str(), a.seed, sysconf(_SC_NPROCESSORS_ONLN),
        sim::simd_tier_name(sim::simd_tier()), main_rig.emu.worker_count(),
        main_rig.emu.pinned_workers(), main_rig.emu.topology().node_count(),
        HOSTBENCH_BUILD_TYPE, telemetry::kEnabled ? "true" : "false",
        simd_env != nullptr ? simd_env : "", pin_env != nullptr ? pin_env : "");
}

double frac(std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

int run(const Args& args) {
    pipeleon::util::set_log_level(pipeleon::util::LogLevel::Warn);
    telemetry::Tracer::global().set_enabled(false);
    std::unique_ptr<Workload> wl = make_workload(args.workload);
    if (!wl) {
        std::fprintf(stderr, "hostbench: unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    wl->make_inputs(args.seed);
    const std::size_t burst = wl->burst();
    const std::size_t ring_capacity = args.small_ring ? burst / 2 : 2 * burst;
    const bool has_oracle = wl->workers() == 1;
    Clock::time_point t0;

    // Main instance: set-up and warm-up, with heap memory measured around
    // them (inputs and the prefix record are already allocated).
    std::vector<sim::ProcessResult> main_prefix;
    if (has_oracle) main_prefix.reserve(1u << 17);
    std::vector<double> setup_s;
    const double heap0 = heap_mb();
    t0 = Clock::now();
    std::unique_ptr<Rig> main_rig =
        wl->setup(Path::Ring, ring_capacity, has_oracle ? &main_prefix : nullptr);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    wl->warm_up(*main_rig);
    const double mem_mb = heap_mb() - heap0;
    main_rig->record = nullptr;
    const Digest main_digest = digest_of(*main_rig);

    // Second instance: replays the warm-up for the determinism check, then
    // takes the control segments of the timed loop.
    t0 = Clock::now();
    std::unique_ptr<Rig> second = wl->setup(Path::Ring, ring_capacity, nullptr);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    wl->warm_up(*second);
    const Digest second_digest = digest_of(*second);

    // Timed phase. The traced run first repeats the untraced loop for half
    // the time (the trace-overhead baseline), then traces the other half.
    Meter plain, traced;
    SpanLog spans;
    Phase traced_phase;
    if (args.trace == 0) {
        timed_phase(*wl, *main_rig, *second, plain, args.seconds, ring_capacity, setup_s);
    } else {
        timed_phase(*wl, *main_rig, *second, plain, args.seconds / 2.0, ring_capacity,
                    setup_s);
        traced.spans = &spans;
        telemetry::Tracer::global().set_enabled(true);
        traced_phase = timed_phase(*wl, *main_rig, *second, traced, args.seconds / 2.0,
                                   ring_capacity, setup_s);
        telemetry::Tracer::global().set_enabled(false);
    }

    // Correctness gate.
    Gate gate;
    gate.check(second_digest == main_digest,
               "emulated outputs differ between two set-ups of the same seed:\n  " +
                   main_digest.str() + "\n  " + second_digest.str());
    check_rings(*main_rig, "main", gate);
    check_rings(*second, "second", gate);
    const std::uint64_t mismatched =
        check_entry_counts(*main_rig, *wl, gate) + check_entry_counts(*second, *wl, gate);
    if (has_oracle) {
        // One-worker workloads: the ring path must match the scalar
        // process() oracle packet for packet over set-up and warm-up.
        std::vector<sim::ProcessResult> oracle_prefix;
        oracle_prefix.reserve(main_prefix.size());
        t0 = Clock::now();
        std::unique_ptr<Rig> o = wl->setup(Path::Scalar, ring_capacity, &oracle_prefix);
        setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
        wl->warm_up(*o);
        std::size_t first_diff = main_prefix.size();
        for (std::size_t i = 0; i < std::min(main_prefix.size(), oracle_prefix.size()); ++i) {
            if (!same_result(main_prefix[i], oracle_prefix[i])) {
                first_diff = i;
                break;
            }
        }
        gate.check(main_prefix.size() == oracle_prefix.size() &&
                       first_diff == main_prefix.size(),
                   pipeleon::util::format(
                       "ring path differs from the scalar process() oracle: %zu vs %zu "
                       "results, first difference at packet %zu",
                       main_prefix.size(), oracle_prefix.size(), first_diff));
    }
    while (setup_s.size() < kMinSetups) time_setup(*wl, ring_capacity, setup_s);
    gate.check(wl->count_mismatches == 0,
               pipeleon::util::format("lb_vip entry count differed from the ApiMapper "
                                      "store after %" PRIu64 " windows",
                                      wl->count_mismatches));

    std::uint64_t attempted = 0, failed = mismatched + wl->count_mismatches;
    std::uint64_t drops = 0, lost = 0, ops_failed = 0;
    for (const Rig* r : {main_rig.get(), second.get()}) {
        const sim::RingStats rs = r->rings->stats();
        drops += rs.dropped;
        lost += rs.dequeued > r->reaped ? rs.dequeued - r->reaped : 0;
        ops_failed += r->ops_failed;
        attempted += r->offered + r->ops;
    }
    failed += drops + lost + ops_failed;
    gate.check(failed == 0, pipeleon::util::format(
                                "%" PRIu64 " failures: %" PRIu64 " RX drops, %" PRIu64
                                " lost completions, %" PRIu64 " failed entry ops",
                                failed, drops, lost, ops_failed));
    const std::string host = host_facts(args, *main_rig);
    std::printf("hostbench: host %s\n", host.c_str());
    std::printf("hostbench: digest %s\n", main_digest.str().c_str());
    if (!gate.ok()) {
        for (const std::string& f : gate.failures()) {
            std::fprintf(stderr, "hostbench: gate FAIL: %s\n", f.c_str());
        }
        std::fprintf(stderr, "hostbench: failed_frac=%.6g (%" PRIu64 " of %" PRIu64 ")\n",
                     frac(failed, attempted), failed, attempted);
        return 1;
    }

    // Low quantiles: round, segment, op and tick times are bimodal on a
    // shared host (another tenant's load slows them by up to ~40% for
    // fractions of a second to tens of seconds at a time), and the share of
    // slow time differs from run to run. A low quantile tracks the
    // uncontended cost as long as some of the run is uncontended; medians
    // and tails are per-layer metrics.
    std::vector<Metric> metrics;
    const double b = static_cast<double>(burst);
    const double plain_mpps = b * 1e3 / quantile(plain.round_ns, kRoundQuantile);
    if (args.trace == 0) {
        metrics = {
            {"pkt_rate_mpps", plain_mpps, "Mpps"},
            {"cpu_ns_per_pkt",
             quantile(plain.cpu_ns_per_pkt,
                      wl->workers() == 1 ? kRoundQuantile : kSampleQuantile),
             "ns"},
            {"setup_s", median(setup_s), "s"},
            {"mem_mb", mem_mb, "MB"},
            {"op_us_p1", quantile(plain.op_ns, kRoundQuantile) / 1e3, "us"},
            {"tick_ms_p5", quantile(plain.tick_ns, kSampleQuantile) / 1e6, "ms"},
        };
    } else {
        const std::vector<Span> all = spans.merged();
        const LayerReplay lr = replay_layers(*wl, *main_rig);
        const double poll_ns_pkt = median(traced.poll_ns) / b;
        const double traced_mpps = b * 1e3 / quantile(traced.round_ns, kRoundQuantile);
        // Composition residual: poll time per packet minus the replayed
        // hash, cache and engine costs weighted by the phase's lookup
        // counts, shared across the workers that poll in parallel.
        const Lookups& lk = traced.lookups;
        const bool group_hash = wl->workers() > 1 && lr.key_hash_ns > 0.0;
        const double attributed_ns =
            (group_hash ? static_cast<double>(lk.cache) * lr.key_hash_ns : 0.0) +
            static_cast<double>(lk.cache) * lr.tiered_lookup_ns +
            static_cast<double>(lk.exact) * lr.exact_lookup_ns +
            static_cast<double>(lk.ternary) * lr.ternary_lookup_ns;
        const double attributed_per_pkt =
            attributed_ns / static_cast<double>(traced_phase.completed) / wl->workers();
        const std::uint64_t* tb = traced_phase.tier_before;
        const std::uint64_t* ta = traced_phase.tier_after;
        auto tier = [&](int i) { return ta[i] - tb[i]; };
        // An entry op's children are its emulator.drain_control spans.
        const std::vector<double> op_ns = durations(all, "bench.op");
        std::vector<double> op_drain_ns = durations(all, "bench.op", true);
        for (std::size_t i = 0; i < op_ns.size(); ++i) op_drain_ns[i] = op_ns[i] - op_drain_ns[i];
        // Tick self time: Controller::tick minus the controller stages it
        // times (profile, search, prepare, verify, commit).
        std::vector<double> tick_self = durations(all, "bench.tick", true);
        const std::vector<double> ctl_self = durations(all, "controller.tick", true);
        if (ctl_self.size() == tick_self.size()) {
            for (std::size_t i = 0; i < tick_self.size(); ++i) tick_self[i] += ctl_self[i];
        }
        metrics = {
            {"rss.dispatch_ns_per_pkt", median(traced.dispatch_ns) / b, "ns"},
            {"rss.hash_ns_per_pkt", lr.rss_hash_ns_per_pkt, "ns"},
            {"rss.ring_drops", static_cast<double>(drops), "count"},
            {"emulator.poll_ns_per_pkt", poll_ns_pkt, "ns"},
            {"emulator.poll_empty_us", median(traced.empty_poll_ns) / 1e3, "us"},
            {"emulator.round_us_p50", quantile(traced.round_ns, 0.5) / 1e3, "us"},
            {"emulator.round_us_p99", quantile(traced.round_ns, 0.99) / 1e3, "us"},
            {"emulator.rounds", static_cast<double>(traced.round_ns.size()), "count"},
            {"emulator.nodes_per_pkt", frac(traced_phase.nodes, traced_phase.completed), "nodes/pkt"},
            {"emulator.lost_completions", static_cast<double>(lost), "count"},
            {"emulator.unattributed_ns_per_pkt", poll_ns_pkt - attributed_per_pkt, "ns"},
            {"worker_pool.run_us_p50", lr.pool_run_us_p50, "us"},
            {"worker_pool.run_us_p99", lr.pool_run_us_p99, "us"},
            {"match_batch.key_hash_ns", lr.key_hash_ns, "ns"},
            {"tiered_store.lookup_ns", lr.tiered_lookup_ns, "ns"},
            {"tiered_store.sram_hit_frac", frac(tier(1), tier(0)), "fraction"},
            {"tiered_store.dram_hit_frac", frac(tier(2), tier(0)), "fraction"},
            {"tiered_store.host_hit_frac", frac(tier(3), tier(0)), "fraction"},
            {"tiered_store.miss_frac", frac(tier(4), tier(0)), "fraction"},
            {"tiered_store.promotions_per_kpkt", 1e3 * frac(tier(5), traced_phase.completed), "1/kpkt"},
            {"tiered_store.demotions_per_kpkt", 1e3 * frac(tier(6), traced_phase.completed), "1/kpkt"},
            {"tiered_store.dma_fetches_per_batch", frac(tier(8), tier(7)), "fetch/batch"},
            {"engine.exact_lookup_ns", lr.exact_lookup_ns, "ns"},
            {"engine.ternary_lookup_ns", lr.ternary_lookup_ns, "ns"},
            {"engine.insert_us", lr.insert_us, "us"},
            {"engine.rebuild_us", lr.rebuild_us, "us"},
            {"control.set_entries_us", lr.set_entries_us, "us"},
            {"control.drain_us", median(op_drain_ns) / 1e3, "us"},
            {"control.epoch_swap_ms", median(durations(all, "emulator.epoch_swap")) / 1e6, "ms"},
            {"control.ops_deferred",
             static_cast<double>(main_rig->emu.control_stats().ops_deferred +
                                 second->emu.control_stats().ops_deferred),
             "count"},
            {"runtime.op_us_p50", quantile(plain.op_ns, 0.5) / 1e3, "us"},
            {"runtime.op_us_p99", quantile(plain.op_ns, 0.99) / 1e3, "us"},
            {"runtime.tick_ms_p50", quantile(plain.tick_ns, 0.5) / 1e6, "ms"},
            {"runtime.tick_ms_p90", quantile(plain.tick_ns, 0.9) / 1e6, "ms"},
            {"runtime.op_self_us", median(durations(all, "bench.op", true)) / 1e3, "us"},
            {"runtime.tick_self_ms", median(tick_self) / 1e6, "ms"},
            {"runtime.prepare_ms", median(durations(all, "controller.prepare")) / 1e6, "ms"},
            {"runtime.commit_ms", median(durations(all, "controller.commit")) / 1e6, "ms"},
            {"runtime.ticks_deployed", static_cast<double>(traced.ticks_deployed), "count"},
            {"runtime.verify_rejects", static_cast<double>(traced.verify_rejects), "count"},
            {"profile.collect_ms", median(durations(all, "controller.profile")) / 1e6, "ms"},
            {"search.optimize_ms", median(durations(all, "controller.search")) / 1e6, "ms"},
            {"search.candidates_per_tick", frac(traced.candidates, traced.ticks_searched), "1/tick"},
            {"analysis.verify_ms", median(durations(all, "controller.verify")) / 1e6, "ms"},
            {"trace.overhead_frac", 1.0 - traced_mpps / plain_mpps, "fraction"},
            {"failed_frac", frac(failed, attempted), "fraction"},
        };
        std::filesystem::create_directories(args.out_dir);
        const std::string path = args.out_dir + "/" + args.workload + ".trace.json";
        if (!write_chrome_trace(path, all, host)) {
            std::fprintf(stderr, "hostbench: cannot write %s\n", path.c_str());
            return 1;
        }
        std::printf("hostbench: trace %s (%zu spans)\n", path.c_str(), all.size());
    }

    std::string out = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "hostbench: metric %s is not finite\n", m.name.c_str());
            return 1;
        }
        out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
               json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: hostbench --workload <fwd_tiny|flowcache_zipf|lb_churn> "
                     "--seed <n> --seconds <s> --trace <0|1> [--fault small-ring] "
                     "[--out-dir <dir>]\n");
        return 2;
    }
    try {
        return run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "hostbench: error: %s\n", e.what());
        return 1;
    }
}
