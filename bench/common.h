// bench/common.h — shared measurement helpers for the figure benches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "sim/emulator.h"
#include "telemetry/telemetry.h"
#include "trafficgen/workload.h"
#include "util/stats.h"
#include "util/strings.h"

namespace pipeleon::bench {

/// Benches measure the optimization and data-plane hot paths, so nothing
/// observational may sit inside the measured loops: including this header
/// configures the process once — the plan-apply verifier (ISSUE 2) goes off
/// (optimizer-output correctness is tests/test_verify.cpp's job, not a
/// bench's) and the telemetry tracer stays disabled so span sites cost one
/// relaxed load. The sharded metrics/histogram path stays on: it is part of
/// the data plane being measured (micro_telemetry quantifies it).
struct BenchEnv {
    BenchEnv() {
        analysis::set_verify_mode(analysis::VerifyMode::Off);
        telemetry::Tracer::global().set_enabled(false);
    }

    /// CI smoke mode: benches scale their iteration counts down when
    /// PIPELEON_BENCH_QUICK is set (schema and code paths stay identical,
    /// only the numbers get noisier).
    static bool quick() {
        const char* v = std::getenv("PIPELEON_BENCH_QUICK");
        return v != nullptr && *v != '\0' && *v != '0';
    }
};
inline const BenchEnv kBenchEnv{};

/// One measurement window: streams `packets` packets and advances the
/// emulator clock by `window_seconds`.
struct WindowResult {
    double mean_cycles = 0.0;
    double drop_rate = 0.0;
    double throughput_gbps = 0.0;
    std::uint64_t packets = 0;
};

/// The ring-front-end pump (ISSUE 6): owns an RSS dispatcher built from the
/// emulator and replays bursts through dispatch -> poll, the emulator's only
/// batch ingress. Build it after setting the worker count: the dispatcher
/// gets one queue per worker.
///
/// Rings are sized to twice the largest expected burst, so the closed-loop
/// pump never overflow-drops and one poll completes each burst. On the
/// default single-worker emulator every packet runs exactly as in a
/// process() loop, so the emulated-cycle numbers the benches print are the
/// scalar oracle's.
class RingPump {
public:
    explicit RingPump(sim::Emulator& emulator, std::size_t max_burst = 1024)
        : emulator_(emulator) {
        sim::RingConfig cfg;
        cfg.rx_capacity = 2 * std::max<std::size_t>(1, max_burst);
        rings_ = emulator.make_rings(cfg);
    }

    /// Dispatches the burst at the current virtual time and polls it to
    /// completion. The returned result is reused across calls.
    const sim::BatchResult& pump(const sim::PacketBatch& batch) {
        rings_->dispatch_batch(batch, emulator_.now_seconds());
        emulator_.poll(*rings_, out_);
        return out_;
    }

    sim::RssDispatcher& rings() { return *rings_; }

private:
    sim::Emulator& emulator_;
    std::optional<sim::RssDispatcher> rings_;
    sim::BatchResult out_;
};

/// Pumps the window through the descriptor-ring data plane: packets are
/// generated and dispatched `batch_size` at a time, each burst is polled to
/// completion, and the clock advances per burst. With the emulator's
/// default single worker the packet-level execution is identical to a
/// process() loop.
inline WindowResult run_window(sim::Emulator& emulator,
                               trafficgen::Workload& workload, int packets,
                               double window_seconds,
                               std::size_t batch_size = 256) {
    util::RunningStats cycles;
    std::uint64_t dropped = 0;
    if (batch_size == 0) batch_size = 1;
    RingPump pump(emulator, batch_size);
    int done = 0;
    while (done < packets) {
        std::size_t n = std::min<std::size_t>(
            batch_size, static_cast<std::size_t>(packets - done));
        sim::PacketBatch batch = workload.next_batch(emulator.fields(), n);
        const sim::BatchResult& r = pump.pump(batch);
        for (const sim::ProcessResult& pr : r.results) cycles.add(pr.cycles);
        dropped += r.dropped;
        emulator.advance_time(window_seconds * static_cast<double>(n) /
                              static_cast<double>(std::max(1, packets)));
        done += static_cast<int>(n);
    }
    WindowResult w;
    w.mean_cycles = cycles.mean();
    w.packets = static_cast<std::uint64_t>(packets);
    w.drop_rate = packets > 0
                      ? static_cast<double>(dropped) / static_cast<double>(packets)
                      : 0.0;
    w.throughput_gbps = emulator.throughput_gbps(w.mean_cycles);
    return w;
}

inline void section(const std::string& title) {
    std::printf("\n=== %s ===\n", title.c_str());
}

inline void print_cdf(const std::string& label, const std::vector<double>& xs) {
    util::EmpiricalCdf cdf(xs);
    std::printf("%s (n=%zu):\n%s", label.c_str(), cdf.size(),
                cdf.to_table(11).c_str());
}

}  // namespace pipeleon::bench
