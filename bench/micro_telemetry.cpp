// micro_telemetry — quantifies the telemetry subsystem's hot-path cost
// (ISSUE 4) and provides the cross-build check that PIPELEON_TELEMETRY=OFF
// is genuinely free. Two kinds of numbers:
//
//   - component costs: histogram record, sharded counter bump, shard merge,
//     and a ScopedSpan in both tracer states. These exist only in the ON
//     build (the OFF build reports them as 0).
//   - end-to-end throughput: packets/s through the batched emulator. This
//     is the number to compare across ON and OFF builds — the OFF build
//     compiles every recording site away, so the two builds should match
//     within noise; the ON build's gap over OFF is the real per-packet tax.
//
// The emitted BENCH_micro_telemetry.json carries `telemetry_enabled` so a
// harness can diff the two builds mechanically.
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "apps/scenarios.h"
#include "bench/common.h"
#include "bench/report.h"
#include "ir/builder.h"
#include "sim/nic_model.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

using namespace pipeleon;

namespace {

using Clock = std::chrono::steady_clock;

#if PIPELEON_TELEMETRY
double ns_per_op(Clock::time_point t0, Clock::time_point t1, int ops) {
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(ops);
}
#endif

// Keeps loop bodies alive without google-benchmark's DoNotOptimize.
volatile std::uint64_t g_sink = 0;

}  // namespace

int main() {
    bench::section("micro_telemetry: hot-path cost of the telemetry "
                   "subsystem");
    double hist_ns = 0.0, shard_ns = 0.0, merge_ns = 0.0;
    double span_off_ns = 0.0, span_on_ns = 0.0;

#if PIPELEON_TELEMETRY
    const int kOps = bench::BenchEnv::quick() ? 200000 : 2000000;
    {
        telemetry::LatencyHistogram h;
        Clock::time_point t0 = Clock::now();
        for (int i = 0; i < kOps; ++i) h.record_value(static_cast<std::uint64_t>(i) % 4096);
        Clock::time_point t1 = Clock::now();
        hist_ns = ns_per_op(t0, t1, kOps);
        g_sink = g_sink + h.count();
    }
    {
        telemetry::MetricsRegistry reg;
        telemetry::MetricId c = reg.counter("bench.counter");
        reg.set_shard_count(1);
        Clock::time_point t0 = Clock::now();
        for (int i = 0; i < kOps; ++i) reg.shard_add(0, c);
        Clock::time_point t1 = Clock::now();
        shard_ns = ns_per_op(t0, t1, kOps);

        // Merge cost for a realistic registry: 8 lanes, a few counters and
        // one histogram per lane, folded once per batch boundary.
        telemetry::MetricId hid = reg.histogram("bench.hist");
        reg.set_shard_count(8);
        const int kMerges = bench::BenchEnv::quick() ? 200 : 2000;
        t0 = Clock::now();
        for (int m = 0; m < kMerges; ++m) {
            for (std::size_t s = 0; s < 8; ++s) {
                reg.shard_add(s, c, 2);
                reg.shard_record(s, hid, 100.0 + static_cast<double>(m % 50));
            }
            reg.merge_shards();
        }
        t1 = Clock::now();
        merge_ns = ns_per_op(t0, t1, kMerges);
        g_sink = g_sink + reg.snapshot().counter("bench.counter");
    }
    {
        telemetry::Tracer::global().set_enabled(false);
        Clock::time_point t0 = Clock::now();
        for (int i = 0; i < kOps; ++i) {
            TELEMETRY_SPAN("bench.span");
        }
        Clock::time_point t1 = Clock::now();
        span_off_ns = ns_per_op(t0, t1, kOps);

        telemetry::Tracer::global().set_enabled(true);
        const int kSpans = bench::BenchEnv::quick() ? 20000 : 50000;
        t0 = Clock::now();
        for (int i = 0; i < kSpans; ++i) {
            TELEMETRY_SPAN("bench.span");
        }
        t1 = Clock::now();
        span_on_ns = ns_per_op(t0, t1, kSpans);
        telemetry::Tracer::global().set_enabled(false);
        telemetry::Tracer::global().clear();
    }
#endif

    // End-to-end: the batched data plane, every telemetry site live (or
    // compiled away). This throughput is the ON-vs-OFF comparison point.
    constexpr int kChainLen = 8;
    ir::Program prog = ir::chain_of_exact_tables("tele", kChainLen, 2, 1);
    sim::Emulator emu(sim::bluefield2_model(), prog, {});
    emu.set_worker_count(4);
    util::Rng rng(29);
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < kChainLen; ++i) {
        tuple.push_back({util::format("f%d", i), 0, 255});
    }
    trafficgen::FlowSet flows = trafficgen::FlowSet::generate(tuple, 256, rng);
    apps::install_flow_entries(emu, flows);
    trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 31);

    const int kPackets = bench::BenchEnv::quick() ? 40000 : 400000;
    constexpr std::size_t kBatch = 1024;
    bench::RingPump pump(emu, kBatch);
    // Warm up caches and worker threads before timing.
    for (int i = 0; i < 4; ++i) pump.pump(wl.next_batch(emu.fields(), kBatch));
    Clock::time_point t0 = Clock::now();
    int done = 0;
    while (done < kPackets) {
        pump.pump(wl.next_batch(emu.fields(), kBatch));
        done += static_cast<int>(kBatch);
    }
    Clock::time_point t1 = Clock::now();
    const double batch_pps =
        done / std::chrono::duration<double>(t1 - t0).count();
    const double pkt_ns = 1e9 / batch_pps;

    std::printf("\n%-34s %12s\n", "operation", "ns/op");
    std::printf("%-34s %12.2f\n", "histogram record", hist_ns);
    std::printf("%-34s %12.2f\n", "sharded counter bump", shard_ns);
    std::printf("%-34s %12.1f\n", "merge_shards (8 lanes)", merge_ns);
    std::printf("%-34s %12.2f\n", "span (tracer disabled)", span_off_ns);
    std::printf("%-34s %12.1f\n", "span (tracer enabled)", span_on_ns);
    std::printf("%-34s %12.1f\n", "emulated packet (end-to-end)", pkt_ns);
    std::printf("\ntelemetry compiled %s; end-to-end %.2f Mpps\n",
                telemetry::kEnabled ? "IN" : "OUT", batch_pps / 1e6);
    if (telemetry::kEnabled) {
        std::printf("compare against a -DPIPELEON_TELEMETRY=OFF build: the\n"
                    "end-to-end rate is the only number that should move.\n");
    }

    bench::Reporter rep("micro_telemetry", sim::bluefield2_model());
    rep.param("telemetry_enabled", util::Json(std::uint64_t(telemetry::kEnabled ? 1 : 0)));
    rep.param("packets", util::Json(std::uint64_t(kPackets)));
    rep.metric("histogram_record_ns", hist_ns);
    rep.metric("shard_add_ns", shard_ns);
    rep.metric("merge_shards_ns", merge_ns);
    rep.metric("span_disabled_ns", span_off_ns);
    rep.metric("span_enabled_ns", span_on_ns);
    rep.metric("end_to_end_packet_ns", pkt_ns);
    rep.metric("end_to_end_mpps", batch_pps / 1e6);
    rep.from_emulator(emu);
    rep.write();
    (void)g_sink;
    return 0;
}
