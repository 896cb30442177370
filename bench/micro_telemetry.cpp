// micro_telemetry — the cost of each telemetry component, priced one at a
// time:
//
//   - histogram record: what every packet pays (CounterShard::latency_hist).
//   - registry add: one locked MetricsRegistry write, which the emulator
//     makes about a dozen times per poll boundary (twice that with tiered
//     caches) and the controller once or twice per tick.
//   - span: a ScopedSpan with the tracer off (one relaxed load) and on.
//
// The end-to-end packet time through the batched emulator is printed
// alongside, so each component can be read as a share of a packet.
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

double ns_per_op(Clock::time_point t0, Clock::time_point t1, int ops) {
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(ops);
}

// Keeps loop bodies alive without google-benchmark's DoNotOptimize.
volatile std::uint64_t g_sink = 0;

}  // namespace

int main() {
    bench::section("micro_telemetry: cost of each telemetry component");
    double hist_ns = 0.0, add_ns = 0.0;
    double span_off_ns = 0.0, span_on_ns = 0.0;

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
        Clock::time_point t0 = Clock::now();
        for (int i = 0; i < kOps; ++i) reg.add(c);
        Clock::time_point t1 = Clock::now();
        add_ns = ns_per_op(t0, t1, kOps);
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

    // End-to-end: the batched data plane with every recording site live.
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
    std::printf("%-34s %12.2f\n", "registry add (locked)", add_ns);
    std::printf("%-34s %12.2f\n", "span (tracer disabled)", span_off_ns);
    std::printf("%-34s %12.1f\n", "span (tracer enabled)", span_on_ns);
    std::printf("%-34s %12.1f\n", "emulated packet (end-to-end)", pkt_ns);
    std::printf("\nend-to-end %.2f Mpps\n", batch_pps / 1e6);

    bench::Reporter rep("micro_telemetry", sim::bluefield2_model());
    rep.param("packets", util::Json(std::uint64_t(kPackets)));
    rep.metric("histogram_record_ns", hist_ns);
    rep.metric("registry_add_ns", add_ns);
    rep.metric("span_disabled_ns", span_off_ns);
    rep.metric("span_enabled_ns", span_on_ns);
    rep.metric("end_to_end_packet_ns", pkt_ns);
    rep.metric("end_to_end_mpps", batch_pps / 1e6);
    rep.from_emulator(emu);
    rep.write();
    (void)g_sink;
    return 0;
}
