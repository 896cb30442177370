// Tests for the telemetry subsystem: histogram accuracy against exact
// quantiles, shard-merge associativity, span nesting, the bench-report
// schema, and the emulator's metrics, including registration and snapshots
// from another thread while the emulator polls.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "ir/builder.h"
#include "sim/emulator.h"
#include "sim/nic_model.h"
#include "telemetry/bench_report.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "trafficgen/workload.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"

using namespace pipeleon;
using telemetry::LatencyHistogram;

namespace {

// Quantization error bound: one sub-bucket out of 2^kSubBits per power of
// two, plus slack for interpolation at bucket edges.
constexpr double kRelTol = 1.0 / (1 << LatencyHistogram::kSubBits) + 0.002;

void expect_close(double got, double exact) {
    if (exact == 0.0) {
        EXPECT_LE(got, 1.0);
        return;
    }
    EXPECT_NEAR(got / exact, 1.0, kRelTol)
        << "got " << got << " exact " << exact;
}

}  // namespace

TEST(Histogram, PercentileAccuracyUniform) {
    LatencyHistogram h;
    std::vector<double> values;
    util::Rng rng(7);
    for (int i = 0; i < 200000; ++i) {
        double v = static_cast<double>(rng.next_u64() % 1000000);
        h.record(v);
        values.push_back(std::round(v));
    }
    ASSERT_EQ(h.count(), 200000u);
    for (double q : {50.0, 90.0, 99.0, 99.9}) {
        expect_close(h.percentile(q), util::percentile(values, q));
    }
    expect_close(h.mean(), util::mean(values));
}

TEST(Histogram, PercentileAccuracyLognormalAndExactExtrema) {
    LatencyHistogram h;
    std::vector<double> values;
    util::Rng rng(11);
    std::uint64_t lo = UINT64_MAX, hi = 0;
    for (int i = 0; i < 100000; ++i) {
        // Heavy-tailed: e^N(7, 1.5) spans several decades like real latency.
        std::uint64_t v =
            static_cast<std::uint64_t>(std::exp(rng.normal(7.0, 1.5)));
        h.record_value(v);
        values.push_back(static_cast<double>(v));
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    for (double q : {50.0, 90.0, 99.0}) {
        expect_close(h.percentile(q), util::percentile(values, q));
    }
    // Extrema are tracked exactly, not quantized.
    EXPECT_EQ(h.min(), lo);
    EXPECT_EQ(h.max(), hi);
    // Quantiles never escape the observed range.
    EXPECT_GE(h.percentile(0.0), static_cast<double>(lo));
    EXPECT_LE(h.percentile(100.0), static_cast<double>(hi));
}

TEST(Histogram, MergeAssociativeAndOrderIndependent) {
    util::Rng rng(3);
    std::vector<LatencyHistogram> parts(4);
    LatencyHistogram whole;
    for (int p = 0; p < 4; ++p) {
        for (int i = 0; i < 5000; ++i) {
            std::uint64_t v = rng.next_u64() % (1ULL << (10 + 4 * p));
            parts[p].record_value(v);
            whole.record_value(v);
        }
    }
    // (((a+b)+c)+d)  vs  (a+(b+(c+d)))  vs  recording everything directly.
    LatencyHistogram left;
    for (const auto& p : parts) left.merge(p);
    LatencyHistogram right;
    for (int p = 3; p >= 0; --p) right.merge(parts[p]);

    for (const LatencyHistogram* m : {&left, &right}) {
        EXPECT_EQ(m->count(), whole.count());
        EXPECT_EQ(m->min(), whole.min());
        EXPECT_EQ(m->max(), whole.max());
        EXPECT_DOUBLE_EQ(m->sum(), whole.sum());
        EXPECT_EQ(m->buckets(), whole.buckets());
    }
    EXPECT_DOUBLE_EQ(left.p99(), whole.p99());
    EXPECT_DOUBLE_EQ(right.p999(), whole.p999());
}

TEST(MetricsRegistry, RegisterIsIdempotentAndKindChecked) {
    telemetry::MetricsRegistry reg;
    telemetry::MetricId a = reg.counter("x");
    EXPECT_EQ(reg.counter("x"), a);
    EXPECT_THROW(reg.gauge("x"), std::logic_error);
    EXPECT_THROW(reg.histogram("x"), std::logic_error);
    telemetry::MetricId g = reg.gauge("g");
    reg.set_gauge(g, 2.5);
    EXPECT_DOUBLE_EQ(reg.snapshot().gauge("g"), 2.5);
}

TEST(Tracer, SpanNestingAndOrdering) {
    telemetry::Tracer& tracer = telemetry::Tracer::global();
    tracer.clear();
    tracer.set_enabled(true);
    {
        telemetry::ScopedSpan outer("outer");
        {
            telemetry::ScopedSpan inner("inner");
        }
    }
    tracer.set_enabled(false);

    std::vector<telemetry::TraceEvent> events = tracer.events();
    ASSERT_EQ(events.size(), 2u);
    // Sorted by start time: outer starts first; inner nests inside it.
    EXPECT_STREQ(events[0].name, "outer");
    EXPECT_STREQ(events[1].name, "inner");
    EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
    EXPECT_GE(events[0].ts_ns + events[0].dur_ns,
              events[1].ts_ns + events[1].dur_ns);

    util::Json chrome = tracer.to_chrome_json();
    ASSERT_NE(chrome.find("traceEvents"), nullptr);
    EXPECT_EQ(chrome.at("traceEvents").as_array().size(), 2u);
    EXPECT_EQ(chrome.at("traceEvents").at(0).at("ph").as_string(), "X");
    tracer.clear();
}

TEST(Tracer, DisabledSpansRecordNothing) {
    telemetry::Tracer& tracer = telemetry::Tracer::global();
    tracer.clear();
    tracer.set_enabled(false);
    for (int i = 0; i < 100; ++i) {
        TELEMETRY_SPAN("never");
    }
    EXPECT_TRUE(tracer.events().empty());
    // A span constructed while disabled stays inert even if tracing turns on
    // mid-scope (no half-measured events).
    {
        telemetry::ScopedSpan span("straddler");
        tracer.set_enabled(true);
    }
    tracer.set_enabled(false);
    EXPECT_TRUE(tracer.events().empty());
}

TEST(BenchReport, SchemaRoundTripValidates) {
    telemetry::BenchReport report("unit_test", "BlueField2");
    report.set_param("packets", util::Json(std::uint64_t(1000)));
    report.set_metric("throughput_gbps", 98.5);
    report.set_metric("custom_metric", 1.25);

    util::Json j = report.to_json();
    EXPECT_TRUE(telemetry::BenchReport::validate(j).empty());
    // Round-trip through text keeps it conformant.
    util::Json parsed = util::Json::parse(j.dump(2));
    EXPECT_TRUE(telemetry::BenchReport::validate(parsed).empty());
    EXPECT_EQ(parsed.at("bench").as_string(), "unit_test");
    EXPECT_DOUBLE_EQ(parsed.at("metrics").at("throughput_gbps").as_double(),
                     98.5);
    // Required metrics are pre-seeded even when the bench never set them.
    for (const std::string& key : telemetry::BenchReport::required_metrics()) {
        EXPECT_NE(parsed.at("metrics").find(key), nullptr) << key;
    }
}

TEST(BenchReport, ValidateCatchesProblems) {
    // Each mutation away from a valid report must be reported.
    telemetry::BenchReport good("b", "m");
    util::Json base = good.to_json();
    EXPECT_TRUE(telemetry::BenchReport::validate(base).empty());

    util::Json wrong_schema = base;
    wrong_schema.as_object().set("schema", util::Json("nope/9"));
    EXPECT_FALSE(telemetry::BenchReport::validate(wrong_schema).empty());

    util::Json empty_bench = base;
    empty_bench.as_object().set("bench", util::Json(""));
    EXPECT_FALSE(telemetry::BenchReport::validate(empty_bench).empty());

    util::Json missing_metric = base;
    util::Json metrics = util::Json::object();
    metrics.as_object().set("throughput_gbps", util::Json(1.0));
    missing_metric.as_object().set("metrics", metrics);  // drops latency_p50…
    EXPECT_FALSE(telemetry::BenchReport::validate(missing_metric).empty());

    EXPECT_FALSE(telemetry::BenchReport::validate(util::Json(3.0)).empty());
}

TEST(BenchReport, CsvSeriesFormat) {
    telemetry::CsvSeries series({"t", "gbps"});
    series.add_row({0.0, 98.5});
    series.add_row({5.0, 100.0});
    EXPECT_EQ(series.rows(), 2u);
    std::string csv = series.to_csv();
    EXPECT_EQ(csv.substr(0, csv.find('\n')), "t,gbps");
    EXPECT_NE(csv.find("0,98.5"), std::string::npos);
    EXPECT_NE(csv.find("5,100"), std::string::npos);
}

TEST(EmulatorTelemetry, LatencyHistogramMatchesBatchResults) {
    // The emulator's per-packet histogram must agree with the latencies the
    // polls themselves return.
    ir::Program prog = ir::chain_of_exact_tables("t", 4, 2, 1);
    sim::Emulator emu(sim::bluefield2_model(), prog, {});
    emu.set_worker_count(3);

    util::Rng rng(5);
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < 4; ++i) tuple.push_back({"f" + std::to_string(i), 0, 31});
    trafficgen::FlowSet flows = trafficgen::FlowSet::generate(tuple, 64, rng);
    trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 6);

    util::RunningStats expected;
    std::uint64_t n = 0;
    sim::RssDispatcher io = emu.make_rings();
    for (int b = 0; b < 5; ++b) {
        io.dispatch_batch(wl.next_batch(emu.fields(), 200));
        sim::BatchResult r = emu.poll(io);
        for (const sim::ProcessResult& pr : r.results) {
            expected.add(pr.cycles);
            ++n;
        }
    }
    telemetry::LatencyHistogram hist = emu.latency_histogram();
    EXPECT_EQ(hist.count(), n);
    // record() rounds fractional cycle counts to integer units, moving each
    // sample by at most 0.5 — so the means differ by at most 0.5.
    EXPECT_NEAR(hist.mean(), expected.mean(), 0.5);

    telemetry::MetricsSnapshot snap = emu.telemetry_snapshot();
    EXPECT_EQ(snap.counter("sim.packets"), n);
    EXPECT_EQ(snap.counter("sim.batches"), 5u);
    ASSERT_NE(snap.histogram("sim.batch_wall_ns"), nullptr);
    EXPECT_EQ(snap.histogram("sim.batch_wall_ns")->count, 5u);
}

TEST(EmulatorTelemetry, EpochAndDropCountersTrack) {
    ir::Program prog = ir::chain_of_exact_tables("t", 2, 2, 1);
    sim::Emulator emu(sim::bluefield2_model(), prog, {});

    sim::EpochSwap swap;
    swap.program = prog;
    emu.apply_epoch(std::move(swap));
    // No entries installed: every packet misses and (chain tables default to
    // noop) none drop; drive a batch to tick the counters.
    util::Rng rng(5);
    std::vector<trafficgen::FieldRange> tuple = {{"f0", 0, 3}, {"f1", 0, 3}};
    trafficgen::FlowSet flows = trafficgen::FlowSet::generate(tuple, 8, rng);
    trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 1);
    sim::RssDispatcher io = emu.make_rings();
    io.dispatch_batch(wl.next_batch(emu.fields(), 50));
    emu.poll(io);

    telemetry::MetricsSnapshot snap = emu.telemetry_snapshot();
    EXPECT_EQ(snap.counter("sim.epochs"), 1u);
    EXPECT_EQ(snap.counter("sim.packets"), 50u);
    EXPECT_EQ(snap.counter("sim.drops"),
              static_cast<std::uint64_t>(emu.packets_dropped()));
}

TEST(EmulatorTelemetry, RegisterAndSnapshotWhilePolling) {
    // Emulator::metrics() lets an app register its own metrics while polls
    // run (Controller registers its ctl.* counters this way). A second
    // thread registers new counters and takes snapshots while this thread
    // polls two workers. Under TSan this checks that no registry write
    // races a worker; the final count checks that every poll's packets
    // reached sim.packets.
    ir::Program prog = ir::chain_of_exact_tables("t", 4, 2, 1);
    sim::Emulator emu(sim::bluefield2_model(), prog, {});
    emu.set_worker_count(2);
    ASSERT_EQ(emu.worker_count(), 2);

    util::Rng rng(13);
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < 4; ++i) {
        tuple.push_back({util::format("f%d", i), 0, 255});
    }
    trafficgen::FlowSet flows = trafficgen::FlowSet::generate(tuple, 256, rng);
    trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 7);
    const sim::PacketBatch burst = wl.next_batch(emu.fields(), 256);
    sim::RssDispatcher io = emu.make_rings();

    // Each registration searches the names linearly, so the thread stops
    // at 4096 new names to keep the test short.
    std::atomic<bool> done{false};
    std::uint64_t registered = 0;
    std::thread side([&] {
        while (registered < 4096 && !done.load(std::memory_order_acquire)) {
            emu.metrics().counter(util::format(
                "app.c%llu", static_cast<unsigned long long>(registered)));
            if (++registered % 64 == 0) (void)emu.telemetry_snapshot();
        }
    });
    std::uint64_t polled = 0;
    for (int i = 0; i < 300; ++i) {
        io.dispatch_batch(burst);
        polled += emu.poll(io).ring_completed;
    }
    done.store(true, std::memory_order_release);
    side.join();

    EXPECT_GT(registered, 0u);
    EXPECT_EQ(polled, 300u * burst.size());
    EXPECT_EQ(emu.telemetry_snapshot().counter("sim.packets"), polled);
}
