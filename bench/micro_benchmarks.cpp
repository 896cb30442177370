// micro_benchmarks — google-benchmark suite for the core data structures:
// match-engine lookups (the emulator's hot path), packet processing,
// candidate enumeration, and full optimizer rounds. These are sanity gauges
// for the library itself, not paper figures.
#include <benchmark/benchmark.h>

#include "apps/scenarios.h"
#include "bench/common.h"
#include "bench/report.h"
#include "ir/builder.h"
#include "search/optimizer.h"
#include "sim/emulator.h"
#include "sim/nic_model.h"
#include "synth/profile_synth.h"
#include "synth/program_synth.h"
#include "trafficgen/workload.h"

using namespace pipeleon;

namespace {

std::vector<ir::TableEntry> exact_entries(int n) {
    std::vector<ir::TableEntry> entries;
    for (int i = 0; i < n; ++i) {
        ir::TableEntry e;
        e.key = {ir::FieldMatch::exact(static_cast<std::uint64_t>(i))};
        e.action_index = 0;
        entries.push_back(e);
    }
    return entries;
}

void BM_ExactEngineLookup(benchmark::State& state) {
    ir::Table t = ir::TableSpec("t").key("f").noop_action("a").build();
    const sim::EntryList list =
        sim::EntryList::ordered(exact_entries(static_cast<int>(state.range(0))));
    sim::MatchEngine engine(t);
    engine.rebuild(list);
    std::uint64_t key = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.lookup({key++ % list.entries.size()}));
    }
}
BENCHMARK(BM_ExactEngineLookup)->Arg(64)->Arg(4096)->Arg(65536);

void BM_TernaryEngineLookup(benchmark::State& state) {
    ir::Table t =
        ir::TableSpec("t").key("f", ir::MatchKind::Ternary).noop_action("a").build();
    std::vector<ir::TableEntry> entries;
    for (int m = 0; m < state.range(0); ++m) {
        ir::TableEntry e;
        e.key = {ir::FieldMatch::ternary(0, 0xFFULL << (m % 32))};
        e.action_index = 0;
        e.priority = m;
        entries.push_back(e);
    }
    const sim::EntryList list = sim::EntryList::ordered(std::move(entries));
    sim::MatchEngine engine(t);
    engine.rebuild(list);
    std::uint64_t key = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.lookup({key++}));
    }
}
BENCHMARK(BM_TernaryEngineLookup)->Arg(5)->Arg(16)->Arg(32);

void BM_EmulatorProcess(benchmark::State& state) {
    ir::Program prog =
        ir::chain_of_exact_tables("bench", static_cast<int>(state.range(0)), 2, 1);
    sim::Emulator emu(sim::bluefield2_model(), prog, {});
    util::Rng rng(1);
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < state.range(0); ++i) {
        tuple.push_back({util::format("f%d", i), 0, 255});
    }
    trafficgen::FlowSet flows = trafficgen::FlowSet::generate(tuple, 128, rng);
    apps::install_flow_entries(emu, flows);
    trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 2);
    for (auto _ : state) {
        sim::Packet pkt = wl.next_packet(emu.fields());
        benchmark::DoNotOptimize(emu.process(pkt));
    }
}
BENCHMARK(BM_EmulatorProcess)->Arg(4)->Arg(12)->Arg(24);

// micro_batch — bursts through dispatch -> poll with a worker sweep.
// Compare items_per_second against BM_EmulatorProcess (the scalar loop) and
// across worker counts; the speedup is wall-clock, so UseRealTime() is
// required (the workers' cycles do not land on the main thread's CPU clock).
void BM_EmulatorProcessBatch(benchmark::State& state) {
    ir::Program prog = ir::chain_of_exact_tables("bench", 12, 2, 1);
    sim::Emulator emu(sim::bluefield2_model(), prog, {});
    emu.set_worker_count(static_cast<int>(state.range(0)));
    util::Rng rng(1);
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < 12; ++i) {
        tuple.push_back({util::format("f%d", i), 0, 255});
    }
    trafficgen::FlowSet flows = trafficgen::FlowSet::generate(tuple, 128, rng);
    apps::install_flow_entries(emu, flows);
    trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 2);
    constexpr std::size_t kBatch = 512;
    bench::RingPump pump(emu, kBatch);
    for (auto _ : state) {
        state.PauseTiming();
        sim::PacketBatch batch = wl.next_batch(emu.fields(), kBatch);
        state.ResumeTiming();
        benchmark::DoNotOptimize(pump.pump(batch));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_EmulatorProcessBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_OptimizerRound(benchmark::State& state) {
    synth::SynthConfig scfg;
    scfg.pipelets = static_cast<int>(state.range(0));
    scfg.min_pipelet_len = 2;
    scfg.max_pipelet_len = 3;
    synth::ProgramSynthesizer gen(scfg, 42);
    ir::Program prog = gen.generate("bench");
    synth::ProfileSynthesizer profgen(synth::heavy_drop_config(), 43);
    profile::RuntimeProfile prof = profgen.generate(prog);
    cost::CostModel model(sim::bluefield2_model().costs, {});
    search::OptimizerConfig cfg;
    cfg.top_k_fraction = 0.2;
    search::Optimizer optimizer(model, cfg);
    for (auto _ : state) {
        benchmark::DoNotOptimize(optimizer.optimize(prog, prof));
    }
}
BENCHMARK(BM_OptimizerRound)->Arg(6)->Arg(12)->Arg(18);

void BM_CostModelExpectedLatency(benchmark::State& state) {
    synth::SynthConfig scfg;
    scfg.pipelets = static_cast<int>(state.range(0));
    synth::ProgramSynthesizer gen(scfg, 7);
    ir::Program prog = gen.generate("bench");
    synth::ProfileSynthesizer profgen(synth::heavy_drop_config(), 8);
    profile::RuntimeProfile prof = profgen.generate(prog);
    cost::CostModel model(sim::bluefield2_model().costs, {});
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.expected_latency(prog, prof));
    }
}
BENCHMARK(BM_CostModelExpectedLatency)->Arg(8)->Arg(16);

}  // namespace

// Custom main (instead of benchmark_main) so the run also emits the
// machine-readable BenchReport that every bench binary produces.
int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    bench::Reporter rep("micro_benchmarks");
    rep.metric("benchmarks_run", static_cast<double>(ran));
    rep.write();
    return 0;
}
