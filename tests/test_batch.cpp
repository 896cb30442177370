// Tests for the batched multi-worker data plane (sim/batch.h,
// sim/counter_shard.h, Emulator::process_batch): deterministic-mode
// bit-equivalence with the scalar loop, RSS steering stability, control-plane
// fencing against in-flight batches, and wall-clock scaling across workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "analysis/pipelet.h"
#include "apps/scenarios.h"
#include "ir/builder.h"
#include "opt/transform.h"
#include "sim/emulator.h"
#include "sim/nic_model.h"
#include "trafficgen/workload.h"

namespace pipeleon::sim {
namespace {

constexpr int kChainLen = 6;
constexpr int kFlows = 128;

trafficgen::FlowSet chain_flows(util::Rng& rng) {
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < kChainLen; ++i) {
        tuple.push_back({"f" + std::to_string(i), 0, 255});
    }
    return trafficgen::FlowSet::generate(tuple, kFlows, rng);
}

/// The chain program with a flow cache over its first half, built the same
/// way the figure benches build cached layouts (form_pipelets + apply_plans),
/// so batches exercise cache learning, replay, and replay counters.
ir::Program cached_chain() {
    ir::Program prog = ir::chain_of_exact_tables("p", kChainLen, 2, 1);
    analysis::PipeletOptions popt;
    popt.max_length = kChainLen + 2;
    auto pipelets = analysis::form_pipelets(prog, popt);
    opt::PipeletPlan plan;
    plan.pipelet_id = 0;
    for (std::size_t i = 0; i < pipelets[0].nodes.size(); ++i) {
        plan.layout.order.push_back(i);
    }
    plan.layout.caches = {opt::Segment{0, 2}};
    plan.layout.cache_config.capacity = 4096;
    plan.layout.cache_config.max_insert_per_sec = 1e9;
    return opt::apply_plans(prog, pipelets, {plan});
}

/// Pumps `packets` packets through `emu` via the scalar process() loop when
/// `batched` is false, or via process_batch in chunks of `batch_size`.
void pump(Emulator& emu, trafficgen::Workload& wl, int packets, bool batched,
          std::size_t batch_size = 64) {
    if (!batched) {
        for (int i = 0; i < packets; ++i) {
            Packet pkt = wl.next_packet(emu.fields());
            emu.process(pkt);
        }
        return;
    }
    int done = 0;
    while (done < packets) {
        std::size_t n = std::min<std::size_t>(
            batch_size, static_cast<std::size_t>(packets - done));
        PacketBatch batch = wl.next_batch(emu.fields(), n);
        BatchResult r = emu.process_batch(batch);
        ASSERT_EQ(r.results.size(), n);
        done += static_cast<int>(n);
    }
}

/// Bit-for-bit comparison of two exported counter windows.
void expect_counters_identical(const profile::RawCounters& a,
                               const profile::RawCounters& b) {
    EXPECT_EQ(a.action_hits, b.action_hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.branch_true, b.branch_true);
    EXPECT_EQ(a.branch_false, b.branch_false);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.cache_misses, b.cache_misses);
    EXPECT_EQ(a.inserts_dropped, b.inserts_dropped);
    EXPECT_EQ(a.replays, b.replays);
    EXPECT_EQ(a.entries, b.entries);
}

void expect_latency_identical(const util::RunningStats& a,
                              const util::RunningStats& b) {
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.sum(), b.sum());  // bit-identical, not just approximately
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
}

/// (a) Deterministic mode reproduces the scalar loop bit-for-bit — counters
/// AND float latency accumulation — even with many workers configured.
TEST(Batch, DeterministicMatchesScalarPlainChain) {
    ir::Program prog = ir::chain_of_exact_tables("p", kChainLen, 2, 1);
    Emulator scalar(bluefield2_model(), prog, {});
    Emulator batched(bluefield2_model(), prog, {});
    batched.set_worker_count(4);
    batched.set_deterministic(true);

    util::Rng rng(7);
    trafficgen::FlowSet flows = chain_flows(rng);
    apps::install_flow_entries(scalar, flows);
    apps::install_flow_entries(batched, flows);

    trafficgen::Workload wl_a(flows, trafficgen::Locality::Zipf, 1.1, 3);
    trafficgen::Workload wl_b(flows, trafficgen::Locality::Zipf, 1.1, 3);
    pump(scalar, wl_a, 2000, /*batched=*/false);
    pump(batched, wl_b, 2000, /*batched=*/true);

    EXPECT_EQ(scalar.packets_processed(), batched.packets_processed());
    EXPECT_EQ(scalar.packets_dropped(), batched.packets_dropped());
    expect_counters_identical(scalar.read_counters(), batched.read_counters());
    expect_latency_identical(scalar.latency_stats(), batched.latency_stats());
}

/// Same equivalence over a cached program (cache learning order, LRU state,
/// replay counters) and with sampled instrumentation, whose per-packet
/// sampling decision must follow the global arrival sequence in both paths.
TEST(Batch, DeterministicMatchesScalarCachedProgramSampled) {
    ir::Program prog = cached_chain();
    profile::InstrumentationConfig instr;
    instr.sampling_rate = 1.0 / 8.0;
    Emulator scalar(bluefield2_model(), prog, instr);
    Emulator batched(bluefield2_model(), prog, instr);
    batched.set_worker_count(8);
    batched.set_deterministic(true);

    util::Rng rng(7);
    trafficgen::FlowSet flows = chain_flows(rng);
    apps::install_flow_entries(scalar, flows);
    apps::install_flow_entries(batched, flows);

    trafficgen::Workload wl_a(flows, trafficgen::Locality::Zipf, 1.1, 5);
    trafficgen::Workload wl_b(flows, trafficgen::Locality::Zipf, 1.1, 5);
    pump(scalar, wl_a, 3000, /*batched=*/false, 96);
    pump(batched, wl_b, 3000, /*batched=*/true, 96);

    profile::RawCounters ca = scalar.read_counters();
    profile::RawCounters cb = batched.read_counters();
    // The cache must actually be exercised for this test to mean anything.
    std::uint64_t hits = 0;
    for (std::uint64_t h : ca.cache_hits) hits += h;
    EXPECT_GT(hits, 0u);
    EXPECT_FALSE(ca.replays.empty());
    expect_counters_identical(ca, cb);
    expect_latency_identical(scalar.latency_stats(), batched.latency_stats());
}

/// A single-worker emulator takes the sequential path even without
/// deterministic mode — also bit-identical to the scalar loop.
TEST(Batch, SingleWorkerMatchesScalar) {
    ir::Program prog = cached_chain();
    Emulator scalar(bluefield2_model(), prog, {});
    Emulator batched(bluefield2_model(), prog, {});
    ASSERT_EQ(batched.worker_count(), 1);

    util::Rng rng(9);
    trafficgen::FlowSet flows = chain_flows(rng);
    apps::install_flow_entries(scalar, flows);
    apps::install_flow_entries(batched, flows);

    trafficgen::Workload wl_a(flows, trafficgen::Locality::Uniform, 0.0, 4);
    trafficgen::Workload wl_b(flows, trafficgen::Locality::Uniform, 0.0, 4);
    pump(scalar, wl_a, 1500, /*batched=*/false);
    pump(batched, wl_b, 1500, /*batched=*/true, 50);

    expect_counters_identical(scalar.read_counters(), batched.read_counters());
    expect_latency_identical(scalar.latency_stats(), batched.latency_stats());
}

/// Parallel mode merges the same integer counters as the scalar loop (only
/// float latency accumulation order may differ).
TEST(Batch, ParallelCountersMatchScalar) {
    ir::Program prog = ir::chain_of_exact_tables("p", kChainLen, 2, 1);
    Emulator scalar(bluefield2_model(), prog, {});
    Emulator batched(bluefield2_model(), prog, {});
    batched.set_worker_count(4);
    ASSERT_FALSE(batched.deterministic());

    util::Rng rng(11);
    trafficgen::FlowSet flows = chain_flows(rng);
    apps::install_flow_entries(scalar, flows);
    apps::install_flow_entries(batched, flows);

    trafficgen::Workload wl_a(flows, trafficgen::Locality::Zipf, 1.1, 6);
    trafficgen::Workload wl_b(flows, trafficgen::Locality::Zipf, 1.1, 6);
    pump(scalar, wl_a, 2000, /*batched=*/false);
    pump(batched, wl_b, 2000, /*batched=*/true);

    profile::RawCounters ca = scalar.read_counters();
    profile::RawCounters cb = batched.read_counters();
    EXPECT_EQ(ca.action_hits, cb.action_hits);
    EXPECT_EQ(ca.misses, cb.misses);
    EXPECT_EQ(scalar.packets_processed(), batched.packets_processed());
    EXPECT_EQ(scalar.latency_stats().count(), batched.latency_stats().count());
    // Means agree closely even though the float accumulation order differs.
    EXPECT_NEAR(scalar.latency_stats().mean(), batched.latency_stats().mean(),
                1e-6 * scalar.latency_stats().mean() + 1e-9);
}

/// (b) Steering is a pure function of the packet's key fields and the worker
/// count: the same flow lands on the same worker in every batch, and a
/// many-flow workload spreads across workers.
TEST(Batch, SteeringStableAcrossBatchesAndSpreads) {
    ir::Program prog = ir::chain_of_exact_tables("p", kChainLen, 2, 1);
    Emulator emu(bluefield2_model(), prog, {});
    emu.set_worker_count(4);

    util::Rng rng(13);
    trafficgen::FlowSet flows = chain_flows(rng);
    apps::install_flow_entries(emu, flows);
    trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 8);

    // First pass: record each flow's worker (keyed by flow field values).
    std::map<std::vector<std::uint64_t>, int> flow_worker;
    std::vector<bool> used(4, false);
    for (int round = 0; round < 4; ++round) {
        PacketBatch batch = wl.next_batch(emu.fields(), 256);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            std::vector<std::uint64_t> key;
            for (int f = 0; f < kChainLen; ++f) {
                key.push_back(
                    batch[i].get(emu.fields().intern("f" + std::to_string(f))));
            }
            int w = emu.steer_worker(batch[i]);
            ASSERT_GE(w, 0);
            ASSERT_LT(w, 4);
            used[w] = true;
            auto [it, inserted] = flow_worker.emplace(std::move(key), w);
            if (!inserted) {
                EXPECT_EQ(it->second, w)
                    << "flow steered to a different worker across batches";
            }
        }
        emu.process_batch(batch);  // processing must not perturb steering
    }
    int used_count = 0;
    for (bool u : used) used_count += u;
    EXPECT_GT(used_count, 1) << "128 flows all hashed to one of 4 workers";
}

/// (c) Control-plane mutations from another thread while batches are in
/// flight: the fence serializes them, so nothing corrupts and every packet
/// is accounted. Run under TSan to verify the absence of data races.
TEST(Batch, ControlPlaneUpdatesDuringBatchesAreFenced) {
    ir::Program prog = cached_chain();
    Emulator emu(bluefield2_model(), prog, {});
    emu.set_worker_count(4);

    util::Rng rng(17);
    trafficgen::FlowSet flows = chain_flows(rng);
    apps::install_flow_entries(emu, flows);
    trafficgen::Workload wl(flows, trafficgen::Locality::Zipf, 1.1, 2);

    std::atomic<bool> stop{false};
    std::thread control([&] {
        std::uint64_t next_key = 100000;
        while (!stop.load(std::memory_order_relaxed)) {
            ir::TableEntry e;
            e.key = {ir::FieldMatch::exact(next_key++)};
            e.action_index = 0;
            emu.insert_entry("t0", e);
            emu.invalidate_caches_covering("t1");
            emu.read_counters();
            std::this_thread::yield();
        }
    });

    constexpr int kPackets = 6000;
    int done = 0;
    while (done < kPackets) {
        PacketBatch batch = wl.next_batch(
            emu.fields(), std::min<std::size_t>(
                              128, static_cast<std::size_t>(kPackets - done)));
        BatchResult r = emu.process_batch(batch);
        EXPECT_EQ(r.results.size(), batch.size());
        done += static_cast<int>(batch.size());
    }
    stop.store(true);
    control.join();

    EXPECT_EQ(emu.packets_processed(), static_cast<std::uint64_t>(kPackets));
    // The inserted entries are all present (none lost mid-batch).
    EXPECT_GT(emu.entry_count("t0"), static_cast<std::size_t>(kFlows));
    profile::RawCounters c = emu.read_counters();
    std::uint64_t hits = 0, misses = 0;
    for (std::size_t n = 0; n < c.action_hits.size(); ++n) {
        for (std::uint64_t h : c.action_hits[n]) hits += h;
        misses += c.misses[n];
    }
    EXPECT_GT(hits + misses, 0u);
}

/// Worker count is clamped to the NIC model's core count.
TEST(Batch, WorkerCountClampedToModelCores) {
    ir::Program prog = ir::chain_of_exact_tables("p", 3, 2, 1);
    Emulator emu(bluefield2_model(), prog, {});  // 8 cores
    emu.set_worker_count(64);
    EXPECT_EQ(emu.worker_count(), 8);
    emu.set_worker_count(0);
    EXPECT_EQ(emu.worker_count(), 1);
    emu.set_worker_count(-3);
    EXPECT_EQ(emu.worker_count(), 1);
}

/// (d) Wall-clock throughput is monotonically non-decreasing (with a
/// generous tolerance) from 1 worker up to the core count. Only meaningful
/// on a multi-core host; the steering/merge logic itself is covered above.
TEST(Batch, ThroughputScalesWithWorkers) {
    unsigned hw = std::thread::hardware_concurrency();
    if (hw < 2) {
        GTEST_SKIP() << "single-CPU host: parallel speedup cannot manifest";
    }
    ir::Program prog = ir::chain_of_exact_tables("p", 12, 2, 1);
    util::Rng rng(21);
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < 12; ++i) {
        tuple.push_back({"f" + std::to_string(i), 0, 255});
    }
    trafficgen::FlowSet flows =
        trafficgen::FlowSet::generate(tuple, 512, rng);

    auto pps = [&](int workers) {
        Emulator emu(bluefield2_model(), prog, {});
        emu.set_worker_count(workers);
        apps::install_flow_entries(emu, flows);
        trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 2);
        // Warm-up batch (pool spin-up, cache warm).
        PacketBatch warm = wl.next_batch(emu.fields(), 512);
        emu.process_batch(warm);
        // Generated up front: the timed loop measures the emulator, not the
        // traffic generator running serially between batches.
        std::vector<PacketBatch> batches(40);
        for (PacketBatch& b : batches) b = wl.next_batch(emu.fields(), 512);
        auto t0 = std::chrono::steady_clock::now();
        std::size_t done = 0;
        for (PacketBatch& b : batches) {
            emu.process_batch(b);
            done += b.size();
        }
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        return static_cast<double>(done) / dt.count();
    };

    int max_workers = static_cast<int>(std::min<unsigned>(hw, 8));
    std::vector<int> counts;
    for (int w = 1; w <= max_workers; w *= 2) counts.push_back(w);
    // Every round measures each worker count back to back and takes its
    // speedup over the best lower count of that round; the check uses the
    // median round. Pairing within a round cancels the slow phases of a
    // shared host, and the median drops a round that foreign load hit.
    constexpr int kRounds = 9;
    std::vector<std::vector<double>> speedups(counts.size());
    for (int round = 0; round < kRounds; ++round) {
        double prev = 0.0;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            const double cur = pps(counts[i]);
            if (i > 0) speedups[i].push_back(cur / prev);
            prev = std::max(prev, cur);
        }
    }
    for (std::size_t i = 1; i < counts.size(); ++i) {
        std::vector<double>& s = speedups[i];
        std::nth_element(s.begin(), s.begin() + kRounds / 2, s.end());
        // Generous tolerance: non-decreasing within 25% noise.
        EXPECT_GT(s[kRounds / 2], 0.75)
            << "throughput regressed from " << counts[i - 1] << " to "
            << counts[i] << " workers";
    }
}

}  // namespace
}  // namespace pipeleon::sim
