// Tests for the multi-worker data plane (sim/batch.h, sim/counter_shard.h,
// Emulator::poll over RSS rings): RSS steering stability, control-plane
// fencing against in-flight polls, worker-count clamping, and wall-clock
// scaling across workers. Ring-vs-process() equivalence lives in
// tests/test_ring.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "apps/scenarios.h"
#include "cached_chain.h"
#include "ir/builder.h"
#include "sim/emulator.h"
#include "sim/nic_model.h"
#include "trafficgen/workload.h"
#include "util/strings.h"

namespace pipeleon::sim {
namespace {

constexpr int kChainLen = 6;
constexpr int kFlows = 128;

trafficgen::FlowSet chain_flows(util::Rng& rng) {
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < kChainLen; ++i) {
        tuple.push_back({util::format("f%d", i), 0, 255});
    }
    return trafficgen::FlowSet::generate(tuple, kFlows, rng);
}

/// (a) Steering is a pure function of the packet's key fields and the worker
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
    RssDispatcher io = emu.make_rings();
    for (int round = 0; round < 4; ++round) {
        PacketBatch batch = wl.next_batch(emu.fields(), 256);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            std::vector<std::uint64_t> key;
            for (int f = 0; f < kChainLen; ++f) {
                key.push_back(
                    batch[i].get(emu.fields().intern(util::format("f%d", f))));
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
        io.dispatch_batch(batch);
        emu.poll(io);  // processing must not perturb steering
    }
    int used_count = 0;
    for (bool u : used) used_count += u;
    EXPECT_GT(used_count, 1) << "128 flows all hashed to one of 4 workers";
}

/// (b) Control-plane mutations from another thread while polls are in
/// flight: the fence serializes them, so nothing corrupts and every packet
/// is accounted. Run under TSan to verify the absence of data races.
TEST(Batch, ControlPlaneUpdatesDuringBatchesAreFenced) {
    ir::Program prog = test_support::cached_chain("p", kChainLen);
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
            emu.mirror({StoreChange::Kind::Erase, "t1", {},
                        {ir::FieldMatch::exact(~0ull)}, {}});
            emu.read_counters();
            std::this_thread::yield();
        }
    });

    constexpr int kPackets = 6000;
    int done = 0;
    RssDispatcher io = emu.make_rings();
    while (done < kPackets) {
        PacketBatch batch = wl.next_batch(
            emu.fields(), std::min<std::size_t>(
                              128, static_cast<std::size_t>(kPackets - done)));
        io.dispatch_batch(batch);
        BatchResult r = emu.poll(io);
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

/// (c) Wall-clock throughput is monotonically non-decreasing (with a
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
        tuple.push_back({util::format("f%d", i), 0, 255});
    }
    trafficgen::FlowSet flows =
        trafficgen::FlowSet::generate(tuple, 512, rng);

    auto pps = [&](int workers) {
        Emulator emu(bluefield2_model(), prog, {});
        emu.set_worker_count(workers);
        apps::install_flow_entries(emu, flows);
        trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 2);
        RssDispatcher io = emu.make_rings();
        BatchResult out;
        // Warm-up burst (pool spin-up, cache warm).
        io.dispatch_batch(wl.next_batch(emu.fields(), 512));
        emu.poll(io, out);
        // Generated up front and dispatched outside the clock: only the
        // polls are timed, so the measure is the emulator's workers, not the
        // traffic generator or the single producer running serially.
        std::vector<PacketBatch> batches(40);
        for (PacketBatch& b : batches) b = wl.next_batch(emu.fields(), 512);
        std::chrono::duration<double> dt{0.0};
        std::size_t done = 0;
        for (const PacketBatch& b : batches) {
            io.dispatch_batch(b);
            const auto t0 = std::chrono::steady_clock::now();
            emu.poll(io, out);
            dt += std::chrono::steady_clock::now() - t0;
            done += out.ring_completed;
        }
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
