// tests/test_topology.cpp — util::Topology sysfs parsing against committed
// fixture trees (tests/fixtures/topology/*, each a /sys-shaped directory),
// the cpulist grammar, the locality-first worker->CPU assignment policy,
// the non-Linux/CI fallback path, and the pinned WorkerPool built on top.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/builder.h"
#include "sim/emulator.h"
#include "sim/nic_model.h"
#include "sim/worker_pool.h"
#include "util/topology.h"

using pipeleon::util::parse_cpu_list;
using pipeleon::util::Topology;

namespace {

std::string fixture(const std::string& name) {
    return std::string(PIPELEON_SOURCE_DIR) + "/tests/fixtures/topology/" + name;
}

}  // namespace

TEST(CpuList, ParsesRangesSinglesAndJunk) {
    EXPECT_EQ(parse_cpu_list("0-3"), (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(parse_cpu_list("0,2-3\n"), (std::vector<int>{0, 2, 3}));
    EXPECT_EQ(parse_cpu_list("5"), (std::vector<int>{5}));
    EXPECT_EQ(parse_cpu_list("1,1,0-1"), (std::vector<int>{0, 1}));  // dedup
    EXPECT_TRUE(parse_cpu_list("").empty());
    EXPECT_TRUE(parse_cpu_list("none").empty());
}

TEST(Topology, DualNodeFixtureParsesNodesAndPackages) {
    Topology t = Topology::from_root(fixture("dual_node"));
    ASSERT_TRUE(t.from_sysfs());
    EXPECT_EQ(t.cpu_count(), 8);
    EXPECT_EQ(t.node_count(), 2);
    EXPECT_EQ(t.node_of(0), 0);
    EXPECT_EQ(t.node_of(3), 0);
    EXPECT_EQ(t.node_of(4), 1);
    EXPECT_EQ(t.node_of(7), 1);
    // Per-CPU topology files parsed through.
    EXPECT_EQ(t.cpus()[0].package, 0);
    EXPECT_EQ(t.cpus()[7].package, 1);
    EXPECT_EQ(t.cpus()[5].core, 1);
}

TEST(Topology, AssignmentIsLocalityFirstThenWraps) {
    Topology t = Topology::from_root(fixture("dual_node"));
    // Packing: node 0's CPUs fill before node 1 is touched.
    EXPECT_EQ(t.assign(3), (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(t.assign(6), (std::vector<int>{0, 1, 2, 3, 4, 5}));
    // Oversubscription wraps around the locality order.
    EXPECT_EQ(t.assign(10), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 0, 1}));
}

TEST(Topology, SingleCoreFixtureHasOneCpuOneNode) {
    Topology t = Topology::from_root(fixture("single_core"));
    ASSERT_TRUE(t.from_sysfs());
    EXPECT_EQ(t.cpu_count(), 1);
    EXPECT_EQ(t.node_count(), 1);  // no node dirs -> single implicit node
    EXPECT_EQ(t.assign(4), (std::vector<int>{0, 0, 0, 0}));
}

TEST(Topology, OfflineCpuExcludedFromOnlineSet) {
    Topology t = Topology::from_root(fixture("offline_cpu"));
    ASSERT_TRUE(t.from_sysfs());
    // cpu1 is offline: the node's cpulist says 0-3 but only 0,2,3 are online.
    EXPECT_EQ(t.cpu_count(), 3);
    std::vector<int> ids;
    for (const Topology::Cpu& c : t.cpus()) ids.push_back(c.id);
    EXPECT_EQ(ids, (std::vector<int>{0, 2, 3}));
    // Assignment never hands out the offline CPU.
    for (int cpu : t.assign(6)) EXPECT_NE(cpu, 1);
}

TEST(Topology, MissingRootFallsBackCleanly) {
    Topology t = Topology::from_root(fixture("does_not_exist"));
    EXPECT_FALSE(t.from_sysfs());
    EXPECT_GE(t.cpu_count(), 1);
    EXPECT_EQ(t.node_count(), 1);
    EXPECT_EQ(static_cast<int>(t.assign(2).size()), 2);
}

TEST(Topology, ExplicitFallbackSizing) {
    Topology t = Topology::fallback(3);
    EXPECT_FALSE(t.from_sysfs());
    EXPECT_EQ(t.cpu_count(), 3);
    EXPECT_EQ(t.assign(5), (std::vector<int>{0, 1, 2, 0, 1}));
    EXPECT_GE(Topology::fallback(0).cpu_count(), 1);
}

TEST(Topology, DetectNeverThrowsAndIsUsable) {
    // Live-host detection: whatever the container exposes, the result must
    // be well-formed (>= 1 CPU, >= 1 node, assignment works).
    Topology t = Topology::detect();
    EXPECT_GE(t.cpu_count(), 1);
    EXPECT_GE(t.node_count(), 1);
    EXPECT_EQ(static_cast<int>(t.assign(4).size()), 4);
    EXPECT_FALSE(t.summary().empty());
}

// ---------------------------------------------------------------- WorkerPool

TEST(PinnedPool, RunsJobsWithAndWithoutPinning) {
    using pipeleon::sim::WorkerPool;
    using pipeleon::sim::WorkerPoolOptions;
    Topology topo = Topology::detect();
    for (bool pin : {true, false}) {
        WorkerPoolOptions opts;
        opts.pin = pin;
        opts.topology = &topo;
        WorkerPool pool(4, opts);
        std::vector<int> hits(4, 0);
        for (int round = 0; round < 8; ++round) {
            pool.run([&](int id) { ++hits[static_cast<std::size_t>(id)]; });
        }
        for (int h : hits) EXPECT_EQ(h, 8);
        if (!pin || !WorkerPool::pin_enabled_from_env()) {
            // Unpinned — either by request or because the env escape hatch
            // (PIPELEON_PIN_WORKERS=0) overrides the explicit option, as CI's
            // TSan job does when it reruns this binary.
            EXPECT_EQ(pool.pinned_count(), 0);
            if (!pin) {
                EXPECT_EQ(pool.cpu_of(0), -1);
            }
        } else {
            // Best-effort: pinning may be denied (cpuset-restricted CI), but
            // the assignment itself must be topology-valid.
            for (int w = 0; w < 4; ++w) EXPECT_GE(pool.cpu_of(w), 0);
        }
    }
}

TEST(PinnedPool, EnvEscapeHatchDisablesPinning) {
    using pipeleon::sim::WorkerPool;
    std::optional<std::string> saved;
    if (const char* v = std::getenv("PIPELEON_PIN_WORKERS")) saved = v;
    ::setenv("PIPELEON_PIN_WORKERS", "0", 1);
    EXPECT_FALSE(WorkerPool::pin_enabled_from_env());
    {
        WorkerPool pool(2);
        std::atomic<int> sum{0};
        pool.run([&](int) { sum.fetch_add(1); });
        EXPECT_EQ(sum.load(), 2);
        EXPECT_EQ(pool.pinned_count(), 0);
    }
    ::unsetenv("PIPELEON_PIN_WORKERS");
    EXPECT_TRUE(WorkerPool::pin_enabled_from_env());
    // A run under PIPELEON_PIN_WORKERS=0 keeps it for the tests below.
    if (saved) ::setenv("PIPELEON_PIN_WORKERS", saved->c_str(), 1);
}

// The environment variable is the emulator's one pinning switch: the pool
// that a worker-count change builds reads it.
TEST(PinnedPool, EnvSwitchReachesEmulator) {
    std::optional<std::string> saved;
    if (const char* v = std::getenv("PIPELEON_PIN_WORKERS")) saved = v;
    ::setenv("PIPELEON_PIN_WORKERS", "0", 1);
    {
        pipeleon::sim::Emulator emu(
            pipeleon::sim::bluefield2_model(),
            pipeleon::ir::chain_of_exact_tables("t", 2, 2, 1), {});
        emu.set_worker_count(2);
        EXPECT_EQ(emu.worker_count(), 2);
        EXPECT_EQ(emu.pinned_workers(), 0);
    }
    ::unsetenv("PIPELEON_PIN_WORKERS");
    if (saved) ::setenv("PIPELEON_PIN_WORKERS", saved->c_str(), 1);
}

// Stress: thousands of tiny batch barriers, interleaved with pool
// teardown/rebuild. CI runs this binary under TSan with
// PIPELEON_PIN_WORKERS=0 (cpuset-restricted runners), so the per-worker
// futex wake/done slots get hammered for races on both the pinned and
// unpinned configurations.
TEST(PinnedPool, StressRapidBarriersAndRebuilds) {
    using pipeleon::sim::WorkerPool;
    using pipeleon::sim::WorkerPoolOptions;
    Topology topo = Topology::detect();
    for (int rebuild = 0; rebuild < 6; ++rebuild) {
        WorkerPoolOptions opts;
        opts.pin = (rebuild % 2 == 0) && WorkerPool::pin_enabled_from_env();
        opts.topology = &topo;
        const int workers = 2 + rebuild % 3;
        WorkerPool pool(workers, opts);
        std::atomic<std::uint64_t> sum{0};
        std::uint64_t expect = 0;
        for (int round = 0; round < 400; ++round) {
            pool.run([&](int id) {
                sum.fetch_add(static_cast<std::uint64_t>(id) + 1,
                              std::memory_order_relaxed);
            });
            expect += static_cast<std::uint64_t>(workers) *
                      static_cast<std::uint64_t>(workers + 1) / 2;
        }
        ASSERT_EQ(sum.load(), expect);
    }
}

// Four workers pinned to one CPU wake one at a time, so most runs find some
// lanes already taken by a worker that woke earlier. Every lane must still
// run exactly once per run, and run() must return only after all of them
// (`last` is plain memory: the barrier alone orders it, which TSan checks).
TEST(PinnedPool, EachLaneRunsOncePerRunWhenWorkersShareOneCpu) {
    using pipeleon::sim::WorkerPool;
    using pipeleon::sim::WorkerPoolOptions;
    Topology one_cpu = Topology::from_root(fixture("single_core"));
    WorkerPoolOptions opts;
    opts.topology = &one_cpu;
    constexpr int kWorkers = 4;
    WorkerPool pool(kWorkers, opts);
    std::vector<int> last(kWorkers, -1);
    std::atomic<int> out_of_turn{0};
    for (int round = 0; round < 2000; ++round) {
        pool.run([&](int lane) {
            int& prev = last[static_cast<std::size_t>(lane)];
            if (prev != round - 1) out_of_turn.fetch_add(1);
            prev = round;
        });
        for (int lane = 0; lane < kWorkers; ++lane) {
            ASSERT_EQ(last[static_cast<std::size_t>(lane)], round)
                << "lane " << lane;
        }
    }
    EXPECT_EQ(out_of_turn.load(), 0);
}

TEST(PinnedPool, ExceptionFromWorkerRethrownAfterBarrier) {
    using pipeleon::sim::WorkerPool;
    WorkerPool pool(3);
    std::atomic<int> completed{0};
    EXPECT_THROW(
        pool.run([&](int id) {
            if (id == 1) throw std::runtime_error("boom");
            completed.fetch_add(1);
        }),
        std::runtime_error);
    // The barrier drained: the other workers finished their job.
    EXPECT_EQ(completed.load(), 2);
    // The pool survives the throw and runs the next job.
    pool.run([&](int) { completed.fetch_add(1); });
    EXPECT_EQ(completed.load(), 5);
}
