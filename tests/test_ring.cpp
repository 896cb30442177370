// tests/test_ring.cpp — the descriptor-ring I/O path, the data
// plane's only batch ingress: SPSC ring correctness (wraparound,
// drop-on-full accounting, two-thread stress for TSan), RSS dispatch
// agreement with steer_worker, poll semantics (completion conservation,
// cycle budgets and full TX rings leaving backlog, epoch refresh, rings
// built for another worker count), offered-load pacing, and the
// ring-vs-process() equivalence over every poll mode.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "apps/scenarios.h"
#include "cached_chain.h"
#include "ir/builder.h"
#include "sim/descriptor_ring.h"
#include "sim/emulator.h"
#include "sim/nic_model.h"
#include "sim/rss.h"
#include "trafficgen/workload.h"

namespace pipeleon::sim {
namespace {

using ir::Program;
using ir::ProgramBuilder;
using ir::TableSpec;

// ------------------------------------------------------------ ring basics

TEST(DescriptorRing, CapacityRoundsUpToPowerOfTwo) {
    EXPECT_EQ(DescriptorRing<int>(1).capacity(), 2u);
    EXPECT_EQ(DescriptorRing<int>(2).capacity(), 2u);
    EXPECT_EQ(DescriptorRing<int>(3).capacity(), 4u);
    EXPECT_EQ(DescriptorRing<int>(1000).capacity(), 1024u);
    EXPECT_EQ(DescriptorRing<int>(1024).capacity(), 1024u);
}

TEST(DescriptorRing, FifoOrderAcrossWraparound) {
    DescriptorRing<std::uint64_t> ring(8);  // wraps many times below
    std::uint64_t next_push = 0, next_pop = 0;
    for (int round = 0; round < 300; ++round) {
        while (ring.try_push(next_push)) ++next_push;
        ring.consume([&](std::uint64_t& v) {
            EXPECT_EQ(v, next_pop);
            ++next_pop;
            return true;
        });
    }
    EXPECT_EQ(next_pop, next_push);
    EXPECT_TRUE(ring.empty());
}

TEST(DescriptorRing, DropOnFullNeverBlocksAndCounts) {
    DescriptorRing<int> ring(4);
    int accepted = 0;
    for (int i = 0; i < 10; ++i) {
        if (ring.try_push(i)) ++accepted;
    }
    EXPECT_EQ(accepted, 4);
    EXPECT_EQ(ring.dropped(), 6u);
    EXPECT_EQ(ring.size(), 4u);
    // The invariant: offered == enqueued + dropped; enqueued == dequeued +
    // in-flight.
    EXPECT_EQ(ring.enqueued() + ring.dropped(), 10u);
    std::size_t got = ring.consume([](int&) { return true; });
    EXPECT_EQ(got, 4u);
    EXPECT_EQ(ring.enqueued(), ring.dequeued());
    // Space freed: pushes succeed again.
    EXPECT_TRUE(ring.try_push(42));
}

TEST(DescriptorRing, ConsumeHonorsMaxAndEarlyStop) {
    DescriptorRing<int> ring(16);
    for (int i = 0; i < 10; ++i) ring.try_push(i);
    EXPECT_EQ(ring.consume([](int&) { return true; }, 3), 3u);
    EXPECT_EQ(ring.size(), 7u);
    // fn returning false stops after the current (consumed) item.
    int seen = 0;
    EXPECT_EQ(ring.consume([&](int&) { return ++seen < 2; }), 2u);
    EXPECT_EQ(ring.size(), 5u);
}

/// Two-thread SPSC stress, the TSan target: one producer pushing a rising
/// sequence (spinning on full — this test checks ordering, not the drop
/// policy), one consumer asserting it reads exactly 0,1,2,... with
/// acquire/release visibility on every slot, through both consumer APIs
/// (consume, and the poll lanes' peek/advance).
TEST(DescriptorRing, SpscStressOrderedUnderConcurrency) {
    constexpr std::uint64_t kItems = 200000;
    DescriptorRing<std::uint64_t> ring(64);
    std::atomic<bool> fail{false};

    std::thread producer([&] {
        for (std::uint64_t i = 0; i < kItems; ++i) {
            while (!ring.try_push(i)) {
            }
        }
    });
    std::uint64_t expect = 0;
    std::uint64_t* group[8];
    while (expect < kItems) {
        ring.consume(
            [&](std::uint64_t& v) {
                if (v != expect) fail.store(true);
                ++expect;
                return true;
            },
            8);
        const std::size_t n = ring.peek(group, 8);
        for (std::size_t i = 0; i < n; ++i) {
            if (*group[i] != expect) fail.store(true);
            ++expect;
        }
        ring.advance(n);
    }
    producer.join();
    EXPECT_FALSE(fail.load());
    EXPECT_EQ(ring.dequeued(), kItems);
    EXPECT_TRUE(ring.empty());
    // The producer's failed pushes were retried, so the drop counter is
    // whatever the spin burned; enqueued must be exactly kItems.
    EXPECT_EQ(ring.enqueued(), kItems);
}

// ------------------------------------------------------- fixtures / helpers

NicModel nic() {
    NicModel m = bluefield2_model();
    m.cores = 8;
    return m;
}

Program chain_program() {
    return ir::chain_of_exact_tables("ring_p", 4, 2, 1);
}

trafficgen::FlowSet make_flows(int n, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < 4; ++i) {
        char name[8];
        std::snprintf(name, sizeof(name), "f%d", i);
        tuple.push_back({name, 0, 255});
    }
    return trafficgen::FlowSet::generate(tuple, static_cast<std::size_t>(n),
                                         rng);
}

// --------------------------------------------------------------- dispatch

TEST(RssDispatch, SameFlowSameQueueMatchesBatchSteering) {
    Program p = chain_program();
    Emulator emu(nic(), p, {});
    emu.set_worker_count(4);
    ASSERT_EQ(emu.worker_count(), 4);

    RssDispatcher io = emu.make_rings();
    ASSERT_EQ(io.queue_count(), 4u);

    trafficgen::FlowSet flows = make_flows(64, 3);
    trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 9);
    PacketBatch batch = wl.next_batch(emu.fields(), 256);
    for (const Packet& pkt : batch) {
        const int q = io.dispatch(pkt);
        ASSERT_GE(q, 0);
        // Ring dispatch and steer_worker agree, packet for packet — the
        // same-flow -> same-worker-shard invariant.
        EXPECT_EQ(q, emu.steer_worker(pkt));
    }
    EXPECT_EQ(io.stats().enqueued, 256u);
}

TEST(RssDispatch, OverflowDropsAreCountedAndConserved) {
    Program p = chain_program();
    Emulator emu(nic(), p, {});  // single worker -> one queue
    RingConfig cfg;
    cfg.rx_capacity = 16;
    RssDispatcher io = emu.make_rings(cfg);
    ASSERT_EQ(io.queue_count(), 1u);

    trafficgen::FlowSet flows = make_flows(64, 4);
    trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 10);
    PacketBatch batch = wl.next_batch(emu.fields(), 100);
    const std::size_t accepted = io.dispatch_batch(batch);
    EXPECT_EQ(accepted, 16u);
    const RingStats s = io.stats();
    EXPECT_EQ(s.enqueued, 16u);
    EXPECT_EQ(s.dropped, 84u);
    EXPECT_EQ(s.depth, 16u);
    EXPECT_EQ(s.offered(), 100u);
    EXPECT_EQ(io.next_seq(), 100u);  // drops still consume arrival numbers
}

// ------------------------------------------------------------------- poll

TEST(RingPoll, CompletesEverythingAndConserves) {
    Program p = chain_program();
    Emulator emu(nic(), p, {});
    emu.set_worker_count(4);
    RssDispatcher io = emu.make_rings();

    trafficgen::FlowSet flows = make_flows(64, 5);
    trafficgen::Workload wl(flows, trafficgen::Locality::Zipf, 1.1, 11);
    PacketBatch batch = wl.next_batch(emu.fields(), 512);
    const std::size_t accepted = io.dispatch_batch(batch, emu.now_seconds());
    ASSERT_EQ(accepted, 512u);

    BatchResult out = emu.poll(io);
    EXPECT_EQ(out.workers_used, 4);
    EXPECT_EQ(out.ring_completed, 512u);
    EXPECT_EQ(out.results.size(), 512u);
    EXPECT_EQ(out.ring_dropped, 0u);
    EXPECT_EQ(out.ring_backlog, 0u);
    EXPECT_EQ(emu.packets_processed(), 512u);
    for (const ProcessResult& r : out.results) {
        EXPECT_GT(r.cycles, 0.0);
        EXPECT_GE(r.queue_cycles, 0.0);
    }
    // Nothing pending: a second poll is a no-op batch.
    BatchResult again = emu.poll(io);
    EXPECT_EQ(again.ring_completed, 0u);
}

TEST(RingPoll, CycleBudgetLeavesBacklogThenDrains) {
    Program p = chain_program();
    Emulator emu(nic(), p, {});
    RssDispatcher io = emu.make_rings();

    trafficgen::FlowSet flows = make_flows(64, 6);
    trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 12);
    PacketBatch batch = wl.next_batch(emu.fields(), 200);
    ASSERT_EQ(io.dispatch_batch(batch), 200u);

    // A tiny budget services only a handful of descriptors; the rest stay
    // queued for the next poll instead of being dropped or spun on.
    BatchResult first = emu.poll(io, /*cycle_budget=*/500.0);
    EXPECT_GT(first.ring_completed, 0u);
    EXPECT_LT(first.ring_completed, 200u);
    EXPECT_GT(first.ring_backlog, 0u);
    EXPECT_EQ(first.ring_completed + first.ring_backlog, 200u);

    std::uint64_t total = first.ring_completed;
    for (int i = 0; i < 1000 && total < 200; ++i) {
        total += emu.poll(io, 500.0).ring_completed;
    }
    EXPECT_EQ(total, 200u);
    EXPECT_TRUE(io.queue(0).rx().empty());
}

/// No lost completions: a lane stops while its queue's TX ring is full and
/// leaves the rest as RX backlog, so over repeated polls every dequeued
/// descriptor completes and every offered packet is completed, dropped at
/// RX, or still queued.
TEST(RingPoll, FullTxRingLeavesBacklogNotLostCompletions) {
    for (int workers : {1, 4}) {
        SCOPED_TRACE(workers);
        Emulator emu(nic(), chain_program(), {});
        emu.set_worker_count(workers);
        RingConfig cfg;
        cfg.rx_capacity = 64;
        cfg.tx_capacity = 16;
        RssDispatcher io = emu.make_rings(cfg);
        ASSERT_EQ(io.queue_count(), static_cast<std::size_t>(workers));

        trafficgen::FlowSet flows = make_flows(64, 19);
        trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 20);
        io.dispatch_batch(wl.next_batch(emu.fields(), 256));

        std::uint64_t completed = 0;
        for (int polls = 0; polls < 64 && io.stats().depth > 0; ++polls) {
            const BatchResult out = emu.poll(io);
            EXPECT_LE(out.ring_completed, 16 * io.queue_count());
            completed += out.ring_completed;
            const RingStats s = io.stats();
            EXPECT_EQ(s.dequeued, completed);
            EXPECT_EQ(s.offered(), completed + s.dropped + s.depth);
            EXPECT_EQ(out.ring_backlog, s.depth);
        }
        EXPECT_EQ(io.stats().depth, 0u);
        EXPECT_EQ(completed, io.stats().enqueued);
        EXPECT_EQ(emu.packets_processed(), completed);
    }
}

TEST(RingPoll, QueueCyclesReflectVirtualWait) {
    Program p = chain_program();
    Emulator emu(nic(), p, {});
    RssDispatcher io = emu.make_rings();

    trafficgen::FlowSet flows = make_flows(8, 7);
    trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 13);
    PacketBatch batch = wl.next_batch(emu.fields(), 4);
    io.dispatch_batch(batch, emu.now_seconds());
    emu.advance_time(1e-6);  // packets waited 1 microsecond of virtual time
    BatchResult out = emu.poll(io);
    ASSERT_EQ(out.results.size(), 4u);
    const double want = 1e-6 * emu.model().cycles_per_second;
    for (const ProcessResult& r : out.results) {
        EXPECT_DOUBLE_EQ(r.queue_cycles, want);
    }
}

TEST(RingPoll, PollIsControlDrainBoundary) {
    Program p = chain_program();
    Emulator emu(nic(), p, {});
    RssDispatcher io = emu.make_rings();

    // Queue a worker-count change; it must apply at the poll boundary even
    // with nothing in the rings.
    emu.set_worker_count(2);
    BatchResult out = emu.poll(io);
    EXPECT_EQ(emu.worker_count(), 2);
    // (The op may already have drained synchronously at submit; either way
    // the boundary leaves no backlog.)
    EXPECT_EQ(emu.control_pending(), 0u);
    (void)out;
}

TEST(RingPoll, SpareLanesIdleWhenWorkersOutnumberQueues) {
    Program p = chain_program();
    Emulator emu(nic(), p, {});
    emu.set_worker_count(2);
    RssDispatcher io = emu.make_rings();  // built for 2 queues
    ASSERT_EQ(io.queue_count(), 2u);

    emu.set_worker_count(4);  // stale dispatcher: 2 queues vs 4 workers

    trafficgen::FlowSet flows = make_flows(64, 8);
    trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 14);
    PacketBatch batch = wl.next_batch(emu.fields(), 128);
    const std::size_t accepted = io.dispatch_batch(batch);
    BatchResult out = emu.poll(io);
    // Every accepted packet completes on the pool: lanes 0 and 1 serve the
    // two queues, and lanes 2 and 3 idle instead of indexing a missing one.
    EXPECT_EQ(out.ring_completed, accepted);
    EXPECT_EQ(out.workers_used, 4);
}

TEST(RingPoll, EpochSwapRefreshesSteeringFields) {
    Program p = chain_program();
    Emulator emu(nic(), p, {});
    RssDispatcher io = emu.make_rings();
    const std::uint64_t before = io.steer_epoch();

    // Reconfigure to a different program (new steering tuple), then poll:
    // the drain applies the swap and the poll re-syncs the dispatcher.
    ProgramBuilder b("ring_p2");
    b.append(TableSpec("only")
                 .key("zz")
                 .noop_action("fwd", 1)
                 .default_to("fwd")
                 .build());
    emu.reconfigure(b.build());
    emu.poll(io);
    EXPECT_GT(io.steer_epoch(), before);
    EXPECT_EQ(io.steer_epoch(), emu.epoch());
}

// ---------------------------------------------------------- offered load

TEST(OfferedLoad, PacingAccruesFractionalCredit) {
    trafficgen::FlowSet flows = make_flows(8, 9);
    trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 15);
    trafficgen::OfferedLoad src(wl, 1000.0);  // 1000 pps
    EXPECT_EQ(src.accrue(0.0105), 10u);       // 10.5 due -> 10, carry 0.5
    EXPECT_EQ(src.accrue(0.0105), 11u);       // carry makes it 21 total
    EXPECT_EQ(src.accrue(0.0), 0u);
    src.set_rate(0.0);
    EXPECT_EQ(src.accrue(10.0), 0u);
}

TEST(OfferedLoad, OfferDispatchesAndAccountsDrops) {
    Program p = chain_program();
    Emulator emu(nic(), p, {});
    RingConfig cfg;
    cfg.rx_capacity = 32;
    RssDispatcher io = emu.make_rings(cfg);

    trafficgen::FlowSet flows = make_flows(64, 10);
    trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 16);
    trafficgen::OfferedLoad src(wl, 1e6);

    const std::size_t accepted = src.offer(io, emu.fields(), 100, 0.0);
    EXPECT_EQ(accepted, 32u);  // ring capacity bounds the burst
    EXPECT_EQ(src.offered(), 100u);
    EXPECT_EQ(src.accepted(), 32u);
    EXPECT_EQ(io.stats().dropped, 68u);

    BatchResult out = emu.poll(io);
    EXPECT_EQ(out.ring_completed, 32u);
    // Offered == completed + overflow drops + backlog (zero here).
    EXPECT_EQ(src.offered(),
              out.ring_completed + io.stats().dropped + io.stats().depth);
}

// ----------------------------------------------- equivalence (the ORACLE)

enum class EquivProgram : int { Plain, Cached, CachedSampled };
enum class EquivMode : int { OneWorker, StaleQueues, Parallel };
/// Two ints, no padding: the case names stay byte-stable.
struct EquivCase {
    EquivProgram program;
    EquivMode mode;
};

class RingVsScalar : public ::testing::TestWithParam<EquivCase> {};

/// The ring path against the process() oracle over the same packets and the
/// same entry inserts. One worker matches on every bit, latency sums included.
/// Four workers, and two on rings built for four (each lane serves two queues),
/// merge per-worker shards in worker order: integer counters match, and only
/// the float accumulation order may differ.
TEST_P(RingVsScalar, MatchesProcessLoop) {
    const EquivCase c = GetParam();
    profile::InstrumentationConfig inst;
    if (c.program == EquivProgram::CachedSampled) inst.sampling_rate = 1.0 / 8.0;
    const Program p = c.program == EquivProgram::Plain
                          ? chain_program()
                          : test_support::cached_chain("ring_p", 4);
    Emulator ring(nic(), p, inst);
    Emulator ref(nic(), p, inst);
    if (c.mode != EquivMode::OneWorker) ring.set_worker_count(4);
    RssDispatcher io = ring.make_rings();
    ASSERT_EQ(io.queue_count(), c.mode == EquivMode::OneWorker ? 1u : 4u);
    if (c.mode == EquivMode::StaleQueues) ring.set_worker_count(2);

    // t0..t2 learn every flow up front. t3 learns eight flows (action 1)
    // before each burst, so every insert moves live traffic off its default.
    const trafficgen::FlowSet flows = make_flows(64, 11);
    for (Emulator* e : {&ring, &ref}) {
        for (const char* t : {"t0", "t1", "t2"}) {
            std::string field = "f";
            field += t + 1;
            for (std::size_t f = 0; f < flows.size(); ++f) {
                e->insert_entry(t, flows.exact_entry(f, {field}, 0));
            }
        }
    }
    trafficgen::Workload ring_wl(flows, trafficgen::Locality::Zipf, 1.1, 17);
    trafficgen::Workload ref_wl(flows, trafficgen::Locality::Zipf, 1.1, 17);
    for (std::size_t burst = 0; burst < 8; ++burst) {
        for (std::size_t f = 8 * burst; f < 8 * burst + 8; ++f) {
            const ir::TableEntry e = flows.exact_entry(f, {"f3"}, 1);
            EXPECT_EQ(ring.insert_entry("t3", e), ref.insert_entry("t3", e));
        }
        ASSERT_EQ(io.dispatch_batch(ring_wl.next_batch(ring.fields(), 100)),
                  100u);
        ASSERT_EQ(ring.poll(io).ring_completed, 100u);
        for (Packet& pkt : ref_wl.next_batch(ref.fields(), 100)) {
            ref.process(pkt);
        }
    }

    const profile::RawCounters a = ring.read_counters();
    const profile::RawCounters b = ref.read_counters();
    const auto t3 = static_cast<std::size_t>(ref.program().find_table("t3"));
    EXPECT_GT(b.action_hits[t3][1], 0u) << "the inserts never took effect";
    if (c.program != EquivProgram::Plain) {
        std::uint64_t hits = 0;
        for (std::uint64_t h : b.cache_hits) hits += h;
        EXPECT_GT(hits, 0u) << "the cache was never exercised";
        EXPECT_FALSE(b.replays.empty());
    }
    EXPECT_EQ(a.action_hits, b.action_hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.branch_true, b.branch_true);
    EXPECT_EQ(a.branch_false, b.branch_false);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.cache_misses, b.cache_misses);
    EXPECT_EQ(a.inserts_dropped, b.inserts_dropped);
    EXPECT_EQ(a.replays, b.replays);
    EXPECT_EQ(a.entries, b.entries);
    EXPECT_EQ(ring.packets_processed(), ref.packets_processed());
    EXPECT_EQ(ring.packets_dropped(), ref.packets_dropped());
    const util::RunningStats la = ring.latency_stats();
    const util::RunningStats lb = ref.latency_stats();
    EXPECT_EQ(la.count(), lb.count());
    if (c.mode == EquivMode::OneWorker) {
        // Bit-equality, not near-equality: the accumulation order matches.
        EXPECT_EQ(la.sum(), lb.sum());
        EXPECT_EQ(la.min(), lb.min());
        EXPECT_EQ(la.max(), lb.max());
    }
}

std::string equiv_case_name(const ::testing::TestParamInfo<EquivCase>& info) {
    static const char* const kPrograms[] = {"Plain", "Cached", "CachedSampled"};
    static const char* const kModes[] = {"OneWorker", "StaleQueues",
                                         "Parallel"};
    std::string name = kPrograms[static_cast<int>(info.param.program)];
    name += '_';
    name += kModes[static_cast<int>(info.param.mode)];
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    Ring, RingVsScalar,
    ::testing::Values(
        EquivCase{EquivProgram::Plain, EquivMode::OneWorker},
        EquivCase{EquivProgram::Plain, EquivMode::StaleQueues},
        EquivCase{EquivProgram::Plain, EquivMode::Parallel},
        EquivCase{EquivProgram::Cached, EquivMode::OneWorker},
        EquivCase{EquivProgram::Cached, EquivMode::StaleQueues},
        EquivCase{EquivProgram::Cached, EquivMode::Parallel},
        EquivCase{EquivProgram::CachedSampled, EquivMode::OneWorker},
        EquivCase{EquivProgram::CachedSampled, EquivMode::StaleQueues},
        EquivCase{EquivProgram::CachedSampled, EquivMode::Parallel}),
    equiv_case_name);

/// The ring.* metrics account the poll traffic.
TEST(RingTelemetry, RingMetricsTrackPollAccounting) {
    // The poll-boundary folds that the dashboard reads conserve packets
    // after every poll: an overflowing burst, a budgeted poll that leaves a
    // backlog, and the poll that drains it.
    for (int workers : {1, 2}) {
        SCOPED_TRACE(workers);
        Program p = chain_program();
        Emulator emu(nic(), p, {});
        emu.set_worker_count(workers);
        ASSERT_EQ(emu.worker_count(), workers);
        RingConfig cfg;
        cfg.rx_capacity = 64;
        RssDispatcher io = emu.make_rings(cfg);

        trafficgen::FlowSet flows = make_flows(64, 12);
        trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 18);
        std::uint64_t offered = 0, reaped = 0, polls = 0;
        auto poll_and_check = [&](double budget) {
            reaped += emu.poll(io, budget).ring_completed;
            ++polls;
            const telemetry::MetricsSnapshot snap = emu.telemetry_snapshot();
            const std::uint64_t enqueued = snap.counter("ring.enqueued");
            const std::uint64_t dequeued = snap.counter("ring.dequeued");
            EXPECT_EQ(enqueued + snap.counter("ring.dropped"), offered);
            EXPECT_EQ(static_cast<double>(enqueued - dequeued),
                      snap.gauge("ring.depth"));
            EXPECT_EQ(dequeued, snap.counter("sim.packets"));
            EXPECT_EQ(snap.counter("sim.packets"), reaped);
            EXPECT_EQ(snap.counter("sim.batches"), polls);
            return snap;
        };
        auto offer = [&](std::size_t n) {
            io.dispatch_batch(wl.next_batch(emu.fields(), n));
            offered += n;
        };

        offer(200);  // more than the rings hold
        const telemetry::MetricsSnapshot first = poll_and_check(0.0);
        EXPECT_GT(first.counter("ring.dropped"), 0u);
        if (workers == 1) {
            EXPECT_EQ(first.counter("ring.enqueued"), 64u);
        }
        offer(100);
        EXPECT_GT(poll_and_check(500.0).gauge("ring.depth"), 0.0);
        EXPECT_EQ(poll_and_check(0.0).gauge("ring.depth"), 0.0);
    }
}

// ------------------------------------------------------------ hash quality

/// Chi-square uniformity of rss_hash queue assignment (ISSUE 8): across 1,
/// 2, 4, and 8 queues, random 4-field tuples must land near-uniformly. The
/// thresholds are the p = 0.001 chi-square critical values for df = n - 1 —
/// a correct hash fails this test about once per thousand seeds, and the
/// seed here is fixed, so a failure means the avalanche actually regressed
/// (e.g. someone dropped the SplitMix64 finisher and a modulo started
/// reading unmixed low bits).
TEST(RssHash, QueueAssignmentIsChiSquareUniform) {
    FieldTable fields;
    std::vector<FieldId> tuple;
    for (const char* n : {"f0", "f1", "f2", "f3"}) {
        tuple.push_back(fields.intern(n));
    }

    constexpr std::size_t kPackets = 8192;
    util::Rng rng(0xC41551F1EDULL);
    std::vector<std::uint64_t> hashes;
    hashes.reserve(kPackets);
    Packet pkt(tuple.size());
    for (std::size_t i = 0; i < kPackets; ++i) {
        for (FieldId id : tuple) pkt.set(id, rng.next_u64() >> 32);
        hashes.push_back(rss_hash(pkt, tuple.data(), tuple.size()));
    }

    // df -> p=0.001 critical value (chi-square upper tail).
    const struct { std::size_t queues; double critical; } cases[] = {
        {2, 10.828}, {4, 16.266}, {8, 24.322}};

    // One queue: everything trivially lands on queue 0.
    for (std::uint64_t h : hashes) ASSERT_EQ(h % 1, 0u);

    for (const auto& c : cases) {
        std::vector<std::size_t> bins(c.queues, 0);
        for (std::uint64_t h : hashes) ++bins[h % c.queues];
        const double expected =
            static_cast<double>(kPackets) / static_cast<double>(c.queues);
        double chi2 = 0.0;
        std::size_t total = 0;
        for (std::size_t obs : bins) {
            const double d = static_cast<double>(obs) - expected;
            chi2 += d * d / expected;
            total += obs;
        }
        EXPECT_EQ(total, kPackets);
        EXPECT_LT(chi2, c.critical)
            << c.queues << " queues: chi2 " << chi2 << " exceeds the "
            << "p=0.001 critical value " << c.critical;
    }
}

}  // namespace
}  // namespace pipeleon::sim
