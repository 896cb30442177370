// bench/micro_ring.cpp — the descriptor-ring I/O path's own economics
// (ISSUE 6), reported as first-class metrics so CI can gate them:
//   ring_push_pop_ns   — one raw SPSC push+pop through a DescriptorRing
//   dispatch_ns        — RSS hash + descriptor write per dispatched packet
//   ring_mpps          — wall-clock throughput of the dispatch -> poll loop
//   allocs_per_poll    — heap allocations per steady-state offer/poll round
//                        (counted by this binary's operator new hook; the
//                        acceptance target is exactly 0)
//   throughput_gbps / latency_p99 — the gated pair, from emulated cycles
// Emits BENCH_micro_ring.json (pipeleon.bench_report/1).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "apps/scenarios.h"
#include "bench/common.h"
#include "bench/report.h"
#include "ir/builder.h"
#include "sim/descriptor_ring.h"
#include "sim/nic_model.h"
#include "sim/rss.h"

using namespace pipeleon;

// ------------------------------------------------------- allocation hook
namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};

void note_alloc() {
    if (g_counting.load(std::memory_order_relaxed)) {
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    }
}

void* hook_alloc(std::size_t size) {
    note_alloc();
    void* p = std::malloc(size ? size : 1);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

void* hook_aligned(std::size_t size, std::size_t align) {
    note_alloc();
    void* p = nullptr;
    if (align < sizeof(void*)) align = sizeof(void*);
    if (posix_memalign(&p, align, size ? size : align) != 0) {
        throw std::bad_alloc();
    }
    return p;
}

}  // namespace

void* operator new(std::size_t size) { return hook_alloc(size); }
void* operator new[](std::size_t size) { return hook_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
    return hook_aligned(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
    return hook_aligned(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kChainLen = 8;
constexpr int kFlows = 512;
constexpr std::size_t kBurst = 256;

std::vector<trafficgen::FieldRange> field_tuple() {
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < kChainLen; ++i) {
        // snprintf, not string operator+: GCC 12 -O3 emits a bogus
        // -Wrestrict through char_traits when the concat inlines against
        // this binary's custom operator new, and CI builds with -Werror.
        char name[16];
        std::snprintf(name, sizeof(name), "f%d", i);
        tuple.push_back({name, 0, 255});
    }
    return tuple;
}

/// ns for one raw SPSC push + pop, single-threaded (the ring's fixed cost,
/// no hashing, no packet copy: a uint64 payload).
double measure_push_pop_ns(int rounds) {
    sim::DescriptorRing<std::uint64_t> ring(1024);
    std::uint64_t sink = 0;
    Clock::time_point t0 = Clock::now();
    for (int r = 0; r < rounds; ++r) {
        for (std::uint64_t i = 0; i < kBurst; ++i) ring.try_push(i);
        ring.consume([&](std::uint64_t& v) {
            sink += v;
            return true;
        });
    }
    Clock::time_point t1 = Clock::now();
    if (sink == 0xdeadbeef) std::printf("unreachable\n");  // keep live
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           (static_cast<double>(rounds) * static_cast<double>(kBurst));
}

/// ns per dispatched packet: RSS hash over the steering tuple + the
/// descriptor (full Packet) copy into the RX slot. Rings are drained
/// without processing between bursts so dispatch never overflows.
double measure_dispatch_ns(sim::Emulator& emu, const sim::PacketBatch& batch,
                           int rounds) {
    sim::RssDispatcher io = emu.make_rings();
    Clock::time_point t0 = Clock::now();
    for (int r = 0; r < rounds; ++r) {
        io.dispatch_batch(batch);
        for (std::size_t q = 0; q < io.queue_count(); ++q) {
            io.queue(q).rx().consume([](sim::RxDesc&) { return true; });
        }
    }
    Clock::time_point t1 = Clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           (static_cast<double>(rounds) * static_cast<double>(batch.size()));
}

struct LoopResult {
    double mpps = 0.0;
    double gbps = 0.0;
    double p99 = 0.0;
    double allocs_per_round = 0.0;
};

/// Wall-clock throughput of the full ring loop (dispatch -> poll) on one
/// pristine burst replayed every round.
LoopResult run_loop(sim::Emulator& emu, const sim::PacketBatch& pristine,
                    int rounds) {
    bench::RingPump pump(emu, kBurst);
    // Warm-up must cycle every RX slot of every queue at least once so each
    // slot's inline Packet reaches the workload's field capacity — a burst
    // spreads ~kBurst/queues packets per queue, so covering the 2*kBurst
    // slots per queue needs ~2*queues rounds; 40 is ample for 8 queues.
    for (int i = 0; i < 40; ++i) pump.pump(pristine);

    g_alloc_count.store(0);
    g_counting.store(true);
    Clock::time_point t0 = Clock::now();
    const sim::BatchResult* out = nullptr;
    for (int i = 0; i < rounds; ++i) out = &pump.pump(pristine);
    Clock::time_point t1 = Clock::now();
    g_counting.store(false);

    const double secs = std::chrono::duration<double>(t1 - t0).count();
    LoopResult res;
    res.mpps = static_cast<double>(rounds) *
               static_cast<double>(pristine.size()) / secs / 1e6;
    double cycles = 0.0;
    for (const sim::ProcessResult& r : out->results) cycles += r.cycles;
    res.gbps = emu.throughput_gbps(cycles /
                                   static_cast<double>(out->results.size()));
    res.allocs_per_round = static_cast<double>(g_alloc_count.load()) /
                           static_cast<double>(rounds);
    const telemetry::LatencyHistogram hist = emu.latency_histogram();
    if (hist.count() > 0) res.p99 = hist.p99();
    return res;
}

}  // namespace

int main() {
    const bool quick = bench::BenchEnv::quick();
    const int kRounds = quick ? 40 : 400;

    ir::Program prog = ir::chain_of_exact_tables("p", kChainLen, 2, 1);
    util::Rng rng(41);
    trafficgen::FlowSet flows =
        trafficgen::FlowSet::generate(field_tuple(), kFlows, rng);

    bench::Reporter rep("micro_ring", sim::bluefield2_model());
    rep.param("burst_size", static_cast<double>(kBurst));
    rep.param("flows", static_cast<double>(kFlows));
    rep.param("chain_len", static_cast<double>(kChainLen));

    bench::section("raw ring + dispatch costs");
    const double push_pop_ns = measure_push_pop_ns(kRounds * 4);
    std::printf("SPSC push+pop       : %8.2f ns/item\n", push_pop_ns);
    rep.metric("ring_push_pop_ns", push_pop_ns);

    sim::Emulator cost_emu(sim::bluefield2_model(), prog, {});
    cost_emu.set_worker_count(4);
    apps::install_flow_entries(cost_emu, flows);
    trafficgen::Workload cost_wl(flows, trafficgen::Locality::Zipf, 1.1, 31);
    const sim::PacketBatch cost_batch =
        cost_wl.next_batch(cost_emu.fields(), kBurst);
    const double dispatch_ns =
        measure_dispatch_ns(cost_emu, cost_batch, kRounds);
    std::printf("RSS dispatch        : %8.2f ns/packet\n", dispatch_ns);
    rep.metric("dispatch_ns", dispatch_ns);

    bench::section("ring loop (4 workers)");
    sim::Emulator ring_emu(sim::bluefield2_model(), prog, {});
    ring_emu.set_worker_count(4);
    apps::install_flow_entries(ring_emu, flows);
    trafficgen::Workload ring_wl(flows, trafficgen::Locality::Zipf, 1.1, 31);
    const sim::PacketBatch pristine =
        ring_wl.next_batch(ring_emu.fields(), kBurst);

    const LoopResult ring = run_loop(ring_emu, pristine, kRounds);
    std::printf("%10s %10s %14s\n", "Mpps", "Gbps", "allocs/round");
    std::printf("%10.3f %10.3f %14.2f\n", ring.mpps, ring.gbps,
                ring.allocs_per_round);

    rep.metric("ring_mpps", ring.mpps);
    rep.metric("allocs_per_poll", ring.allocs_per_round);
    rep.metric("throughput_mpps", ring.mpps);
    rep.metric("throughput_gbps", ring.gbps);
    if (ring.p99 > 0.0) rep.metric("latency_p99", ring.p99);

    rep.write();
    return 0;
}
