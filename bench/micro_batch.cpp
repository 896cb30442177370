// bench/micro_batch.cpp — the batched data plane's hot-path economics
// (host topology): a dispatch -> poll worker sweep with and without pinning,
// plus the two per-packet costs the topology-aware refactor targets,
// reported as first-class metrics:
//   steer_plan_ns_per_packet — one steering decision (RSS hash + RETA)
//   cache_probe_ns           — one flat-LRU probe on a warm flow cache
//   allocs_per_batch         — heap allocations per steady-state burst
//                              (counted by this binary's operator new hook;
//                              the acceptance target is exactly 0)
// Flags: --pin / --no-pin restrict the sweep to one pinning mode (default
// sweeps both). The unpinned arm runs with PIPELEON_PIN_WORKERS=0; the
// pinned arm keeps the caller's value, so a caller's =0 still wins.
// Emits BENCH_micro_batch.json (pipeleon.bench_report/1).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "apps/scenarios.h"
#include "bench/common.h"
#include "bench/report.h"
#include "ir/builder.h"
#include "sim/nic_model.h"
#include "sim/table_state.h"
#include "util/topology.h"

using namespace pipeleon;

// ------------------------------------------------------- allocation hook
// Counts every heap allocation while armed; workers included (atomic).
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
constexpr std::size_t kBatch = 256;

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

/// The caller's PIPELEON_PIN_WORKERS, read once before the sweep sets it.
std::optional<std::string> g_caller_pin;

/// The pool reads PIPELEON_PIN_WORKERS whenever set_worker_count builds one.
void set_pin_env(bool pin) {
    if (!pin) {
        ::setenv("PIPELEON_PIN_WORKERS", "0", 1);
    } else if (g_caller_pin) {
        ::setenv("PIPELEON_PIN_WORKERS", g_caller_pin->c_str(), 1);
    } else {
        ::unsetenv("PIPELEON_PIN_WORKERS");
    }
}

struct SweepPoint {
    int workers = 1;
    bool pin = false;
    double mpps = 0.0;
    double gbps = 0.0;
    double allocs_per_batch = 0.0;
    int pinned = 0;
    double latency_p50 = 0.0;
    double latency_p99 = 0.0;
};

/// Measures steady-state dispatch -> poll throughput for one (workers, pin)
/// config. The same pristine burst replays every iteration, so the loop
/// isolates the steer/dispatch/process path from workload generation.
SweepPoint run_config(const ir::Program& prog,
                      const trafficgen::FlowSet& flows, int workers,
                      bool pin, int batches) {
    sim::Emulator emu(sim::bluefield2_model(), prog, {});
    set_pin_env(pin);
    emu.set_worker_count(workers);
    apps::install_flow_entries(emu, flows);
    trafficgen::Workload wl(flows, trafficgen::Locality::Zipf, 1.1, 31);

    const sim::PacketBatch pristine = wl.next_batch(emu.fields(), kBatch);
    bench::RingPump pump(emu, kBatch);
    // Warm: caches hot, and every RX slot of every queue cycled once so its
    // inline Packet has reached the workload's width (2*kBatch slots per
    // queue at ~kBatch/workers packets per round: 16 rounds for 8 workers).
    for (int i = 0; i < 40; ++i) pump.pump(pristine);

    g_alloc_count.store(0);
    g_counting.store(true);
    Clock::time_point t0 = Clock::now();
    const sim::BatchResult* out = nullptr;
    for (int i = 0; i < batches; ++i) out = &pump.pump(pristine);
    Clock::time_point t1 = Clock::now();
    g_counting.store(false);

    const double secs = std::chrono::duration<double>(t1 - t0).count();
    const auto packets = static_cast<double>(batches) *
                         static_cast<double>(kBatch);
    SweepPoint p;
    p.workers = workers;
    p.pin = pin;
    p.mpps = packets / secs / 1e6;
    double cycles = 0.0;
    for (const sim::ProcessResult& r : out->results) cycles += r.cycles;
    p.gbps = emu.throughput_gbps(cycles /
                                 static_cast<double>(out->results.size()));
    p.allocs_per_batch = static_cast<double>(g_alloc_count.load()) /
                         static_cast<double>(batches);
    p.pinned = emu.pinned_workers();
    const telemetry::LatencyHistogram hist = emu.latency_histogram();
    if (hist.count() > 0) {
        p.latency_p50 = hist.p50();
        p.latency_p99 = hist.p99();
    }
    return p;
}

/// ns/packet to make the steering decision — steer_worker() is the RSS hash
/// plus RETA lookup the dispatcher makes for every arrival.
double measure_steer_ns(const ir::Program& prog,
                        const trafficgen::FlowSet& flows, int rounds) {
    sim::Emulator emu(sim::bluefield2_model(), prog, {});
    emu.set_worker_count(4);
    apps::install_flow_entries(emu, flows);
    trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 7);
    sim::PacketBatch batch = wl.next_batch(emu.fields(), kBatch);

    std::uint64_t sink = 0;
    Clock::time_point t0 = Clock::now();
    for (int r = 0; r < rounds; ++r) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
            sink += static_cast<std::uint64_t>(emu.steer_worker(batch[i]));
        }
    }
    Clock::time_point t1 = Clock::now();
    if (sink == 0xdeadbeef) std::printf("unreachable\n");  // keep `sink` live
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           (static_cast<double>(rounds) * static_cast<double>(batch.size()));
}

/// ns/probe against a warm flat-LRU CacheStore at ~75% of capacity.
double measure_probe_ns(int rounds) {
    ir::CacheConfig cfg;
    cfg.capacity = 4096;
    cfg.max_insert_per_sec = 1e12;
    sim::CacheStore store(cfg);
    std::vector<sim::KeyVec> keys;
    for (std::uint64_t k = 0; k < 3072; ++k) {
        sim::KeyVec key{k, k * 0x9e3779b97f4a7c15ULL};
        store.insert(key, sim::CacheStore::CacheEntry{{k % 7}}, 0.0);
        keys.push_back(std::move(key));
    }
    std::uint64_t hits = 0;
    Clock::time_point t0 = Clock::now();
    for (int r = 0; r < rounds; ++r) {
        for (const sim::KeyVec& k : keys) {
            hits += store.lookup(k) != nullptr;
        }
    }
    Clock::time_point t1 = Clock::now();
    if (hits == 0) std::printf("unreachable\n");
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           (static_cast<double>(rounds) * static_cast<double>(keys.size()));
}

}  // namespace

int main(int argc, char** argv) {
    bool sweep_pin = true, sweep_nopin = true;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--pin") == 0) sweep_nopin = false;
        if (std::strcmp(argv[i], "--no-pin") == 0) sweep_pin = false;
    }
    if (const char* env = std::getenv("PIPELEON_PIN_WORKERS")) {
        g_caller_pin = env;
    }
    const bool quick = bench::BenchEnv::quick();
    const int kBatches = quick ? 40 : 400;
    const int kRounds = quick ? 50 : 500;

    ir::Program prog = ir::chain_of_exact_tables("p", kChainLen, 2, 1);
    util::Rng rng(29);
    trafficgen::FlowSet flows =
        trafficgen::FlowSet::generate(field_tuple(), kFlows, rng);

    const util::Topology topo = util::Topology::detect();
    bench::section("host topology");
    std::printf("%s\n", topo.summary().c_str());

    bench::Reporter rep("micro_batch", sim::bluefield2_model());
    rep.param("batch_size", static_cast<double>(kBatch));
    rep.param("flows", static_cast<double>(kFlows));
    rep.param("chain_len", static_cast<double>(kChainLen));
    rep.param("topology", topo.summary());
    rep.param("host_cpus", static_cast<double>(topo.cpu_count()));

    bench::section("worker sweep (throughput, allocs/batch)");
    std::printf("%8s %6s %10s %10s %14s %8s\n", "workers", "pin", "Mpps",
                "Gbps", "allocs/batch", "pinned");
    std::vector<SweepPoint> points;
    for (int workers : {1, 2, 4, 8}) {
        for (int pin = 1; pin >= 0; --pin) {
            if (pin == 1 && !sweep_pin) continue;
            if (pin == 0 && !sweep_nopin) continue;
            SweepPoint p =
                run_config(prog, flows, workers, pin == 1, kBatches);
            std::printf("%8d %6s %10.3f %10.3f %14.2f %8d\n", p.workers,
                        p.pin ? "yes" : "no", p.mpps, p.gbps,
                        p.allocs_per_batch, p.pinned);
            points.push_back(p);
        }
    }
    set_pin_env(true);  // the caller's value again

    // Headline metrics: the best multi-worker config (what the data plane
    // would run with), plus the pin-vs-no-pin delta at the widest sweep.
    SweepPoint best;
    for (const SweepPoint& p : points) {
        if (p.mpps > best.mpps) best = p;
    }
    rep.metric("throughput_mpps", best.mpps);
    rep.metric("throughput_gbps", best.gbps);
    rep.metric("best_workers", static_cast<double>(best.workers));
    rep.metric("allocs_per_batch", best.allocs_per_batch);
    if (best.latency_p99 > 0.0) {
        rep.metric("latency_p50", best.latency_p50);
        rep.metric("latency_p99", best.latency_p99);
    }
    for (const SweepPoint& p : points) {
        const std::string suffix = "_w" + std::to_string(p.workers) +
                                   (p.pin ? "_pin" : "_nopin");
        rep.metric("mpps" + suffix, p.mpps);
        rep.metric("allocs_per_batch" + suffix, p.allocs_per_batch);
        rep.metric("pinned" + suffix, static_cast<double>(p.pinned));
    }

    bench::section("per-packet costs");
    const double steer_ns = measure_steer_ns(prog, flows, kRounds);
    const double probe_ns = measure_probe_ns(kRounds);
    std::printf("steering-plan build : %8.2f ns/packet\n", steer_ns);
    std::printf("flat-LRU cache probe: %8.2f ns/probe\n", probe_ns);
    rep.metric("steer_plan_ns_per_packet", steer_ns);
    rep.metric("cache_probe_ns", probe_ns);

    rep.write();
    return 0;
}
