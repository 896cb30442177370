// bench/micro_match.cpp — the batched match path's probe economics:
// scalar lookup() vs a poll lane's probe sequence (hash_group over the
// group's keys, prefetch every home index cell, then lookup_hashed per key
// in order) on a warm flat-LRU CacheStore sized well past L2, at
// prefetch depths 1/8/64 and across a hit-rate sweep, plus the end-to-end
// emulator rate with the sequence running in its poll lanes.
// Headline metrics:
//   probe_ns_per_key        — the lane sequence at depth 8, 100% hit
//                             (lower better)
//   probe_ns_per_key_scalar — the sequential lookup() baseline
//   probe_speedup           — scalar / batched (acceptance floor: 1.3x)
//   allocs_per_batch        — heap allocations per steady-state probe group
//                             (counted by this binary's operator new hook;
//                             anything but 0 fails the run with exit 1)
// Emits BENCH_micro_match.json (pipeleon.bench_report/1).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "analysis/pipelet.h"
#include "apps/scenarios.h"
#include "bench/common.h"
#include "bench/report.h"
#include "ir/builder.h"
#include "opt/transform.h"
#include "sim/match_batch.h"
#include "sim/nic_model.h"
#include "sim/table_state.h"
#include "util/rng.h"

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

constexpr std::size_t kKeyFields = 2;
constexpr int kChainLen = 6;
constexpr int kFlows = 512;

sim::KeyVec make_key(std::uint64_t k) {
    return sim::KeyVec{k, k * 0x9e3779b97f4a7c15ULL};
}

/// The probe workload: a warm store at 75% of capacity plus a pool of
/// absent keys, and a pseudo-random index stream over both. The stream is
/// long enough (and the store big enough) that consecutive probes never
/// share a cache line — exactly the access pattern the prefetch pipeline
/// targets.
struct ProbeSet {
    sim::CacheStore store;
    std::vector<sim::KeyVec> keys;        ///< [0, live) present, rest absent
    std::size_t live = 0;

    explicit ProbeSet(std::size_t capacity, std::size_t live_keys,
                      std::size_t miss_keys)
        : store([&] {
              ir::CacheConfig cfg;
              cfg.capacity = capacity;
              cfg.max_insert_per_sec = 1e12;
              return cfg;
          }()),
          live(live_keys) {
        keys.reserve(live_keys + miss_keys);
        for (std::uint64_t k = 0; k < live_keys + miss_keys; ++k) {
            sim::KeyVec key = make_key(k);
            if (k < live_keys) {
                store.insert(key, sim::CacheStore::CacheEntry{{k % 5}}, 0.0);
            }
            keys.push_back(std::move(key));
        }
    }

    /// Index stream with `hit_pct`% of probes landing on live keys.
    std::vector<std::uint32_t> stream(std::size_t n, int hit_pct,
                                      std::uint64_t seed) const {
        util::Rng rng(seed);
        std::vector<std::uint32_t> idx(n);
        const std::size_t misses = keys.size() - live;
        for (std::uint32_t& i : idx) {
            const bool hit =
                static_cast<int>(rng.next_u64() % 100) < hit_pct;
            i = hit ? static_cast<std::uint32_t>(rng.next_u64() % live)
                    : static_cast<std::uint32_t>(live +
                                                 rng.next_u64() % misses);
        }
        return idx;
    }
};

/// Sequential baseline: one lookup() per key, hash and probe interleaved.
double measure_scalar(ProbeSet& ps, const std::vector<std::uint32_t>& idx,
                      int rounds) {
    std::uint64_t hits = 0;
    Clock::time_point t0 = Clock::now();
    for (int r = 0; r < rounds; ++r) {
        for (std::uint32_t i : idx) {
            hits += ps.store.lookup(ps.keys[i]) != nullptr;
        }
    }
    Clock::time_point t1 = Clock::now();
    if (hits == 0xdeadbeef) std::printf("unreachable\n");  // keep live
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           (static_cast<double>(rounds) * static_cast<double>(idx.size()));
}

/// A key's words as fields 0..n, the way hash_group reads a packet.
struct KeyFields {
    const sim::KeyVec& key;
    std::uint64_t get(sim::FieldId f) const {
        return key[static_cast<std::size_t>(f)];
    }
};

/// A poll lane's probe sequence at prefetch depth `group` (1, 8 or 64):
/// hash the group's keys with hash_group, kHashGroup at a time, prefetch
/// every home index cell, then lookup_hashed each key in order. group == 1
/// isolates the cost of splitting the hash from the probe.
double measure_batched(ProbeSet& ps, const std::vector<std::uint32_t>& idx,
                       int rounds, std::size_t group) {
    constexpr std::size_t kMaxGroup = 64;
    const sim::FieldId fields[kKeyFields] = {0, 1};
    std::uint64_t hits = 0;
    Clock::time_point t0 = Clock::now();
    for (int r = 0; r < rounds; ++r) {
        for (std::size_t base = 0; base + group <= idx.size();
             base += group) {
            std::uint64_t hashes[kMaxGroup];
            for (std::size_t g = 0; g < group; g += sim::kHashGroup) {
                sim::hash_group(
                    [&](std::size_t lane) {
                        return KeyFields{ps.keys[idx[base + g + lane]]};
                    },
                    std::min(sim::kHashGroup, group - g), fields, kKeyFields,
                    hashes + g);
            }
            for (std::size_t i = 0; i < group; ++i) {
                ps.store.prefetch(hashes[i]);
            }
            for (std::size_t i = 0; i < group; ++i) {
                hits += ps.store.lookup_hashed(ps.keys[idx[base + i]],
                                               hashes[i]) != nullptr;
            }
        }
    }
    Clock::time_point t1 = Clock::now();
    if (hits == 0xdeadbeef) std::printf("unreachable\n");
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           (static_cast<double>(rounds) * static_cast<double>(idx.size()));
}

/// The chain program with a flow cache over its first half — the cache node
/// becomes the program root, so the emulator's poll lanes run the group-of-8
/// probe pipeline.
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

/// End-to-end Mpps through dispatch -> poll on 4 workers.
double measure_emulator_mpps(const ir::Program& prog,
                             const trafficgen::FlowSet& flows, int batches) {
    constexpr std::size_t kBatch = 256;
    sim::Emulator emu(sim::bluefield2_model(), prog, {});
    emu.set_worker_count(4);
    apps::install_flow_entries(emu, flows);
    trafficgen::Workload wl(flows, trafficgen::Locality::Zipf, 1.1, 31);

    const sim::PacketBatch pristine = wl.next_batch(emu.fields(), kBatch);
    bench::RingPump pump(emu, kBatch);
    for (int i = 0; i < 8; ++i) pump.pump(pristine);  // warm: cache hot
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < batches; ++i) pump.pump(pristine);
    Clock::time_point t1 = Clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    return static_cast<double>(batches) * static_cast<double>(kBatch) /
           secs / 1e6;
}

}  // namespace

int main() {
    const bool quick = bench::BenchEnv::quick();
    const std::size_t kCapacity = quick ? (1u << 16) : (1u << 19);
    const std::size_t kLive = kCapacity / 4 * 3;  // 75% full
    const std::size_t kMissPool = kCapacity / 4;
    const std::size_t kStream = quick ? (1u << 13) : (1u << 16);
    const int kRounds = quick ? 8 : 40;
    const int kBatches = quick ? 40 : 400;

    ProbeSet ps(kCapacity, kLive, kMissPool);

    bench::Reporter rep("micro_match", sim::bluefield2_model());
    rep.param("cache_capacity", static_cast<double>(kCapacity));
    rep.param("live_keys", static_cast<double>(kLive));
    rep.param("key_fields", static_cast<double>(kKeyFields));
    rep.param("stream_len", static_cast<double>(kStream));

    bench::section("probe prefetch-depth sweep, 100% hit (ns/key)");
    const std::vector<std::uint32_t> warm = ps.stream(kStream, 100, 17);
    g_alloc_count.store(0);
    g_counting.store(true);
    const double scalar_ns = measure_scalar(ps, warm, kRounds);
    const double g1_ns = measure_batched(ps, warm, kRounds, 1);
    const double g8_ns = measure_batched(ps, warm, kRounds, 8);
    const double g64_ns = measure_batched(ps, warm, kRounds, 64);
    g_counting.store(false);
    const std::uint64_t steady_allocs = g_alloc_count.load();
    std::printf("%10s %10s %10s %10s\n", "scalar", "group-1", "group-8",
                "group-64");
    std::printf("%10.2f %10.2f %10.2f %10.2f\n", scalar_ns, g1_ns, g8_ns,
                g64_ns);
    const double speedup = scalar_ns / g8_ns;
    std::printf("group-8 speedup over scalar: %.2fx\n", speedup);
    rep.metric("probe_ns_per_key", g8_ns);
    rep.metric("probe_ns_per_key_scalar", scalar_ns);
    rep.metric("probe_ns_per_key_g1", g1_ns);
    rep.metric("probe_ns_per_key_g64", g64_ns);
    rep.metric("probe_speedup", speedup);

    bench::section("hit-rate sweep, group-8 (ns/key)");
    std::printf("%8s %10s %10s %10s\n", "hit%", "scalar", "group-8",
                "speedup");
    for (int hit_pct : {100, 50, 0}) {
        const std::vector<std::uint32_t> idx =
            ps.stream(kStream, hit_pct, 23 + hit_pct);
        const double s = measure_scalar(ps, idx, kRounds);
        const double b = measure_batched(ps, idx, kRounds, 8);
        std::printf("%8d %10.2f %10.2f %9.2fx\n", hit_pct, s, b, s / b);
        char name[48];
        std::snprintf(name, sizeof(name), "probe_ns_scalar_hit%d", hit_pct);
        rep.metric(name, s);
        std::snprintf(name, sizeof(name), "probe_ns_batched_hit%d", hit_pct);
        rep.metric(name, b);
    }

    bench::section("emulator end-to-end (dispatch -> poll, 4 workers)");
    ir::Program prog = cached_chain();
    util::Rng rng(29);
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < kChainLen; ++i) {
        // snprintf, not string operator+: GCC 12 -O3 emits a bogus
        // -Wrestrict through char_traits when the concat inlines against
        // this binary's custom operator new, and CI builds with -Werror.
        char name[16];
        std::snprintf(name, sizeof(name), "f%d", i);
        tuple.push_back({name, 0, 255});
    }
    trafficgen::FlowSet flows =
        trafficgen::FlowSet::generate(tuple, kFlows, rng);
    const double mpps = measure_emulator_mpps(prog, flows, kBatches);
    std::printf("%.3f Mpps\n", mpps);
    rep.metric("emu_mpps_pipeline_on", mpps);

    const double allocs_per_batch =
        static_cast<double>(steady_allocs) /
        (static_cast<double>(kRounds) * 4.0);  // 4 measured probe loops
    rep.metric("allocs_per_batch", allocs_per_batch);
    rep.write();

    if (steady_allocs != 0) {
        std::fprintf(stderr,
                     "FAIL: %llu heap allocations in the steady-state probe "
                     "loops (must be 0)\n",
                     static_cast<unsigned long long>(steady_allocs));
        return 1;
    }
    return 0;
}
