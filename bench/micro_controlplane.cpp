// Control-plane pipeline microbenchmark (ISSUE 3): measures what the epoch
// queue buys the control plane — the wall-clock cost of one mutator call
// when the data plane is idle (synchronous drain) versus while a batch is
// in flight (enqueue-and-return), plus the latency of a full epoch swap
// (program + remapped entries). Prints a small table; the interesting
// number is the in-flight enqueue cost, which is a queue push instead of a
// wait for the batch to finish.
//
// Then a size sweep: ns per insert+erase pair, through runtime::ApiMapper
// and through Emulator::insert_entry/delete_entry, at 1K, 16K, 256K and 1M
// live entries of an exact table (plus LPM and ternary tables with 8 prefix
// lengths / 8 masks at 1K and 16K). Entry ops are applied in place, so the
// curve must stay flat: the binary exits 1 when the 1M figure exceeds 4x
// the 1K figure on either path.
#include <atomic>
#include <chrono>
#include <limits>
#include <thread>

#include "bench/common.h"
#include "bench/report.h"
#include "ir/builder.h"
#include "runtime/api_mapper.h"
#include "sim/nic_model.h"

using namespace pipeleon;

namespace {

using Clock = std::chrono::steady_clock;

double ns_per_call(Clock::time_point t0, Clock::time_point t1, int calls) {
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(calls);
}

ir::TableEntry entry_for(std::uint64_t key) {
    ir::TableEntry e;
    e.key = {ir::FieldMatch::exact(key)};
    e.action_index = 0;
    return e;
}

/// Entry number `k` of the sweep table: exact keys are k; LPM keys spread
/// over 8 prefix lengths (25..32 bits of a 32-bit field), ternary keys over
/// 8 masks. Masked keys are distinct for distinct k below 2^25.
ir::TableEntry sweep_entry(ir::MatchKind kind, std::uint64_t k) {
    ir::TableEntry e;
    switch (kind) {
        case ir::MatchKind::Lpm:
            e.key = {ir::FieldMatch::lpm(k << 7, 25 + static_cast<int>(k % 8))};
            break;
        case ir::MatchKind::Ternary:
            e.key = {ir::FieldMatch::ternary(k, 0xFFFFFFFFULL >> (k % 8))};
            break;
        default:
            e.key = {ir::FieldMatch::exact(k)};
            break;
    }
    e.action_index = 0;
    return e;
}

/// The sweep's one-table program, sized for every sweep point.
ir::Program sweep_program(ir::MatchKind kind) {
    ir::ProgramBuilder b("sweep");
    b.append(ir::TableSpec("t").key("f", kind).noop_action("a").size(1u << 21).build());
    return b.build();
}

/// Best-of-3 ns per insert+erase pair at each live size, on a sliding key
/// window: each pair inserts the next new key and erases the oldest one.
/// `op` applies one insert (erase == false) or erase and reports success;
/// any failure is counted in `failures`.
template <class Op>
std::vector<double> sweep(ir::MatchKind kind, const std::vector<std::size_t>& sizes,
                          int pairs, Op op, std::uint64_t& failures) {
    std::uint64_t lo = 0, hi = 0;
    std::vector<double> out;
    for (std::size_t live : sizes) {
        while (hi - lo < live) failures += op(sweep_entry(kind, hi++), false) ? 0 : 1;
        double best = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < 3; ++rep) {
            const Clock::time_point t0 = Clock::now();
            for (int i = 0; i < pairs; ++i) {
                failures += op(sweep_entry(kind, hi++), false) ? 0 : 1;
                failures += op(sweep_entry(kind, lo++), true) ? 0 : 1;
            }
            best = std::min(best, ns_per_call(t0, Clock::now(), pairs));
        }
        out.push_back(best);
    }
    return out;
}

}  // namespace

int main() {
    constexpr int kChainLen = 6;
    const int kOps = bench::BenchEnv::quick() ? 2000 : 20000;

    ir::Program prog = ir::chain_of_exact_tables("p", kChainLen, 2, 1);
    sim::Emulator emu(sim::bluefield2_model(), prog, {});
    emu.set_worker_count(4);

    util::Rng rng(17);
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < kChainLen; ++i) {
        tuple.push_back({"f" + std::to_string(i), 0, 255});
    }
    trafficgen::FlowSet flows =
        trafficgen::FlowSet::generate(tuple, 256, rng);
    trafficgen::Workload wl(flows, trafficgen::Locality::Zipf, 1.1, 23);

    // --- idle: every mutator drains its own op synchronously.
    std::uint64_t key = 1u << 20;
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kOps; ++i) emu.insert_entry("t0", entry_for(key++));
    Clock::time_point t1 = Clock::now();
    const double idle_ns = ns_per_call(t0, t1, kOps);

    // --- in flight: a background thread keeps batches running; the control
    // thread's inserts enqueue and return without waiting for the batch.
    std::atomic<bool> stop{false};
    std::thread data([&] {
        bench::RingPump pump(emu, 4096);
        while (!stop.load(std::memory_order_relaxed)) {
            pump.pump(wl.next_batch(emu.fields(), 4096));
        }
    });
    // Let the data plane spin up before measuring.
    while (!emu.batch_in_flight()) {
        std::this_thread::yield();
        if (stop.load()) break;
    }
    t0 = Clock::now();
    for (int i = 0; i < kOps; ++i) emu.insert_entry("t0", entry_for(key++));
    t1 = Clock::now();
    const double inflight_ns = ns_per_call(t0, t1, kOps);
    stop.store(true);
    data.join();
    emu.drain_control();

    // --- epoch swap: program + full entry reload in one transition.
    std::vector<ir::EntryLoad> loads;
    for (int i = 0; i < kChainLen; ++i) {
        ir::EntryLoad load;
        load.table = "t" + std::to_string(i);
        for (std::uint64_t k = 0; k < 256; ++k) load.entries.push_back(entry_for(k));
        loads.push_back(std::move(load));
    }
    const int kSwaps = bench::BenchEnv::quick() ? 20 : 200;
    t0 = Clock::now();
    for (int i = 0; i < kSwaps; ++i) {
        sim::EpochSwap swap;
        swap.program = prog;
        swap.entries = loads;
        swap.incremental = true;
        emu.apply_epoch(std::move(swap));
    }
    t1 = Clock::now();
    const double swap_ns = ns_per_call(t0, t1, kSwaps);
    const sim::Emulator::ControlPlaneStats stats = emu.control_stats();

    std::printf("# micro_controlplane: control-plane op latency (ns/op)\n");
    std::printf("%-28s %14s\n", "path", "ns/op");
    std::printf("%-28s %14.1f\n", "insert (idle, sync drain)", idle_ns);
    std::printf("%-28s %14.1f\n", "insert (batch in flight)", inflight_ns);
    std::printf("%-28s %14.1f\n", "epoch swap (prog+entries)", swap_ns);
    std::printf("\n# queue stats: submitted=%llu sync=%llu deferred=%llu "
                "drained=%llu max_depth=%zu epoch=%llu\n",
                static_cast<unsigned long long>(stats.ops_submitted),
                static_cast<unsigned long long>(stats.ops_applied_sync),
                static_cast<unsigned long long>(stats.ops_deferred),
                static_cast<unsigned long long>(stats.ops_drained),
                stats.max_queue_depth,
                static_cast<unsigned long long>(stats.epoch));

    bench::Reporter rep("micro_controlplane", sim::bluefield2_model());
    rep.param("ops", util::Json(std::uint64_t(kOps)));
    rep.param("swaps", util::Json(std::uint64_t(kSwaps)));
    rep.metric("insert_idle_ns", idle_ns);
    rep.metric("insert_inflight_ns", inflight_ns);
    rep.metric("epoch_swap_ns", swap_ns);
    rep.metric("epochs", static_cast<double>(stats.epoch));

    // --- size sweep: insert+erase pairs against the live table size.
    const int kPairs = bench::BenchEnv::quick() ? 2000 : 20000;
    std::printf("\n# size sweep: ns per insert+erase pair (best of 3 x %d)\n", kPairs);
    std::printf("%-8s %9s %14s %14s\n", "table", "live", "ApiMapper", "Emulator");
    bool flat = true;
    std::uint64_t failures = 0;
    for (ir::MatchKind kind :
         {ir::MatchKind::Exact, ir::MatchKind::Lpm, ir::MatchKind::Ternary}) {
        const ir::Program sweep_prog = sweep_program(kind);
        const std::vector<std::size_t> sizes =
            kind == ir::MatchKind::Exact
                ? std::vector<std::size_t>{1u << 10, 1u << 14, 1u << 18, 1u << 20}
                : std::vector<std::size_t>{1u << 10, 1u << 14};
        std::vector<double> api_ns, emu_ns;
        {
            sim::Emulator sweep_emu(sim::bluefield2_model(), sweep_prog, {});
            runtime::ApiMapper api(sweep_prog);
            api_ns = sweep(
                kind, sizes, kPairs,
                [&](const ir::TableEntry& e, bool erase) {
                    return erase ? api.erase(sweep_emu, "t", e.key)
                                 : api.insert(sweep_emu, "t", e);
                },
                failures);
        }
        {
            sim::Emulator sweep_emu(sim::bluefield2_model(), sweep_prog, {});
            emu_ns = sweep(
                kind, sizes, kPairs,
                [&](const ir::TableEntry& e, bool erase) {
                    return erase ? sweep_emu.delete_entry("t", e.key)
                                 : sweep_emu.insert_entry("t", e);
                },
                failures);
        }
        const char* name = ir::to_string(kind);
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            std::printf("%-8s %9zu %14.1f %14.1f\n", name, sizes[i], api_ns[i],
                        emu_ns[i]);
            const std::string suffix =
                std::string(name) + "_" + std::to_string(sizes[i] >> 10) + "k";
            rep.metric("pair_api_ns_" + suffix, api_ns[i]);
            rep.metric("pair_emu_ns_" + suffix, emu_ns[i]);
        }
        if (kind == ir::MatchKind::Exact) {
            flat = api_ns.back() <= 4.0 * api_ns.front() &&
                   emu_ns.back() <= 4.0 * emu_ns.front();
        }
    }
    rep.write();
    if (failures > 0) {
        std::printf("FAIL: %llu sweep entry ops failed\n",
                    static_cast<unsigned long long>(failures));
        return 1;
    }
    if (!flat) {
        std::printf("FAIL: exact-table op cost at 1M entries exceeds 4x the 1K cost\n");
        return 1;
    }
    return 0;
}
