// ext_hierarchical_memory — hierarchical flow-state memory at scale
// (DESIGN.md §14). Three parts:
//
//   1. The flagship sweep: a sim::TieredStore holding 10M+ distinct flows
//      across SRAM -> NIC-DRAM -> host-DMA tiers, swept over Zipf skew
//      s ∈ {0.6, 0.9, 0.99} × three tier-budget carves. Reports per-tier
//      hit ratios, effective lookup latency, and goodput; *asserts* hit
//      conservation (lookups == Σ tier hits + misses) and a monotone
//      effective-latency curve vs skew — exit 1 on violation.
//   2. The §6 table-placement sweep (SRAM vs EMEM density greedy) on the
//      DASH routing pipeline, kept from the original extension bench.
//   3. A small emulator-integration run: a cached chain with lower tiers
//      enabled, driven through the descriptor rings, printing the tier.*
//      telemetry the controller sees.
#include <cinttypes>
#include <cmath>
#include <memory>

#include "analysis/pipelet.h"
#include "apps/scenarios.h"
#include "bench/common.h"
#include "bench/report.h"
#include "ir/builder.h"
#include "opt/memory_tiers.h"
#include "opt/transform.h"
#include "profile/counter_map.h"
#include "sim/nic_model.h"
#include "sim/tiered_store.h"
#include "telemetry/metrics.h"

using namespace pipeleon;

namespace {

// --------------------------------------------------------------- part 1

/// splitmix64 finalizer: maps Zipf rank -> flow key so hot ranks are
/// scattered uniformly through the hash space (insertion order and hotness
/// decorrelated, as in real flow tables).
std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// O(1) Zipf(s) sampler over ranks [1, n] via the continuous inverse CDF
/// (density ∝ x^-s, s < 1). util::ZipfSampler's exact CDF would cost an
/// O(n) table per (config, skew) point — ~100 MB and a cache-missing
/// binary search per draw at n = 12M; the continuous approximation is
/// rank-exact enough for a locality sweep and costs one pow() per draw.
class ApproxZipf {
public:
    ApproxZipf(std::uint64_t n, double s)
        : n_(n),
          inv_(1.0 / (1.0 - s)),
          span_(std::pow(static_cast<double>(n) + 1.0, 1.0 - s) - 1.0) {}

    std::uint64_t rank(util::Rng& rng) const {
        const double x = std::pow(1.0 + rng.uniform() * span_, inv_);
        const std::uint64_t r = static_cast<std::uint64_t>(x);
        return r > n_ ? n_ : (r == 0 ? 1 : r);
    }

private:
    std::uint64_t n_;
    double inv_;
    double span_;
};

struct TierBudget {
    const char* name;
    std::size_t sram;
    std::size_t dram;
    std::size_t host;
};

struct SweepPoint {
    double skew = 0.0;
    double eff_cycles = 0.0;   // l_mat + mean tier premium per lookup
    double goodput_mpps = 0.0;
    double sram_ratio = 0.0;
    double dram_ratio = 0.0;
    double host_ratio = 0.0;
    double miss_ratio = 0.0;
    std::uint64_t promotions = 0;
    double dma_fill = 0.0;  // mean descriptors per doorbell
};

/// Measures one (budget, skew) point on an already-populated store.
/// Returns false on a conservation violation.
bool measure_point(sim::TieredStore& store, std::uint64_t flows, double skew,
                   std::uint64_t warm_lookups, std::uint64_t lookups,
                   double l_mat, double cycles_per_second, SweepPoint& out) {
    const ApproxZipf zipf(flows, skew);
    util::Rng rng(static_cast<std::uint64_t>(skew * 1000.0) + flows);
    sim::KeyVec key;

    auto drive = [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
            key.clear();
            key.push_back(mix(zipf.rank(rng)));
            if (store.lookup(key).entry == nullptr) {
                // Dropped off the last tier earlier: refill (counted as the
                // miss it is).
                sim::CacheStore::CacheEntry e;
                store.insert(key, std::move(e), 0.0);
            }
            if (i % 64 == 63) store.flush_batch();
        }
        store.flush_batch();
    };

    drive(warm_lookups);  // let promotion sort the hot set into place
    const sim::TierStats before = store.stats();
    drive(lookups);
    const sim::TierStats after = store.stats();

    const std::uint64_t dl = after.lookups - before.lookups;
    const std::uint64_t ds = after.sram_hits - before.sram_hits;
    const std::uint64_t dd = after.dram_hits - before.dram_hits;
    const std::uint64_t dh = after.host_hits - before.host_hits;
    const std::uint64_t dm = after.misses - before.misses;
    if (dl != ds + dd + dh + dm) {
        std::fprintf(stderr,
                     "CONSERVATION VIOLATION at s=%.2f: lookups %" PRIu64
                     " != %" PRIu64 " + %" PRIu64 " + %" PRIu64 " + %" PRIu64
                     "\n",
                     skew, dl, ds, dd, dh, dm);
        return false;
    }

    const double n = static_cast<double>(dl);
    out.skew = skew;
    out.eff_cycles = l_mat + (after.tier_cycles - before.tier_cycles) / n;
    out.goodput_mpps = cycles_per_second / out.eff_cycles / 1e6;
    out.sram_ratio = static_cast<double>(ds) / n;
    out.dram_ratio = static_cast<double>(dd) / n;
    out.host_ratio = static_cast<double>(dh) / n;
    out.miss_ratio = static_cast<double>(dm) / n;
    out.promotions = after.promotions - before.promotions;
    const std::uint64_t batches = after.dma_batches - before.dma_batches;
    out.dma_fill =
        batches > 0 ? static_cast<double>(after.dma_fetches -
                                          before.dma_fetches) /
                          static_cast<double>(batches)
                    : 0.0;
    return true;
}

}  // namespace

int main() {
    const bool quick = bench::BenchEnv::quick();
    bench::Reporter rep("ext_hierarchical_memory", "bluefield2");
    bool ok = true;

    // ------------------------------------------------------------- part 1
    bench::section("Tiered flow-state store at scale (SRAM -> DRAM -> host)");

    const std::uint64_t kFlows = quick ? 200'000 : 12'000'000;
    const std::uint64_t kWarm = quick ? 40'000 : 400'000;
    const std::uint64_t kLookups = quick ? 120'000 : 1'200'000;
    const double kSkews[] = {0.6, 0.9, 0.99};

    const std::vector<TierBudget> budgets =
        quick ? std::vector<TierBudget>{
                    {"sram2k+host", 2048, 0, 262144},
                    {"sram2k+dram16k+host", 2048, 16384, 262144},
                    {"sram8k+dram64k+host", 8192, 65536, 262144}}
              : std::vector<TierBudget>{
                    {"sram64k+host", 65536, 0, 16'777'216},
                    {"sram64k+dram1M+host", 65536, 1'048'576, 16'777'216},
                    {"sram256k+dram4M+host", 262144, 4'194'304, 16'777'216}};

    const cost::CostParams bf2 = cost::bluefield2_params();
    const double cycles_per_second = sim::bluefield2_model().cycles_per_second;

    std::printf("\n%" PRIu64 " distinct flows per store; %" PRIu64
                " Zipf lookups per point (+%" PRIu64 " warm-up)\n",
                kFlows, kLookups, kWarm);

    util::TextTable table({"budget", "s", "sram%", "dram%", "host%", "miss%",
                           "eff cyc", "Mpps", "promos", "dma fill"});
    SweepPoint canonical{};  // three-tier budget at s = 0.9
    for (const TierBudget& b : budgets) {
        ir::CacheConfig cfg;
        cfg.capacity = b.sram;
        cfg.max_insert_per_sec = 1e18;  // population is not rate-limited
        cfg.tiers.dram_entries = b.dram;
        cfg.tiers.host_entries = b.host;
        sim::TierCosts costs;
        costs.l_tier_dram = bf2.l_tier_dram;
        costs.l_tier_host = bf2.l_tier_host;
        costs.dma_setup = bf2.dma_setup;
        costs.dma_per_entry = bf2.dma_per_entry;
        sim::TieredStore store(cfg, costs);

        // Populate: every flow inserted once; the demotion cascade spreads
        // them across the tiers (capacity >= flows, so all stay resident).
        sim::KeyVec key;
        for (std::uint64_t r = 1; r <= kFlows; ++r) {
            key.clear();
            key.push_back(mix(r));
            store.insert(key, sim::CacheStore::CacheEntry{}, 0.0);
        }
        if (store.size() < kFlows) {
            std::fprintf(stderr,
                         "population lost flows: %zu resident of %" PRIu64
                         "\n",
                         store.size(), kFlows);
            ok = false;
        }

        double prev_eff = 0.0;
        for (std::size_t i = 0; i < 3; ++i) {
            SweepPoint pt;
            if (!measure_point(store, kFlows, kSkews[i], kWarm, kLookups,
                               bf2.l_mat, cycles_per_second, pt)) {
                ok = false;
                continue;
            }
            table.add_row({b.name, util::format("%.2f", pt.skew),
                           util::format("%.1f", 100.0 * pt.sram_ratio),
                           util::format("%.1f", 100.0 * pt.dram_ratio),
                           util::format("%.1f", 100.0 * pt.host_ratio),
                           util::format("%.2f", 100.0 * pt.miss_ratio),
                           util::format("%.1f", pt.eff_cycles),
                           util::format("%.2f", pt.goodput_mpps),
                           std::to_string(pt.promotions),
                           util::format("%.1f", pt.dma_fill)});
            // Monotone curve: more locality can only help a tiered store.
            if (i > 0 && pt.eff_cycles > prev_eff * 1.001) {
                std::fprintf(stderr,
                             "MONOTONICITY VIOLATION (%s): eff %.2f at "
                             "s=%.2f > %.2f at s=%.2f\n",
                             b.name, pt.eff_cycles, pt.skew, prev_eff,
                             kSkews[i - 1]);
                ok = false;
            }
            prev_eff = pt.eff_cycles;
            if (&b == &budgets[1] && i == 1) canonical = pt;
        }
    }
    std::printf("%s", table.to_string().c_str());
    std::printf("\nexpected: effective latency falls with skew (hot flows\n"
                "concentrate into SRAM/DRAM) and with larger upper tiers;\n"
                "dma fill approaches the 32-descriptor batch as host traffic\n"
                "grows.\n");

    // ------------------------------------------------------------- part 2
    bench::section("Table placement sweep (Agilio-style EMEM vs SRAM)");

    ir::Program program = apps::dash_routing_program();
    sim::NicModel nic = sim::agilio_cx_model();
    nic.costs.l_mat_fast = 6.0;  // SRAM ~4x faster than EMEM (26 cycles)

    auto make_emulator = [&](const ir::Program& prog) {
        auto emu = std::make_unique<sim::Emulator>(
            nic, prog, profile::InstrumentationConfig{});
        for (const char* table :
             {"direction_lookup", "appliance", "eni", "vni"}) {
            for (std::uint64_t k = 0; k < 4; ++k) {
                ir::TableEntry e;
                e.key = {ir::FieldMatch::exact(k)};
                e.action_index = 0;
                e.action_data = {k};
                if (!emu->insert_entry(table, e)) {
                    std::fprintf(stderr, "fixture insert failed: %s[%" PRIu64
                                         "]\n",
                                 table, k);
                    std::exit(1);
                }
            }
        }
        for (std::uint64_t net = 0; net < 6; ++net) {
            ir::TableEntry e;
            e.key = {
                ir::FieldMatch::lpm(net << 24, 4 + 4 * static_cast<int>(net))};
            e.action_index = 0;
            e.action_data = {net};
            if (!emu->insert_entry("routing", e)) {
                std::fprintf(stderr, "fixture insert failed: routing[%" PRIu64
                                     "]\n",
                             net);
                std::exit(1);
            }
        }
        // Per-flow conntrack state, covering the workload's flow_id range —
        // the churny table the placement pass has to weigh against the
        // small metadata tables.
        for (std::uint64_t f = 0; f < 2000; ++f) {
            ir::TableEntry e;
            e.key = {ir::FieldMatch::exact(f)};
            e.action_index = 0;
            if (!emu->insert_entry("conntrack", e)) {
                std::fprintf(stderr,
                             "fixture insert failed: conntrack[%" PRIu64 "]\n",
                             f);
                std::exit(1);
            }
        }
        return emu;
    };

    util::Rng rng(3);
    trafficgen::FlowSet flows = trafficgen::FlowSet::generate(
        {{"direction", 0, 1}, {"appliance_key", 0, 3}, {"eni_mac", 0, 3},
         {"vni_key", 0, 3}, {"flow_id", 0, 1999}, {"src_ip", 0, 9999},
         {"dst_ip", 0, 9999}, {"dst_port", 0, 1023},
         {"ipv4_dst", 0, 0x05FFFFFF}},
        2000, rng);
    const int window_packets = quick ? 4000 : 15000;

    auto base_emu = make_emulator(program);
    trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 7);
    bench::WindowResult base = bench::run_window(*base_emu, wl,
                                                 window_packets, 5.0);
    profile::CounterMap map = profile::CounterMap::build(program, program);
    profile::RuntimeProfile prof =
        map.translate(program, base_emu->read_counters());

    std::printf("\nbaseline (all tables in EMEM): %.1f cycles/pkt  %.2f Gbps\n\n",
                base.mean_cycles, base.throughput_gbps);

    util::TextTable placement({"SRAM budget", "tables in SRAM", "bytes used",
                               "cycles/pkt", "Gbps", "speedup"});
    double best_gbps = base.throughput_gbps;
    for (double kb : {0.0, 1.0, 4.0, 16.0, 64.0, 1024.0}) {
        cost::CostParams params = nic.costs;
        params.fast_memory_bytes = kb * 1024.0;
        cost::CostModel model(params, {});
        opt::TierAssignment placed =
            opt::assign_memory_tiers(program, prof, model);

        auto emu = make_emulator(placed.program);
        trafficgen::Workload wl2(flows, trafficgen::Locality::Uniform, 0.0, 7);
        bench::WindowResult w =
            bench::run_window(*emu, wl2, window_packets, 5.0);
        best_gbps = std::max(best_gbps, w.throughput_gbps);
        placement.add_row(
            {util::format("%.0f KB", kb),
             std::to_string(placed.tables_in_fast),
             util::format("%.0f", placed.fast_bytes_used),
             util::format("%.1f", w.mean_cycles),
             util::format("%.2f", w.throughput_gbps),
             util::format("%.2fx", base.mean_cycles / w.mean_cycles)});
    }
    std::printf("%s", placement.to_string().c_str());
    std::printf("\nexpected: latency falls monotonically with the SRAM budget;\n"
                "the density greedy fills small hot tables first (metadata\n"
                "lookups), then the multi-probe LPM routing table.\n");

    // ------------------------------------------------------------- part 3
    bench::section("Emulator integration: tiered cache + tier.* telemetry");

    ir::Program chain = ir::chain_of_exact_tables("hm", 4, 2, 1);
    analysis::PipeletOptions popt;
    popt.max_length = 6;
    auto pipelets = analysis::form_pipelets(chain, popt);
    opt::PipeletPlan plan;
    plan.pipelet_id = 0;
    for (std::size_t i = 0; i < pipelets[0].nodes.size(); ++i) {
        plan.layout.order.push_back(i);
    }
    plan.layout.caches = {opt::Segment{0, 2}};
    plan.layout.cache_config.capacity = quick ? 512 : 2048;
    plan.layout.cache_config.max_insert_per_sec = 1e9;
    plan.layout.cache_config.tiers.dram_entries = quick ? 4096 : 16384;
    plan.layout.cache_config.tiers.host_entries = quick ? 16384 : 65536;
    ir::Program cached = opt::apply_plans(chain, pipelets, {plan});

    sim::Emulator emu(sim::bluefield2_model(), cached,
                      profile::InstrumentationConfig{});
    util::Rng rng3(17);
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < 4; ++i) {
        tuple.push_back({util::format("f%d", i), 0, 1023});
    }
    trafficgen::FlowSet chain_flows = trafficgen::FlowSet::generate(
        tuple, quick ? 8000 : 50'000, rng3);
    apps::install_flow_entries(emu, chain_flows);
    trafficgen::Workload wl3(chain_flows, trafficgen::Locality::Zipf, 1.1, 9);
    bench::WindowResult w3 =
        bench::run_window(emu, wl3, quick ? 5000 : 30'000, 2.0);

    telemetry::MetricsSnapshot snap = emu.telemetry_snapshot();
    const std::uint64_t t_lookups = snap.counter("tier.lookups");
    const std::uint64_t t_hits = snap.counter("tier.sram_hits") +
                                 snap.counter("tier.dram_hits") +
                                 snap.counter("tier.host_hits");
    std::printf("\n%.1f cycles/pkt  %.2f Gbps with a %zu/%zu/%zu-entry "
                "tiered cache\n",
                w3.mean_cycles, w3.throughput_gbps,
                plan.layout.cache_config.capacity,
                plan.layout.cache_config.tiers.dram_entries,
                plan.layout.cache_config.tiers.host_entries);
    std::printf("tier.lookups=%" PRIu64 " sram=%" PRIu64 " dram=%" PRIu64
                " host=%" PRIu64 " misses=%" PRIu64 " promotions=%" PRIu64
                " demotions=%" PRIu64 " dma_batches=%" PRIu64 "\n",
                t_lookups, snap.counter("tier.sram_hits"),
                snap.counter("tier.dram_hits"),
                snap.counter("tier.host_hits"), snap.counter("tier.misses"),
                snap.counter("tier.promotions"),
                snap.counter("tier.demotions"),
                snap.counter("tier.dma_batches"));
    if (t_lookups != t_hits + snap.counter("tier.misses")) {
        std::fprintf(stderr, "CONSERVATION VIOLATION in tier.* telemetry\n");
        ok = false;
    }
    if (snap.counter("tier.dram_hits") + snap.counter("tier.host_hits") == 0) {
        std::fprintf(stderr, "tiered cache never reached its lower tiers\n");
        ok = false;
    }

    // ------------------------------------------------------------- report
    rep.param("flows", static_cast<double>(kFlows));
    rep.param("lookups_per_point", static_cast<double>(kLookups));
    rep.metric("throughput_gbps", best_gbps);
    rep.metric("baseline_gbps", base.throughput_gbps);
    rep.metric("tiered_flows", static_cast<double>(kFlows));
    rep.metric("tiered_eff_cycles", canonical.eff_cycles);
    rep.metric("tiered_goodput_mpps", canonical.goodput_mpps);
    rep.metric("tier_sram_hit_ratio", canonical.sram_ratio);
    rep.metric("tier_host_hit_ratio", canonical.host_ratio);
    rep.metric("tier_dma_fill", canonical.dma_fill);
    rep.write();

    if (!ok) {
        std::fprintf(stderr, "\nFAILED: tiered-store invariants violated\n");
        return 1;
    }
    return 0;
}
