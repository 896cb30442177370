// Figure 9c — table caching options on a four-ternary-table pipelet:
// no-cache, [1][2][3][4], [1,2][3][4], [1,2,3][4], [1,2,3,4]. "Caching more
// tables with fewer caches leads to greater performance"; per-table caches
// stay tiny (the paper: 90% hit rate with 54 entries total) while the
// whole-pipelet cache pays the cross-product in entries (36k) — we report
// both throughput and cache entries.
#include "apps/scenarios.h"
#include "bench/common.h"
#include "bench/report.h"
#include "analysis/pipelet.h"
#include "ir/builder.h"
#include "opt/transform.h"
#include "sim/nic_model.h"
#include "util/strings.h"

using namespace pipeleon;

namespace {

struct CacheOption {
    const char* label;
    std::vector<opt::Segment> segments;
};

/// The paper replicates the 4-table pipelet with a scale factor; caching
/// options are applied inside every replica. Replicas share match fields
/// (it is the same pipelet, repeated).
ir::Program replicated_pipelets(int replicas) {
    ir::ProgramBuilder b("fig9c");
    for (int r = 0; r < replicas; ++r) {
        for (int t = 1; t <= 4; ++t) {
            std::string name = util::format("r%d_t%d", r, t);
            b.append(ir::TableSpec(name)
                         .key(util::format("f%d", t - 1), ir::MatchKind::Ternary)
                         .noop_action(name + "_a0", 2)
                         .noop_action(name + "_a1", 2)
                         .default_to(name + "_a0")
                         .build());
        }
    }
    return b.build();
}

constexpr int kReplicas = 5;

/// Returns the best measured throughput across cache options (report metric).
double run_target(const sim::NicModel& nic) {
    std::printf("\n-- %s --\n", nic.name.c_str());

    ir::Program base = replicated_pipelets(kReplicas);
    analysis::PipeletOptions popts;
    popts.max_length = 4;  // one pipelet per replica
    auto pipelets = analysis::form_pipelets(base, popts);

    const std::vector<CacheOption> options = {
        {"no cache", {}},
        {"[1][2][3][4]", {{0, 0}, {1, 1}, {2, 2}, {3, 3}}},
        {"[1,2][3][4]", {{0, 1}, {2, 2}, {3, 3}}},
        {"[1,2,3][4]", {{0, 2}, {3, 3}}},
        {"[1,2,3,4]", {{0, 3}}},
    };

    util::TextTable table(
        {"option", "throughput (Gbps)", "hit rate", "cache entries"});
    double best = 0.0;
    for (const CacheOption& option : options) {
        std::vector<opt::PipeletPlan> plans;
        for (int r = 0; r < kReplicas; ++r) {
            opt::PipeletPlan plan;
            plan.pipelet_id = r;
            plan.layout.order = {0, 1, 2, 3};
            plan.layout.caches = option.segments;
            plan.layout.cache_config.capacity = 65536;
            plan.layout.cache_config.max_insert_per_sec = 1e9;
            plans.push_back(std::move(plan));
        }
        ir::Program prog = option.segments.empty()
                               ? base
                               : opt::apply_plans(base, pipelets, plans);

        sim::Emulator emu(nic, prog, {});
        // Each table holds ternary rules with five masks so lookups cost
        // multiple probes (the §3.1 measurement shape).
        for (int r = 0; r < kReplicas; ++r) {
            for (int t = 1; t <= 4; ++t) {
                std::string name = util::format("r%d_t%d", r, t);
                for (int m = 0; m < 5; ++m) {
                    ir::TableEntry e;
                    e.key = {ir::FieldMatch::ternary(0, 0xFULL << (4 + m))};
                    e.action_index = m % 2;
                    e.priority = m;
                    emu.insert_entry(name, e);
                }
            }
        }
        // "we used a different match key for T1 to T4 and sent 40000
        // different flows": per-field value spaces stay small (16) so
        // single-table caches are tiny while the joint key cross-products.
        util::Rng rng(99);
        trafficgen::FlowSet flows = trafficgen::FlowSet::generate(
            {{"f0", 0, 11}, {"f1", 0, 11}, {"f2", 0, 11}, {"f3", 0, 11}},
            40000, rng);
        trafficgen::Workload wl(flows, trafficgen::Locality::Zipf, 1.05, 3);

        bench::run_window(emu, wl, 80000, 4.0);  // warm caches
        bench::WindowResult w = bench::run_window(emu, wl, 30000, 1.0);

        std::size_t entries = 0;  // summed across all replica caches
        std::uint64_t hits = 0, misses = 0;
        profile::RawCounters raw = emu.read_counters();
        for (const ir::Node& n : emu.program().nodes()) {
            if (n.is_table() && n.table.role == ir::TableRole::Cache) {
                entries += emu.cache_size(n.table.name);
                hits += raw.cache_hits[static_cast<std::size_t>(n.id)];
                misses += raw.cache_misses[static_cast<std::size_t>(n.id)];
            }
        }
        double hit_rate = hits + misses > 0
                              ? static_cast<double>(hits) /
                                    static_cast<double>(hits + misses)
                              : 0.0;
        table.add_row({option.label, util::format("%.1f", w.throughput_gbps),
                       option.segments.empty() ? "-"
                                               : util::format("%.2f", hit_rate),
                       std::to_string(entries)});
        best = std::max(best, w.throughput_gbps);
    }
    std::printf("%s", table.to_string().c_str());
    return best;
}

}  // namespace

int main() {
    bench::section("Figure 9c: table caching options (4-ternary-table pipelet)");
    double bf2 = run_target(sim::bluefield2_model());
    double agilio = run_target(sim::agilio_cx_model());
    std::printf(
        "\npaper shape: throughput grows from no-cache to [1,2,3,4] (fewer,\n"
        "wider caches = fewer probes); per-table caches need only a handful\n"
        "of entries while the joint cache pays the key cross-product.\n");

    bench::Reporter rep("fig09c_caching", sim::bluefield2_model());
    rep.metric("throughput_gbps", bf2);
    rep.metric("agilio_gbps", agilio);
    rep.write();
    return 0;
}
