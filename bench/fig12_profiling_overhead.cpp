// Figure 12 — profiling overhead (§5.4.1): per-packet counter updates add
// latency and cost throughput. Sweep 20/30/40 counter updates per packet
// (programs with that many tables), simple (1-primitive) vs complex
// (4-primitive) actions, with and without 1/1024 sampling, on the Agilio CX
// model (12a latency, 12b throughput) and BlueField2 (12c throughput).
#include "apps/scenarios.h"
#include "bench/common.h"
#include "bench/report.h"
#include "ir/builder.h"
#include "sim/nic_model.h"
#include "util/strings.h"

using namespace pipeleon;

namespace {

double mean_cycles(const sim::NicModel& nic, int tables, int prims,
                   const profile::InstrumentationConfig& instr) {
    ir::Program prog = ir::chain_of_exact_tables("ovh", tables, 2, prims);
    sim::Emulator emu(nic, prog, instr);
    util::Rng rng(9);
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < tables; ++i) {
        tuple.push_back({util::format("f%d", i), 0, 31});
    }
    trafficgen::FlowSet flows = trafficgen::FlowSet::generate(tuple, 256, rng);
    apps::install_flow_entries(emu, flows);
    trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 3);
    // 4096 packets = a multiple of the 1024 sampling period.
    return bench::run_window(emu, wl, 4096, 1.0).mean_cycles;
}

/// Returns the worst (largest) unsampled overhead percentage seen.
double run_target(const sim::NicModel& nic, bool show_latency) {
    std::printf("\n-- %s --\n", nic.name.c_str());
    profile::InstrumentationConfig off{false, 1.0};
    profile::InstrumentationConfig full{true, 1.0};
    profile::InstrumentationConfig sampled{true, 1.0 / 1024.0};

    double worst = 0.0;
    util::TextTable table({"counter updates", "simple action", "complex action",
                           "simple + 1/1024 sampling"});
    for (int updates : {20, 30, 40}) {
        std::vector<std::string> row{std::to_string(updates)};
        for (auto [prims, cfg] :
             {std::pair{1, full}, std::pair{4, full}, std::pair{1, sampled}}) {
            double base = mean_cycles(nic, updates, prims, off);
            double with = mean_cycles(nic, updates, prims, cfg);
            double overhead = 100.0 * (with - base) / base;
            worst = std::max(worst, overhead);
            row.push_back(util::format("%+.2f%%", overhead));
        }
        table.add_row(std::move(row));
    }
    std::printf("%s of %s\n%s", show_latency ? "latency increase" : "overhead",
                "per-packet cost (equals throughput degradation at fixed "
                "budget)",
                table.to_string().c_str());
    return worst;
}

}  // namespace

int main() {
    bench::section("Figure 12: runtime profiling overhead");
    double agilio = run_target(sim::agilio_cx_model(), true);    // 12a/12b
    double bf2 = run_target(sim::bluefield2_model(), false);     // 12c
    std::printf(
        "\npaper shape: Agilio counter updates are expensive (~20-35%%\n"
        "unsampled; ~4-5%% at 1/1024 sampling); BlueField2 counters are\n"
        "nearly free (<2%% even unsampled).\n");

    bench::Reporter rep("fig12_profiling_overhead", sim::agilio_cx_model());
    rep.metric("agilio_worst_overhead_pct", agilio);
    rep.metric("bluefield2_worst_overhead_pct", bf2);
    rep.write();
    return 0;
}
