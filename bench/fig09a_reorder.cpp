// Figure 9a/9b — the table-reordering microbenchmark: "the performance
// improvement when the ACL table is reordered to earlier positions …
// promoting the table to earlier positions leads to higher and higher
// performance until it achieves the line rate. Moreover, higher percentages
// of dropped traffic lead to higher performance gain." Run on both the
// BlueField2 model (9a) and the Agilio CX model (9b).
#include "apps/scenarios.h"
#include "bench/common.h"
#include "bench/report.h"
#include "ir/builder.h"
#include "sim/nic_model.h"
#include "util/strings.h"

using namespace pipeleon;

namespace {

/// A chain of 21 processing tables with one ACL placed at `acl_position`
/// (0 = front). The paper sweeps the ACL from position 21 down to 0.
ir::Program program_with_acl_at(int acl_position, int chain_len = 21) {
    ir::ProgramBuilder b("reorder_bench");
    int placed = 0;
    for (int slot = 0; slot <= chain_len; ++slot) {
        if (slot == acl_position) {
            b.append(ir::TableSpec("acl")
                         .key("acl_key")
                         .noop_action("acl_allow", 1)
                         .drop_action("acl_deny")
                         .default_to("acl_allow")
                         .build());
        } else {
            std::string name = util::format("t%d", placed++);
            b.append(ir::TableSpec(name)
                         .key(util::format("f%d", placed))
                         .noop_action(name + "_a0", 1)
                         .noop_action(name + "_a1", 1)
                         .default_to(name + "_a0")
                         .build());
        }
    }
    return b.build();
}

/// Returns the front-position / 75%-drop throughput (the figure's best
/// point) for the bench report.
double run_target(const sim::NicModel& nic) {
    std::printf("\n-- %s (line rate %.0f Gbps) --\n", nic.name.c_str(),
                nic.line_rate_gbps);
    util::TextTable table({"ACL position", "drop 25% (Gbps)", "drop 50% (Gbps)",
                           "drop 75% (Gbps)"});
    double best = 0.0;
    for (int pos : {21, 18, 15, 12, 9, 6, 3, 0}) {
        std::vector<std::string> row{std::to_string(pos)};
        for (double drop : {0.25, 0.50, 0.75}) {
            sim::Emulator emu(nic, program_with_acl_at(pos), {});
            util::Rng rng(static_cast<std::uint64_t>(pos * 100) +
                          static_cast<std::uint64_t>(drop * 10));
            trafficgen::FlowSet flows = trafficgen::FlowSet::generate(
                {{"acl_key", 0, 9999}}, 2000, rng);
            trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 7);
            apps::install_acl_denies(emu, "acl", flows, wl.pick_flows(drop),
                                     "acl_key");
            bench::WindowResult w = bench::run_window(emu, wl, 15000, 1.0);
            if (pos == 0 && drop == 0.75) best = w.throughput_gbps;
            row.push_back(util::format("%.1f", w.throughput_gbps));
        }
        table.add_row(std::move(row));
    }
    std::printf("%s", table.to_string().c_str());
    return best;
}

}  // namespace

int main() {
    bench::section(
        "Figure 9a/9b: table reordering - ACL promoted to earlier positions");
    double bf2 = run_target(sim::bluefield2_model());
    double agilio = run_target(sim::agilio_cx_model());
    std::printf(
        "\npaper shape: throughput rises monotonically as the ACL moves to\n"
        "earlier positions; higher drop rates gain more; BlueField2 reaches\n"
        "line rate, Agilio saturates its 40 Gbps port.\n");

    bench::Reporter rep("fig09a_reorder", sim::bluefield2_model());
    rep.param("chain_len", 21);
    rep.metric("throughput_gbps", bf2);
    rep.metric("agilio_gbps", agilio);
    rep.write();
    return 0;
}
