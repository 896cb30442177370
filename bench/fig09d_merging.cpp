// Figure 9d — table merging options on a four-exact-table pipelet: no merge,
// [1,2], [1,2,3], [1,2,3,4]. Merging uses the exact merged-cache flavor
// (§3.2.3: the naive merge would go ternary and regress); merging more
// tables means fewer lookups but a Cartesian blowup of entries — the paper
// notes [t1..t4] beats [t1..t3] by 26% on Agilio while holding 19x more
// entries. We report throughput and merged entry counts.
#include "apps/scenarios.h"
#include "bench/common.h"
#include "bench/report.h"
#include "analysis/pipelet.h"
#include "ir/builder.h"
#include "opt/transform.h"
#include "runtime/api_mapper.h"
#include "sim/nic_model.h"
#include "util/strings.h"

using namespace pipeleon;

namespace {

/// Replicated 4-exact-table pipelets (the paper's scale factor); merges are
/// applied inside every replica.
ir::Program replicated_pipelets(int replicas) {
    ir::ProgramBuilder b("fig9d");
    for (int r = 0; r < replicas; ++r) {
        for (int t = 1; t <= 4; ++t) {
            std::string name = util::format("r%d_t%d", r, t);
            b.append(ir::TableSpec(name)
                         .key(util::format("f%d", t - 1))
                         .noop_action(name + "_a0", 3)
                         .noop_action(name + "_a1", 3)
                         .default_to(name + "_a0")
                         .build());
        }
    }
    return b.build();
}

constexpr int kReplicas = 4;

/// Returns the best measured throughput across merge options (report metric).
double run_target(const sim::NicModel& nic) {
    std::printf("\n-- %s --\n", nic.name.c_str());

    ir::Program base = replicated_pipelets(kReplicas);
    analysis::PipeletOptions popts;
    popts.max_length = 4;  // one pipelet per replica
    auto pipelets = analysis::form_pipelets(base, popts);

    struct Option {
        const char* label;
        int merged_tables;  // 0 = no merge
    };
    const std::vector<Option> options = {
        {"no merge", 0}, {"[1,2]", 2}, {"[1,2,3]", 3}, {"[1,2,3,4]", 4}};

    util::TextTable table(
        {"option", "throughput (Gbps)", "merged entries", "entry blowup"});
    double base_entries = 0.0;
    double best = 0.0;
    for (const Option& option : options) {
        ir::Program prog = base;
        if (option.merged_tables >= 2) {
            std::vector<opt::PipeletPlan> plans;
            for (int r = 0; r < kReplicas; ++r) {
                opt::PipeletPlan plan;
                plan.pipelet_id = r;
                plan.layout.order = {0, 1, 2, 3};
                plan.layout.merges = {opt::MergeSpec{
                    opt::Segment{0,
                                 static_cast<std::size_t>(option.merged_tables - 1)},
                    /*as_cache=*/true}};
                plans.push_back(std::move(plan));
            }
            prog = opt::apply_plans(base, pipelets, plans);
        }

        sim::Emulator emu(nic, prog, {});
        runtime::ApiMapper api(base);
        // Each source table: 12 entries covering the whole 12-value space,
        // so traffic always hits and the merged cache covers it.
        for (int r = 0; r < kReplicas; ++r) {
            for (int t = 1; t <= 4; ++t) {
                std::string name = util::format("r%d_t%d", r, t);
                for (std::uint64_t v = 0; v < 12; ++v) {
                    ir::TableEntry e;
                    e.key = {ir::FieldMatch::exact(v)};
                    e.action_index = static_cast<int>(v % 2);
                    api.insert(emu, name, e);
                }
            }
        }

        util::Rng rng(41);
        trafficgen::FlowSet flows = trafficgen::FlowSet::generate(
            {{"f0", 0, 11}, {"f1", 0, 11}, {"f2", 0, 11}, {"f3", 0, 11}},
            20000, rng);
        trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 5);

        bench::WindowResult w = bench::run_window(emu, wl, 30000, 1.0);

        std::size_t merged_entries = 0;
        for (const ir::Node& n : emu.program().nodes()) {
            if (n.is_table() && (n.table.role == ir::TableRole::MergedCache ||
                                 n.table.role == ir::TableRole::Merged)) {
                merged_entries += emu.entry_count(n.table.name);
            }
        }
        if (option.merged_tables == 2) {
            base_entries = static_cast<double>(merged_entries);
        }
        std::string blowup =
            option.merged_tables >= 3 && base_entries > 0
                ? util::format("%.0fx vs [1,2]",
                               static_cast<double>(merged_entries) / base_entries)
                : "-";
        table.add_row({option.label, util::format("%.1f", w.throughput_gbps),
                       std::to_string(merged_entries), blowup});
        best = std::max(best, w.throughput_gbps);
    }
    std::printf("%s", table.to_string().c_str());
    return best;
}

}  // namespace

int main() {
    bench::section("Figure 9d: table merging options (4-exact-table pipelet)");
    double bf2 = run_target(sim::bluefield2_model());
    double agilio = run_target(sim::agilio_cx_model());
    std::printf(
        "\npaper shape: 1.3x-2.1x (BlueField2) / 1.2x-1.8x (Agilio)\n"
        "improvement as more tables merge, at a Cartesian entry blowup.\n");

    bench::Reporter rep("fig09d_merging", sim::bluefield2_model());
    rep.metric("throughput_gbps", bf2);
    rep.metric("agilio_gbps", agilio);
    rep.write();
    return 0;
}
