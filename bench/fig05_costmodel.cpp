// Figure 5 — cost-model validation: "Performance measured on BlueField2 vs.
// performance predicted by the cost model", across (a) exact-table count,
// (b) action primitives, (c) LPM table count, (d) ternary table count.
//
// We follow the paper's methodology literally: benchmark sweeps of synthetic
// programs on the target (our emulated BlueField2), fit L_mat and L_act by
// linear regression on the exact-match sweeps, estimate m for LPM/ternary by
// normalizing against the exact baseline, and then compare the *fitted*
// model's predictions against fresh measurements. All numbers are normalized
// to the measurement (measurement column = 1.00), like the figure.
#include "apps/scenarios.h"
#include "bench/common.h"
#include "bench/report.h"
#include "cost/calibrate.h"
#include "cost/model.h"
#include "ir/builder.h"
#include "sim/nic_model.h"
#include "util/strings.h"

using namespace pipeleon;

namespace {

/// Program of `n` tables of the given kind, each with `actions` actions of
/// `prims` primitives; LPM/ternary tables get the paper's measurement entry
/// shape (3 distinct prefixes / 5 distinct masks).
ir::Program sweep_program(int n, ir::MatchKind kind, int actions, int prims) {
    ir::ProgramBuilder b("sweep");
    for (int i = 0; i < n; ++i) {
        ir::TableSpec spec(util::format("t%d", i));
        spec.key(util::format("f%d", i), kind);
        for (int a = 0; a < actions; ++a) {
            spec.noop_action(util::format("t%d_a%d", i, a), prims);
        }
        spec.default_to(util::format("t%d_a0", i));
        b.append(spec.build());
    }
    return b.build();
}

void install_sweep_entries(sim::Emulator& emu, int n, ir::MatchKind kind) {
    for (int i = 0; i < n; ++i) {
        std::string table = util::format("t%d", i);
        switch (kind) {
            case ir::MatchKind::Exact:
                for (std::uint64_t v = 0; v < 16; ++v) {
                    ir::TableEntry e;
                    e.key = {ir::FieldMatch::exact(v)};
                    e.action_index = static_cast<int>(v % 2);
                    emu.insert_entry(table, e);
                }
                break;
            case ir::MatchKind::Lpm:
                // "We use three different prefixes for LPM tables."
                for (int p : {8, 16, 24}) {
                    ir::TableEntry e;
                    e.key = {ir::FieldMatch::lpm(0, p)};
                    e.action_index = 0;
                    emu.insert_entry(table, e);
                }
                break;
            default:
                // "and five different masks for ternary tables."
                for (int m = 0; m < 5; ++m) {
                    ir::TableEntry e;
                    e.key = {ir::FieldMatch::ternary(0, 0x1FULL << m)};
                    e.action_index = 0;
                    e.priority = m;
                    emu.insert_entry(table, e);
                }
                break;
        }
    }
}

/// Measures average per-packet cycles for a sweep point.
double measure(int n, ir::MatchKind kind, int actions, int prims,
               std::uint64_t seed) {
    sim::Emulator emu(sim::bluefield2_model(), sweep_program(n, kind, actions, prims),
                      {});
    install_sweep_entries(emu, n, kind);
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < n; ++i) {
        tuple.push_back({util::format("f%d", i), 0, 31});  // ~50% table hits
    }
    util::Rng rng(seed);
    trafficgen::FlowSet flows = trafficgen::FlowSet::generate(tuple, 512, rng);
    trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, seed + 1);
    return bench::run_window(emu, wl, 4000, 1.0).mean_cycles;
}

}  // namespace

int main() {
    bench::section("Figure 5: cost model vs measurement (BlueField2 model)");

    // ---- Calibration phase (the paper's "benchmarking suite").
    std::vector<cost::CalibrationPoint> exact_sweep, prim_sweep, lpm_sweep,
        tern_sweep;
    for (int n = 10; n <= 40; n += 5) {
        exact_sweep.push_back(
            {static_cast<double>(n),
             measure(n, ir::MatchKind::Exact, 2, 1, 100 + n)});
    }
    for (int prims = 1; prims <= 8; ++prims) {
        prim_sweep.push_back(
            {20.0 * prims,
             measure(20, ir::MatchKind::Exact, 2, prims, 200 + prims)});
    }
    for (int n = 10; n <= 16; n += 2) {
        lpm_sweep.push_back({static_cast<double>(n),
                             measure(n, ir::MatchKind::Lpm, 2, 1, 300 + n)});
        tern_sweep.push_back({static_cast<double>(n),
                              measure(n, ir::MatchKind::Ternary, 2, 1, 400 + n)});
    }
    cost::CalibrationResult calib =
        cost::calibrate(exact_sweep, prim_sweep, lpm_sweep, tern_sweep);
    std::printf("\nfitted: per-exact-table slope=%.2f (r2=%.4f)  "
                "L_act=%.2f (r2=%.4f)  m_lpm=%.2f  m_ternary=%.2f\n",
                calib.l_mat, calib.l_mat_r2, calib.l_act, calib.l_act_r2,
                calib.lpm_m, calib.ternary_m);

    // The fitted exact-table slope includes the fixed per-table action cost
    // (2 actions x 1 primitive); separate L_mat out like the paper's Y1/Y2.
    cost::CostParams fitted = sim::bluefield2_model().costs;
    fitted.l_act = calib.l_act;
    fitted.l_mat = calib.l_mat - 1.0 * calib.l_act;  // n_a = 1 per action mix
    fitted.default_lpm_m = std::max(1, static_cast<int>(std::lround(calib.lpm_m)));
    fitted.default_ternary_m =
        std::max(1, static_cast<int>(std::lround(calib.ternary_m)));
    profile::InstrumentationConfig instr;  // deployed programs are profiled
    cost::CostModel model(fitted, instr);

    // ---- Validation phase: 16 fresh scenarios, 4 per panel.
    struct Panel {
        const char* title;
        ir::MatchKind kind;
        std::vector<int> xs;
        int actions, prims;
        bool sweep_prims;
    };
    std::vector<Panel> panels = {
        {"(a) # exact tables", ir::MatchKind::Exact, {10, 20, 30, 40}, 2, 1, false},
        {"(b) # action primitives", ir::MatchKind::Exact, {2, 4, 6, 8}, 2, 0, true},
        {"(c) # LPM tables", ir::MatchKind::Lpm, {10, 12, 14, 16}, 2, 1, false},
        {"(d) # ternary tables", ir::MatchKind::Ternary, {10, 12, 14, 16}, 2, 1,
         false},
    };

    std::vector<double> deviations;
    for (const Panel& panel : panels) {
        std::printf("\n%s\n", panel.title);
        util::TextTable table({"x", "measured(norm)", "model(norm)", "deviation"});
        for (int x : panel.xs) {
            int n = panel.sweep_prims ? 20 : x;
            int prims = panel.sweep_prims ? x : panel.prims;
            double measured =
                measure(n, panel.kind, panel.actions, prims, 500 + x);

            // Model prediction for the same program shape, using the same
            // profile assumptions (uniform actions, ~50% hit rate).
            ir::Program prog = sweep_program(n, panel.kind, panel.actions, prims);
            profile::RuntimeProfile prof;
            prof.reset_for(prog, 1.0);
            for (ir::NodeId id : prog.reachable()) {
                auto& st = prof.table(id);
                for (auto& h : st.action_hits) h = 500;
                st.misses = 0;
                st.entry_count = 16;
                if (panel.kind == ir::MatchKind::Lpm) st.lpm_prefix_count = 3;
                if (panel.kind == ir::MatchKind::Ternary) st.ternary_mask_count = 5;
            }
            double predicted = model.expected_latency(prog, prof);

            // Normalized throughput (reciprocal latency) like the figure.
            double ratio = measured / predicted;  // model-normalized thpt
            deviations.push_back(std::fabs(ratio - 1.0));
            table.add_row({std::to_string(x), "1.00",
                           util::format("%.3f", ratio),
                           util::format("%+.1f%%", 100.0 * (ratio - 1.0))});
        }
        std::printf("%s", table.to_string().c_str());
    }

    std::printf("\nmean |deviation| across the 16 scenarios: %.2f%%  "
                "(paper: ~5%% on real hardware)\n",
                100.0 * util::mean(deviations));

    bench::Reporter rep("fig05_costmodel", sim::bluefield2_model());
    rep.param("scenarios", static_cast<std::uint64_t>(deviations.size()));
    rep.metric("model_mean_abs_deviation", util::mean(deviations));
    rep.write();
    return 0;
}
