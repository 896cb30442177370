// pipeleon_stats — the live telemetry dashboard (ISSUE 4). Two modes:
//
//   pipeleon_stats [--windows N] [--packets N] [--workers N] [--live]
//                  [--trace FILE] [--csv FILE]
//     Runs the canonical ACL-routing scenario through the batched data plane
//     with the controller ticking once per window, and renders the metrics
//     snapshot (sim.* / ctl.* counters, latency histograms) plus the pump's
//     batch-sizing decisions after every window. --live redraws in place
//     (ANSI), --trace exports the controller spans as chrome://tracing JSON,
//     --csv writes the per-window time series.
//
//   pipeleon_stats --validate-report FILE...
//     Validates BENCH_*.json files against the "pipeleon.bench_report/1"
//     schema; prints each problem and exits 1 if any file is nonconformant
//     (CI's bench-smoke job runs this over every emitted report).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/scenarios.h"
#include "cost/model.h"
#include "runtime/controller.h"
#include "sim/nic_model.h"
#include "telemetry/bench_report.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "trafficgen/workload.h"
#include "util/json.h"

using namespace pipeleon;

namespace {

int validate_reports(const std::vector<std::string>& paths) {
    int bad = 0;
    for (const std::string& path : paths) {
        std::vector<std::string> problems;
        try {
            util::Json report = util::load_json_file(path);
            problems = telemetry::BenchReport::validate(report);
        } catch (const std::exception& e) {
            problems.push_back(e.what());
        }
        if (problems.empty()) {
            std::printf("OK    %s\n", path.c_str());
        } else {
            ++bad;
            std::printf("FAIL  %s\n", path.c_str());
            for (const std::string& p : problems) {
                std::printf("      - %s\n", p.c_str());
            }
        }
    }
    std::printf("%zu report(s), %d nonconformant\n", paths.size(), bad);
    return bad == 0 ? 0 : 1;
}

int usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [--windows N] [--packets N] [--workers N] [--live]\n"
        "          [--trace FILE] [--csv FILE]\n"
        "       %s --validate-report FILE...\n",
        argv0, argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    int windows = 10;
    int packets = 20000;
    int workers = 4;
    bool live = false;
    std::string trace_path;
    std::string csv_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--validate-report") {
            std::vector<std::string> paths(argv + i + 1, argv + argc);
            if (paths.empty()) return usage(argv[0]);
            return validate_reports(paths);
        } else if (arg == "--windows") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            windows = std::atoi(v);
        } else if (arg == "--packets") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            packets = std::atoi(v);
        } else if (arg == "--workers") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            workers = std::atoi(v);
        } else if (arg == "--live") {
            live = true;
        } else if (arg == "--trace") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            trace_path = v;
        } else if (arg == "--csv") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            csv_path = v;
        } else {
            return usage(argv[0]);
        }
    }
    if (windows <= 0 || packets <= 0 || workers <= 0) return usage(argv[0]);

    if (!trace_path.empty()) telemetry::Tracer::global().set_enabled(true);

    // The canonical scenario: ACL routing on BlueField2 with a deny-heavy
    // ACL — enough drops and reorder opportunity that the controller, the
    // pump's drop feedback, and the latency histograms all have work to do.
    ir::Program program = apps::acl_routing_program(4, 4);
    sim::NicModel nic = sim::bluefield2_model();
    sim::Emulator emu(nic, program, {});
    emu.set_worker_count(workers);

    runtime::ControllerConfig cfg;
    cfg.detector.threshold = 0.05;
    cost::CostModel model(nic.costs, {});
    runtime::Controller controller(emu, program, model, cfg);

    util::Rng rng(41);
    std::vector<trafficgen::FieldRange> tuple;
    for (auto& [name, key] : apps::acl_specs(4)) tuple.push_back({key, 0, 99999});
    trafficgen::FlowSet flows = trafficgen::FlowSet::generate(tuple, 1000, rng);
    trafficgen::Workload picker(flows, trafficgen::Locality::Uniform, 0.0, 1);
    apps::install_acl_denies(emu, "acl_subnet", flows, picker.pick_flows(0.3),
                             "subnet_id");
    trafficgen::Workload wl(flows, trafficgen::Locality::Zipf, 1.1, 2);

    telemetry::CsvSeries series(
        {"window", "throughput_gbps", "drop_rate", "mean_cycles",
         "last_batch", "shrinks_drops", "shrinks_cycles", "grows"});

    for (int w = 0; w < windows; ++w) {
        runtime::Controller::PumpStats pump =
            controller.pump_window(wl, packets, 5.0);
        runtime::TickResult tick = controller.tick();

        series.add_row({static_cast<double>(w), pump.throughput_gbps,
                        pump.drop_rate, pump.mean_cycles,
                        static_cast<double>(pump.last_batch),
                        static_cast<double>(pump.batch_shrinks_drops),
                        static_cast<double>(pump.batch_shrinks_cycles),
                        static_cast<double>(pump.batch_grows)});

        if (live) std::printf("\x1b[2J\x1b[H");
        std::printf("== window %d/%d ==\n", w + 1, windows);
        std::printf("pump: %.2f Gbps  drop=%.3f  mean=%.1f cyc  "
                    "batch=%zu [%zu..%zu]  moves: drops-%llu cycles-%llu "
                    "grow+%llu  worst-batch-drop=%.3f\n",
                    pump.throughput_gbps, pump.drop_rate, pump.mean_cycles,
                    pump.last_batch, pump.min_batch, pump.max_batch,
                    static_cast<unsigned long long>(pump.batch_shrinks_drops),
                    static_cast<unsigned long long>(pump.batch_shrinks_cycles),
                    static_cast<unsigned long long>(pump.batch_grows),
                    pump.max_batch_drop);
        std::printf("tick: profiled=%d searched=%d deployed=%d%s\n",
                    tick.profiled, tick.searched, tick.deployed,
                    tick.verify_rejected ? "  VERIFY-REJECTED" : "");
        std::printf("%s", emu.telemetry_snapshot().to_text().c_str());
        if (!live) std::printf("\n");
    }

    if (!csv_path.empty()) {
        series.write(csv_path);
        std::printf("wrote %s\n", csv_path.c_str());
    }
    if (!trace_path.empty()) {
        telemetry::Tracer::global().write_chrome_json(trace_path);
        std::printf("wrote %s (%zu events, %llu dropped)\n", trace_path.c_str(),
                    telemetry::Tracer::global().events().size(),
                    static_cast<unsigned long long>(
                        telemetry::Tracer::global().dropped()));
    }
    return 0;
}
