// bench/report.h — the one-per-binary bench report (ISSUE 4). Each bench
// main owns a Reporter, feeds it params and metrics alongside its human
// tables, and calls write() last: that emits BENCH_<name>.json in the
// "pipeleon.bench_report/1" schema (see telemetry/bench_report.h) so CI can
// track a perf trajectory across PRs instead of diffing free-form text.
#pragma once

#include <cstdio>
#include <string>

#include "sim/emulator.h"
#include "sim/nic_model.h"
#include "telemetry/bench_report.h"

namespace pipeleon::bench {

class Reporter {
public:
    Reporter(std::string bench, const sim::NicModel& model)
        : report_(std::move(bench), model.name) {}
    explicit Reporter(std::string bench, std::string nic_model = "host")
        : report_(std::move(bench), std::move(nic_model)) {}

    void param(const std::string& name, util::Json value) {
        report_.set_param(name, std::move(value));
    }
    void metric(const std::string& name, double value) {
        report_.set_metric(name, value);
    }
    double metric(const std::string& name) const { return report_.metric(name); }

    /// Fills the required emulator-derived metrics: latency_p50/p99 from the
    /// current window's latency histogram (skipped when the window is
    /// empty), drops and epochs from lifetime stats.
    void from_emulator(const sim::Emulator& emulator) {
        telemetry::LatencyHistogram hist = emulator.latency_histogram();
        if (hist.count() > 0) {
            report_.set_metric("latency_p50", hist.p50());
            report_.set_metric("latency_p99", hist.p99());
        }
        report_.set_metric("drops",
                           static_cast<double>(emulator.packets_dropped()));
        report_.set_metric("epochs", static_cast<double>(emulator.epoch()));
    }

    /// Writes BENCH_<bench>.json (under $PIPELEON_BENCH_DIR or the working
    /// directory) and echoes the path. Call once, at the end of main.
    void write() const {
        const std::string path = report_.write();
        std::printf("\n[bench-report] wrote %s\n", path.c_str());
    }

    telemetry::BenchReport& raw() { return report_; }

private:
    telemetry::BenchReport report_;
};

}  // namespace pipeleon::bench
