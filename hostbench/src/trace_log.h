// hostbench/src/trace_log.h — the traced run's span store. The benchmark's
// own spans (one per call it makes into a layer: dispatch, poll, entry op,
// controller tick, empty poll) are kept here, unbounded, because a data-plane
// run records far more of them than telemetry::Tracer's per-thread buffer
// holds. The spans the program records itself (controller.*,
// emulator.drain_control, emulator.epoch_swap) are collected from
// telemetry::Tracer and merged in; both use the tracer's clock, so they nest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

struct Span {
    const char* name = "";  // string literal
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint32_t tid = 0;
    /// Duration minus the spans directly nested inside it (filled by
    /// SpanLog::merged()).
    std::uint64_t self_ns = 0;
};

class SpanLog {
public:
    /// Nanoseconds on telemetry::Tracer's clock.
    static std::uint64_t now_ns();

    void add(const char* name, std::uint64_t ts_ns, std::uint64_t dur_ns) {
        spans_.push_back(Span{name, ts_ns, dur_ns, 0, 0});
    }

    /// This log's spans plus every span telemetry::Tracer buffered, sorted by
    /// start, with self times resolved by interval containment.
    /// Every span the benchmark sees is opened on its one driver thread, so
    /// containment in time is nesting.
    std::vector<Span> merged() const;

private:
    std::vector<Span> spans_;
};

/// Durations (or self times) of every span named `name`, in nanoseconds.
std::vector<double> durations(const std::vector<Span>& spans, const char* name,
                              bool self = false);

/// Writes the spans as chrome://tracing JSON; `other_data` is a JSON object
/// stored under "otherData". Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& other_data);

}  // namespace hostbench
