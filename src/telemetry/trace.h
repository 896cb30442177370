// telemetry/trace.h — scoped trace spans for the control plane. A
// TELEMETRY_SPAN("controller.prepare") records one complete ("ph":"X")
// trace event — name, start timestamp, duration, thread id — into a
// per-thread buffer; Tracer::to_chrome_json() exports everything in the
// chrome://tracing / Perfetto trace-event format, so a controller run can be
// opened in a real trace viewer.
//
// Buffers are per-thread (allocated on a thread's first span and owned by
// the global tracer), each guarded by its own uncontended mutex so a
// concurrent export never races a recording thread. Buffers are bounded:
// past kMaxEventsPerThread the tracer drops new events and counts the drops
// instead of growing without bound. Recording is disabled-by-default-cheap:
// one relaxed atomic load per span site while tracing is off.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.h"

namespace pipeleon::telemetry {

/// One completed span. Timestamps are nanoseconds since the tracer's epoch
/// (process start), durations in nanoseconds.
struct TraceEvent {
    const char* name = "";  // static-storage string literals only
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint32_t tid = 0;
};

class Tracer {
public:
    static constexpr std::size_t kMaxEventsPerThread = 1 << 16;

    /// The process-wide tracer TELEMETRY_SPAN records into.
    static Tracer& global();

    /// Runtime switch (benches turn tracing off so the measured loops carry
    /// no span cost; see bench::BenchEnv). Off by default cost: one relaxed
    /// load per span site.
    void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /// Nanoseconds since the tracer's epoch.
    std::uint64_t now_ns() const;

    /// Records one completed span into the calling thread's buffer.
    void record(const char* name, std::uint64_t ts_ns, std::uint64_t dur_ns);

    /// Copies out every buffered event (all threads), sorted by start time.
    std::vector<TraceEvent> events() const;

    /// Chrome trace-event JSON: {"traceEvents": [{"name", "ph":"X", "ts"
    /// (µs), "dur" (µs), "pid", "tid"}, ...]}.
    util::Json to_chrome_json() const;
    void write_chrome_json(const std::string& path) const;

    /// Discards all buffered events (buffers stay registered).
    void clear();

    /// Events rejected because a thread's buffer was full.
    std::uint64_t dropped() const {
        return dropped_.load(std::memory_order_relaxed);
    }

private:
    struct ThreadBuffer {
        std::mutex mu;
        std::vector<TraceEvent> events;
        std::uint32_t tid = 0;
    };

    ThreadBuffer& buffer_for_this_thread();

    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> dropped_{0};
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();

    mutable std::mutex registry_mu_;  // guards buffers_ (list membership)
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span: samples the clock at construction and records the completed
/// event at destruction. When the tracer is disabled at construction the
/// span is inert (no clock call at destruction either).
class ScopedSpan {
public:
    explicit ScopedSpan(const char* name) {
        Tracer& t = Tracer::global();
        if (t.enabled()) {
            name_ = name;
            start_ns_ = t.now_ns();
            active_ = true;
        }
    }
    ~ScopedSpan() {
        if (active_) {
            Tracer& t = Tracer::global();
            t.record(name_, start_ns_, t.now_ns() - start_ns_);
        }
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    const char* name_ = "";
    std::uint64_t start_ns_ = 0;
    bool active_ = false;
};

}  // namespace pipeleon::telemetry

#define PIPELEON_SPAN_CONCAT2(a, b) a##b
#define PIPELEON_SPAN_CONCAT(a, b) PIPELEON_SPAN_CONCAT2(a, b)

/// Scopes a trace span over the rest of the enclosing block. `name` must be
/// a string literal (stored by pointer).
#define TELEMETRY_SPAN(name)                               \
    ::pipeleon::telemetry::ScopedSpan PIPELEON_SPAN_CONCAT( \
        pipeleon_span_, __LINE__) { name }
