// telemetry/metrics.h — the host-side metrics registry: named counters,
// gauges, and latency histograms with one write path. Every write and every
// snapshot takes the registry mutex, so the registry is for
// control-plane-rate events (poll boundaries, ticks, deploys), and any
// thread may register a metric or take a snapshot at any time.
//
// Per-packet, per-worker counting does not come here: it lives in
// sim::CounterShard, one private shard per worker, and the emulator folds
// the shards' totals into this registry once per poll boundary.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/histogram.h"
#include "util/json.h"

namespace pipeleon::telemetry {

/// Dense per-kind index: counter ids, gauge ids, and histogram ids are
/// separate spaces (the accessor that registered a name tells you which).
using MetricId = std::uint32_t;

/// A point-in-time copy of the metrics, insertion-ordered.
struct MetricsSnapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, HistogramSummary>> histograms;

    /// Value of the named counter, or 0 when absent.
    std::uint64_t counter(const std::string& name) const;
    /// Value of the named gauge, or 0 when absent.
    double gauge(const std::string& name) const;
    /// Summary of the named histogram, or nullptr when absent.
    const HistogramSummary* histogram(const std::string& name) const;

    util::Json to_json() const;
    /// Multi-line dashboard rendering (pipeleon_stats).
    std::string to_text() const;
};

class MetricsRegistry {
public:
    /// Register-or-get by name. Ids are dense per kind and stable for the
    /// registry's lifetime. A name belongs to exactly one kind;
    /// re-registering it under another kind throws.
    MetricId counter(const std::string& name);
    MetricId gauge(const std::string& name);
    MetricId histogram(const std::string& name);

    void add(MetricId counter_id, std::uint64_t delta = 1);
    void set_gauge(MetricId gauge_id, double value);
    void record(MetricId histogram_id, double value);

    /// A consistent copy of every metric.
    MetricsSnapshot snapshot() const;

private:
    MetricId register_in(std::vector<std::string>& names,
                         const std::string& name);
    void check_kind_locked(const std::string& name,
                           const std::vector<std::string>& own) const;

    mutable std::mutex mu_;
    std::vector<std::string> counter_names_;
    std::vector<std::string> gauge_names_;
    std::vector<std::string> histogram_names_;
    std::vector<std::uint64_t> counter_values_;  // id-indexed
    std::vector<double> gauge_values_;
    std::vector<LatencyHistogram> histogram_values_;
};

}  // namespace pipeleon::telemetry
