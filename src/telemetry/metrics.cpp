#include "telemetry/metrics.h"

#include <algorithm>
#include <stdexcept>

#include "util/strings.h"

namespace pipeleon::telemetry {

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
    for (const auto& [n, v] : counters) {
        if (n == name) return v;
    }
    return 0;
}

double MetricsSnapshot::gauge(const std::string& name) const {
    for (const auto& [n, v] : gauges) {
        if (n == name) return v;
    }
    return 0.0;
}

const HistogramSummary* MetricsSnapshot::histogram(
    const std::string& name) const {
    for (const auto& [n, v] : histograms) {
        if (n == name) return &v;
    }
    return nullptr;
}

util::Json MetricsSnapshot::to_json() const {
    util::Json out = util::Json::object();
    util::Json cs = util::Json::object();
    for (const auto& [n, v] : counters) cs.as_object().set(n, util::Json(v));
    util::Json gs = util::Json::object();
    for (const auto& [n, v] : gauges) gs.as_object().set(n, util::Json(v));
    util::Json hs = util::Json::object();
    for (const auto& [n, h] : histograms) {
        util::Json o = util::Json::object();
        o.as_object().set("count", util::Json(h.count));
        o.as_object().set("mean", util::Json(h.mean));
        o.as_object().set("p50", util::Json(h.p50));
        o.as_object().set("p90", util::Json(h.p90));
        o.as_object().set("p99", util::Json(h.p99));
        o.as_object().set("p999", util::Json(h.p999));
        o.as_object().set("min", util::Json(h.min));
        o.as_object().set("max", util::Json(h.max));
        hs.as_object().set(n, std::move(o));
    }
    out.as_object().set("counters", std::move(cs));
    out.as_object().set("gauges", std::move(gs));
    out.as_object().set("histograms", std::move(hs));
    return out;
}

std::string MetricsSnapshot::to_text() const {
    std::string out;
    for (const auto& [n, v] : counters) {
        out += util::format("  %-32s %20llu\n", n.c_str(),
                            static_cast<unsigned long long>(v));
    }
    for (const auto& [n, v] : gauges) {
        out += util::format("  %-32s %20.3f\n", n.c_str(), v);
    }
    for (const auto& [n, h] : histograms) {
        out += util::format(
            "  %-32s n=%llu mean=%.1f p50=%.1f p90=%.1f p99=%.1f "
            "p999=%.1f max=%.0f\n",
            n.c_str(), static_cast<unsigned long long>(h.count), h.mean, h.p50,
            h.p90, h.p99, h.p999, h.max);
    }
    return out;
}

void MetricsRegistry::check_kind_locked(
    const std::string& name, const std::vector<std::string>& own) const {
    for (const std::vector<std::string>* names :
         {&counter_names_, &gauge_names_, &histogram_names_}) {
        if (names == &own) continue;
        if (std::find(names->begin(), names->end(), name) != names->end()) {
            throw std::logic_error("MetricsRegistry: metric '" + name +
                                   "' already registered under another kind");
        }
    }
}

MetricId MetricsRegistry::register_in(std::vector<std::string>& names,
                                      const std::string& name) {
    auto it = std::find(names.begin(), names.end(), name);
    if (it != names.end()) {
        return static_cast<MetricId>(it - names.begin());
    }
    check_kind_locked(name, names);
    names.push_back(name);
    return static_cast<MetricId>(names.size() - 1);
}

MetricId MetricsRegistry::counter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    MetricId id = register_in(counter_names_, name);
    counter_values_.resize(counter_names_.size(), 0);
    return id;
}

MetricId MetricsRegistry::gauge(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    MetricId id = register_in(gauge_names_, name);
    gauge_values_.resize(gauge_names_.size(), 0.0);
    return id;
}

MetricId MetricsRegistry::histogram(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    MetricId id = register_in(histogram_names_, name);
    histogram_values_.resize(histogram_names_.size());
    return id;
}

void MetricsRegistry::add(MetricId id, std::uint64_t delta) {
    std::lock_guard<std::mutex> lock(mu_);
    counter_values_[id] += delta;
}

void MetricsRegistry::set_gauge(MetricId id, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    gauge_values_[id] = value;
}

void MetricsRegistry::record(MetricId id, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    histogram_values_[id].record(value);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    MetricsSnapshot snap;
    snap.counters.reserve(counter_names_.size());
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
        snap.counters.emplace_back(counter_names_[i], counter_values_[i]);
    }
    snap.gauges.reserve(gauge_names_.size());
    for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
        snap.gauges.emplace_back(gauge_names_[i], gauge_values_[i]);
    }
    snap.histograms.reserve(histogram_names_.size());
    for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
        snap.histograms.emplace_back(histogram_names_[i],
                                     HistogramSummary::of(histogram_values_[i]));
    }
    return snap;
}

}  // namespace pipeleon::telemetry
