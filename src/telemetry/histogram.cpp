#include "telemetry/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/strings.h"

namespace pipeleon::telemetry {

std::size_t LatencyHistogram::bucket_index(std::uint64_t v) {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    // The log range is the position of the most significant bit beyond the
    // linear prefix; the sub-bucket is the kSubBits bits below it.
    const int msb = 63 - std::countl_zero(v);
    const int range = msb - kSubBits + 1;  // >= 1
    const std::uint64_t sub = (v >> (msb - kSubBits)) - kSubBuckets;
    return static_cast<std::size_t>(range) *
               static_cast<std::size_t>(kSubBuckets) +
           static_cast<std::size_t>(sub);
}

std::uint64_t LatencyHistogram::bucket_lower(std::size_t i) {
    if (i < kSubBuckets) return i;
    const std::size_t range = i / static_cast<std::size_t>(kSubBuckets);
    const std::uint64_t sub = i % static_cast<std::size_t>(kSubBuckets);
    return (kSubBuckets + sub) << (range - 1);
}

std::uint64_t LatencyHistogram::bucket_upper(std::size_t i) {
    if (i < kSubBuckets) return i + 1;
    const std::size_t range = i / static_cast<std::size_t>(kSubBuckets);
    const std::uint64_t sub = i % static_cast<std::size_t>(kSubBuckets);
    return (kSubBuckets + sub + 1) << (range - 1);
}

void LatencyHistogram::record(double v) {
    if (v < 0.0) v = 0.0;
    record_value(static_cast<std::uint64_t>(std::llround(v)));
}

void LatencyHistogram::record_value(std::uint64_t v, std::uint64_t n) {
    if (n == 0) return;
    buckets_[bucket_index(v)] += n;
    if (count_ == 0 || v < min_) min_ = v;
    if (v > max_) max_ = v;
    count_ += n;
    sum_ += static_cast<double>(v) * static_cast<double>(n);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
    if (other.count_ == 0) return;
    for (std::size_t i = 0; i < kBucketCount; ++i) buckets_[i] += other.buckets_[i];
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
    sum_ += other.sum_;
}

void LatencyHistogram::reset() {
    // record_value and merge touch a bucket only when they raise count_, so
    // an empty histogram is already all zero: idle lanes skip the fill.
    if (count_ == 0) return;
    buckets_.fill(0);
    count_ = 0;
    sum_ = 0.0;
    min_ = 0;
    max_ = 0;
}

double LatencyHistogram::percentile(double q) const {
    if (count_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 100.0);
    const double target = q / 100.0 * static_cast<double>(count_);
    double cum = 0.0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
        if (buckets_[i] == 0) continue;
        const double next = cum + static_cast<double>(buckets_[i]);
        if (next >= target) {
            // Linear interpolation inside the bucket, clamped to the exact
            // extrema so p0/p100 read true.
            const double lo = static_cast<double>(bucket_lower(i));
            const double hi = static_cast<double>(bucket_upper(i));
            const double frac =
                buckets_[i] ? (target - cum) / static_cast<double>(buckets_[i])
                            : 0.0;
            double v = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
            return std::clamp(v, static_cast<double>(min_),
                              static_cast<double>(max_));
        }
        cum = next;
    }
    return static_cast<double>(max_);
}

std::string LatencyHistogram::summary(const std::string& unit) const {
    return util::format(
        "n=%llu mean=%.1f%s p50=%.1f p90=%.1f p99=%.1f p999=%.1f max=%llu",
        static_cast<unsigned long long>(count_), mean(), unit.c_str(), p50(),
        p90(), p99(), p999(), static_cast<unsigned long long>(max()));
}

HistogramSummary HistogramSummary::of(const LatencyHistogram& h) {
    HistogramSummary s;
    s.count = h.count();
    s.mean = h.mean();
    s.p50 = h.p50();
    s.p90 = h.p90();
    s.p99 = h.p99();
    s.p999 = h.p999();
    s.min = static_cast<double>(h.min());
    s.max = static_cast<double>(h.max());
    return s;
}

}  // namespace pipeleon::telemetry
