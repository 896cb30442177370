// hostbench/src/stats.h — order statistics and process resource readings.
#pragma once

#include <algorithm>
#include <ctime>
#include <malloc.h>
#include <utility>
#include <vector>

namespace hostbench {

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// User + system CPU seconds of the whole process (every thread).
inline double cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Heap bytes in use, all malloc arenas, in MB (1e6 bytes). Unlike the
/// resident set, this repeats exactly for a given allocation sequence.
inline double heap_mb() {
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd) / 1e6;
}

}  // namespace hostbench
