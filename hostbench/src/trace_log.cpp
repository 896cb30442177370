#include "trace_log.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "telemetry/trace.h"

namespace hostbench {

std::uint64_t SpanLog::now_ns() {
    return pipeleon::telemetry::Tracer::global().now_ns();
}

std::vector<Span> SpanLog::merged() const {
    std::vector<Span> all = spans_;
    std::uint32_t driver_tid = 0;
    for (const pipeleon::telemetry::TraceEvent& e :
         pipeleon::telemetry::Tracer::global().events()) {
        all.push_back(Span{e.name, e.ts_ns, e.dur_ns, e.tid, 0});
        driver_tid = e.tid;
    }
    // Outer spans first when two start together, so a child never precedes
    // its parent.
    std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
        return a.ts_ns != b.ts_ns ? a.ts_ns < b.ts_ns : a.dur_ns > b.dur_ns;
    });
    std::vector<std::size_t> open;  // indices of enclosing spans
    std::vector<std::uint64_t> child_ns(all.size(), 0);
    for (std::size_t i = 0; i < all.size(); ++i) {
        Span& s = all[i];
        if (s.tid == 0) s.tid = driver_tid;
        while (!open.empty()) {
            const Span& top = all[open.back()];
            if (s.ts_ns + s.dur_ns <= top.ts_ns + top.dur_ns) break;
            open.pop_back();
        }
        if (!open.empty()) child_ns[open.back()] += s.dur_ns;
        open.push_back(i);
    }
    for (std::size_t i = 0; i < all.size(); ++i) {
        all[i].self_ns =
            all[i].dur_ns > child_ns[i] ? all[i].dur_ns - child_ns[i] : 0;
    }
    return all;
}

std::vector<double> durations(const std::vector<Span>& spans, const char* name,
                              bool self) {
    std::vector<double> out;
    for (const Span& s : spans) {
        if (std::strcmp(s.name, name) == 0) {
            out.push_back(static_cast<double>(self ? s.self_ns : s.dur_ns));
        }
    }
    return out;
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& other_data) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                     "\"pid\":1,\"tid\":%u}\n",
                     i == 0 ? "" : ",", s.name,
                     static_cast<double>(s.ts_ns) / 1e3,
                     static_cast<double>(s.dur_ns) / 1e3, s.tid);
    }
    std::fprintf(f, "],\"otherData\":%s}\n", other_data.c_str());
    return std::fclose(f) == 0;
}

}  // namespace hostbench
