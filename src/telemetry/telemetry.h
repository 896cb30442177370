// telemetry/telemetry.h — the compile-time switch and the span macro for the
// host-side observability subsystem (ISSUE 4). Pipeleon is profile-*guided*
// optimization, so the harness holds itself to the same standard it demands
// of the data plane (Fig 12): measurement must be first-class and cheap. The
// subsystem has four parts:
//
//   - MetricsRegistry (metrics.h): named counters/gauges/histograms with
//     per-worker sharded lanes — plain non-atomic bumps on the hot path,
//     merged into the locked master at batch boundaries, exactly the
//     CounterShard discipline the batched data plane already uses.
//   - LatencyHistogram (histogram.h): HDR-style log-linear fixed-bin
//     histogram (p50/p90/p99/p999/max), mergeable across shards.
//   - Tracer / TELEMETRY_SPAN (trace.h): scoped spans buffered per thread,
//     exportable as chrome://tracing trace-event JSON.
//   - BenchReport / CsvSeries (bench_report.h): the machine-readable bench
//     export schema every bench/ binary emits (BENCH_<name>.json).
//
// PIPELEON_TELEMETRY is a CMake option (default ON). When OFF, kEnabled is
// false: every hot-path recording site is guarded by `if constexpr
// (telemetry::kEnabled)` and TELEMETRY_SPAN expands to nothing, so the cost
// is zero by construction (bench/micro_telemetry verifies). Telemetry only
// observes — a one-worker poll stays bit-identical with it enabled.
#pragma once

#ifndef PIPELEON_TELEMETRY
#define PIPELEON_TELEMETRY 1
#endif

namespace pipeleon::telemetry {

/// Compile-time master switch; hot paths guard recording with
/// `if constexpr (kEnabled)` so the disabled build carries no cost.
inline constexpr bool kEnabled = PIPELEON_TELEMETRY != 0;

}  // namespace pipeleon::telemetry

// The span macro lives in trace.h (it needs ScopedSpan); include it through
// this umbrella so call sites only ever include telemetry/telemetry.h.
#include "telemetry/trace.h"  // IWYU pragma: export
