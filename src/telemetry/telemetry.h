// telemetry/telemetry.h — the umbrella header and the span macro for the
// host-side observability subsystem. Pipeleon is profile-*guided*
// optimization, so the harness holds itself to the same standard it demands
// of the data plane (Fig 12): measurement must be first-class and cheap. The
// subsystem has four parts:
//
//   - MetricsRegistry (metrics.h): named counters/gauges/histograms behind
//     one mutex, written at control-plane rate (poll boundaries, ticks,
//     deploys). Per-packet, per-worker counting lives in sim::CounterShard,
//     which the emulator folds at each poll boundary.
//   - LatencyHistogram (histogram.h): HDR-style log-linear fixed-bin
//     histogram (p50/p90/p99/p999/max), mergeable across shards.
//   - Tracer / TELEMETRY_SPAN (trace.h): scoped spans buffered per thread,
//     exportable as chrome://tracing trace-event JSON. Off by default; the
//     tracer's run-time enabled flag is the only switch.
//   - BenchReport / CsvSeries (bench_report.h): the machine-readable bench
//     export schema every bench/ binary emits (BENCH_<name>.json).
//
// Telemetry is always compiled in. It only observes: a one-worker poll stays
// bit-identical to a process() loop.
#pragma once

namespace pipeleon::telemetry {

/// Always true: there is one build, and it records. Nothing in src/ reads
/// this; it stays because hostbench prints it in its host-facts line.
inline constexpr bool kEnabled = true;

}  // namespace pipeleon::telemetry

// The span macro lives in trace.h (it needs ScopedSpan); include it through
// this umbrella so call sites only ever include telemetry/telemetry.h.
#include "telemetry/trace.h"  // IWYU pragma: export
