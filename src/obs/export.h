#ifndef RLPLANNER_OBS_EXPORT_H_
#define RLPLANNER_OBS_EXPORT_H_

#include <string>
#include <string_view>

#include "obs/registry.h"

namespace rlplanner::obs {

/// Renders a snapshot in the Prometheus text exposition format: one
/// `# HELP` / `# TYPE` header per metric name (emitted once even when the
/// name has several label sets), label values escaped per the spec
/// (backslash, double-quote, newline), histograms as cumulative
/// `_bucket{le="..."}` series plus `_sum` and `_count`. Output is
/// deterministic: snapshots are already sorted by (name, labels).
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

/// Renders a snapshot in the OpenMetrics text format (the exposition that
/// carries exemplars): same family ordering and escaping as
/// ToPrometheusText, counter families named without their `_total` suffix,
/// each histogram `_bucket` line followed by
/// `# {trace_id="...",policy_version="..."} <value>` when that bucket
/// captured an exemplar, terminated by `# EOF`. Serve it with
/// `Content-Type: application/openmetrics-text; version=1.0.0`.
std::string ToOpenMetricsText(const MetricsSnapshot& snapshot);

/// Renders a snapshot as a JSON array of metric objects (stable key order,
/// strings escaped). Counters and gauges carry `value`; histograms carry
/// `count`/`sum`/`max`/`mean`/`p50`/`p95`/`p99` and their non-empty
/// cumulative `buckets`.
std::string MetricsJsonArray(const MetricsSnapshot& snapshot);

/// MetricsJsonArray wrapped as `{"metrics": [...]}` — the shape the CLI
/// writes for `--metrics-out` and the bench JSON consumes.
std::string ToJson(const MetricsSnapshot& snapshot);

/// Formats a double the way both exporters do: integral values in int64
/// range render without a decimal point, others with the shortest
/// round-trippable precision.
std::string FormatMetricValue(double value);

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, and control characters).
std::string JsonEscape(std::string_view text);

}  // namespace rlplanner::obs

#endif  // RLPLANNER_OBS_EXPORT_H_
