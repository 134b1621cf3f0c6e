#ifndef RLPLANNER_OBS_DEBUGZ_H_
#define RLPLANNER_OBS_DEBUGZ_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace rlplanner::obs {

class Profiler;

struct FlightRecorderConfig {
  /// A request slower than this end to end is retained. <= 0 disables the
  /// recorder: every hook is one predictable branch and the serving path is
  /// bit-for-bit what it is without a recorder.
  double slo_ms = 0.0;
};

/// One stage of a recorded request, relative to its enqueue time.
struct RecordedSpan {
  std::string name;
  double start_ms = 0.0;
  double duration_ms = 0.0;
};

/// The retained span tree of one SLO-violating request.
struct RequestRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t policy_version = 0;
  std::string slot;
  std::string status;  // "ok", "error", "deadline_exceeded"
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  double total_ms = 0.0;
  std::vector<RecordedSpan> spans;
};

/// Flight recorder for tail latency: the serving workers report every
/// request's lifecycle, and requests that blow the SLO keep their full span
/// breakdown in two bounded reservoirs, served live at GET /debug/tracez.
/// An active-requests table (Begin/End) shows what is in flight right now —
/// the request that is *currently* hung appears there long before it
/// completes. All methods are thread-safe; the recorder is mutex-based but
/// touched at most twice per request, far off the ≤2% overhead budget, and
/// not touched at all when disabled.
class FlightRecorder {
 public:
  /// Reservoir sizes: the kKeepSlowest slowest SLO violators ever seen,
  /// plus the kKeepRecent most recent ones (a spike that has aged out of
  /// "slowest" is still visible).
  static constexpr std::size_t kKeepSlowest = 16;
  static constexpr std::size_t kKeepRecent = 32;

  explicit FlightRecorder(const FlightRecorderConfig& config);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return config_.slo_ms > 0.0; }
  double slo_ms() const { return config_.slo_ms; }

  /// A worker started executing `trace_id` (dequeue time). `start_ns` is a
  /// steady-clock reading so the export can compute live ages.
  void BeginActive(std::uint64_t trace_id, const std::string& slot,
                   std::uint64_t start_ns);
  /// The request left the worker (any outcome).
  void EndActive(std::uint64_t trace_id);

  /// The request finished end to end; retained iff total_ms >= slo_ms.
  void Complete(RequestRecord record);

  std::uint64_t requests_observed() const;
  std::uint64_t slo_violations() const;

  /// The /debug/tracez document body (without the exemplar section, which
  /// TracezJson merges in): config, totals, active table, both reservoirs.
  std::string ToJson() const;

  /// The one-line summary /debug/statusz embeds.
  std::string SummaryJson() const;

 private:
  struct Active {
    std::string slot;
    std::uint64_t start_ns = 0;
  };

  const FlightRecorderConfig config_;
  mutable std::mutex mutex_;
  std::uint64_t observed_ = 0;
  std::uint64_t violations_ = 0;
  std::map<std::uint64_t, Active> active_;          // trace_id → in-flight
  std::vector<RequestRecord> slowest_;              // sorted by total_ms desc
  std::deque<RequestRecord> recent_;                // newest at the front
};

/// A pre-rendered JSON value a subsystem contributes to /debug/statusz
/// (`json` must be a complete JSON value — object, array, or scalar).
struct StatuszSection {
  std::string name;
  std::string json;
};

/// Assembles the /debug/statusz document: build info + uptime, the profiler
/// and flight-recorder summaries (null when absent), then one key per
/// caller-provided section — which is how the serve/net/fleet layers
/// contribute without obs depending on them.
std::string StatuszJson(const Profiler* profiler,
                        const FlightRecorder* recorder,
                        const std::vector<StatuszSection>& sections);

/// Assembles the /debug/tracez document: the flight recorder's reservoirs
/// plus every histogram exemplar in the metrics snapshot, so a p99 bucket's
/// trace_id can be looked up in the retained records on the same page.
std::string TracezJson(const FlightRecorder* recorder,
                       const MetricsSnapshot& metrics);

}  // namespace rlplanner::obs

#endif  // RLPLANNER_OBS_DEBUGZ_H_
