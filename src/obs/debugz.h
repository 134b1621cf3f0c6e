#ifndef RLPLANNER_OBS_DEBUGZ_H_
#define RLPLANNER_OBS_DEBUGZ_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.h"
#include "obs/trace.h"

namespace rlplanner::obs {

class Profiler;

struct FlightRecorderConfig {
  /// A request slower than this end to end is retained. <= 0 disables the
  /// recorder: every hook is one predictable branch and the serving path is
  /// bit-for-bit what it is without a recorder.
  double slo_ms = 0.0;
};

/// Flight recorder for tail latency: a retention policy over the serving
/// path's trace events. The serving workers hand it each request's stage
/// events — the same events the trace collector gets — and requests that
/// blow the SLO keep them in two bounded reservoirs, served live at
/// GET /debug/tracez. An active-requests table (BeginActive/Complete, keyed
/// by trace id) shows what is in flight right now — the request that is
/// *currently* hung appears there long before it completes. All methods
/// are thread-safe; the recorder is mutex-based but touched at most twice
/// per request, far off the ≤2% overhead budget, and not touched at all
/// when disabled.
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

  /// The request on `slot` whose stage `events` these are (all carrying its
  /// trace id, in stage order) is settled: it leaves the active table, and
  /// it is retained iff its events span at least slo_ms. Its tracez record
  /// is rendered from the events: the serve_queue_wait and serve_plan
  /// stages give queue_ms and exec_ms, the version arg the policy version,
  /// and the last event's status arg the status.
  void Complete(std::string_view slot, std::span<const TraceEvent> events);

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
  /// One retained request: its slot and stage events.
  struct Record {
    std::string slot;
    std::vector<TraceEvent> events;
    double total_ms = 0.0;
  };

  /// The /debug/tracez object of one retained request.
  static std::string RecordJson(const Record& record);

  const FlightRecorderConfig config_;
  mutable std::mutex mutex_;
  std::uint64_t observed_ = 0;
  std::uint64_t violations_ = 0;
  std::map<std::uint64_t, Active> active_;  // trace_id → in-flight
  std::vector<Record> slowest_;             // sorted by total_ms desc
  std::deque<Record> recent_;               // newest at the front
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
