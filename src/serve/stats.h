#ifndef RLPLANNER_SERVE_STATS_H_
#define RLPLANNER_SERVE_STATS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "obs/registry.h"

namespace rlplanner::serve {

/// A point-in-time copy of the serving counters (all loads are relaxed; the
/// snapshot is internally consistent only at quiescence, which is how the
/// bench and tests read it).
/// Snapshot-load latency for one load mode (seconds; derived from the
/// microsecond histogram).
struct SnapshotLoadModeStats {
  std::uint64_t count = 0;
  double mean_seconds = 0.0;
  double max_seconds = 0.0;
};

struct ServeStatsSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t expired_deadline = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t latency_count = 0;
  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;
  std::uint64_t queue_depth = 0;
  /// Completed responses attributed to the exact policy version that served
  /// them (survives hot swaps; keyed by ServablePolicy::version).
  std::map<std::uint64_t, std::uint64_t> responses_by_version;
  /// Snapshot-load latency by mode ("snapshot_load_seconds" in the JSON).
  SnapshotLoadModeStats snapshot_load_deserialize;
  SnapshotLoadModeStats snapshot_load_mmap;

  /// Renders the snapshot as a JSON object.
  std::string ToJson() const;
};

/// Request counters plus the end-to-end latency histogram of a PlanService,
/// backed by metrics on an obs::Registry — the same registry a co-located
/// trainer records into, so one snapshot/export covers both. Every recorder
/// is safe to call from concurrent request threads.
///
/// Registered metrics (latency in microseconds, bucketed by the shared
/// obs::Histogram — the single source of truth for bucket boundaries):
///   serve_requests_submitted_total / _accepted_total /
///   _rejected_queue_full_total / _expired_deadline_total /
///   _completed_total / _failed_total        counters
///   serve_request_latency_us                histogram (enqueue→completion)
///   serve_snapshot_load_us{mode="deserialize"|"mmap"}
///                                           histogram (snapshot install
///                                           latency; seconds in the JSON
///                                           snapshot as snapshot_load_seconds)
///   serve_queue_depth                       gauge
///   serve_responses_total{version="N"}      counter per served version
class ServeStats {
 public:
  /// Records into `registry` when given; otherwise owns a private enabled
  /// registry so a standalone service still has working stats.
  explicit ServeStats(obs::Registry* registry = nullptr);

  ServeStats(const ServeStats&) = delete;
  ServeStats& operator=(const ServeStats&) = delete;

  void RecordSubmitted() { submitted_->Increment(); }
  void RecordAccepted() { accepted_->Increment(); }
  void RecordRejectedQueueFull() { rejected_queue_full_->Increment(); }
  void RecordExpiredDeadline() { expired_deadline_->Increment(); }
  void RecordFailed() { failed_->Increment(); }
  /// `latency_ms` is enqueue-to-completion (queue wait + execution). The
  /// latency bucket also remembers (trace_id, version) as its exemplar when
  /// exemplars are enabled (see EnableLatencyExemplars) and trace_id is
  /// non-zero.
  void RecordCompleted(double latency_ms, std::uint64_t trace_id = 0,
                       std::uint64_t version = 0);

  /// Turns on exemplar slots for serve_request_latency_us. Setup-time only
  /// (call before the service starts its workers).
  void EnableLatencyExemplars() { latency_us_->EnableExemplars(); }

  /// Attributes one completed response to the policy version that served it.
  void RecordResponseVersion(std::uint64_t version);

  /// Records one snapshot install into the mode's latency histogram.
  /// `mmap` selects the zero-copy path's series; the unit is seconds
  /// (stored as microseconds, per the registry-wide latency convention).
  void RecordSnapshotLoad(bool mmap, double seconds);

  /// Publishes the instantaneous request-queue depth.
  void SetQueueDepth(std::size_t depth);

  ServeStatsSnapshot Collect() const;

  /// Collect().ToJson().
  std::string ToJson() const { return Collect().ToJson(); }

  /// The registry this instance records into (never null).
  obs::Registry* registry() const { return registry_; }

 private:
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_;
  obs::Counter* submitted_;
  obs::Counter* accepted_;
  obs::Counter* rejected_queue_full_;
  obs::Counter* expired_deadline_;
  obs::Counter* completed_;
  obs::Counter* failed_;
  obs::Histogram* latency_us_;
  obs::Histogram* snapshot_load_deserialize_us_;
  obs::Histogram* snapshot_load_mmap_us_;
  obs::Gauge* queue_depth_;
  // Per-version counters are created lazily on first attribution; the cache
  // avoids a registry lookup (and its lock) on the completion path.
  mutable std::mutex versions_mutex_;
  std::unordered_map<std::uint64_t, obs::Counter*> version_counters_;
};

}  // namespace rlplanner::serve

#endif  // RLPLANNER_SERVE_STATS_H_
