#include "serve/stats.h"

#include <cmath>
#include <cstdio>

namespace rlplanner::serve {

ServeStats::ServeStats(obs::Registry* registry) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry = owned_registry_.get();
  }
  registry_ = registry;
  // Names are fixed literals, so registration cannot fail.
  submitted_ = registry_
                   ->GetCounter("serve_requests_submitted_total",
                                "Plan requests submitted for admission.")
                   .value();
  accepted_ = registry_
                  ->GetCounter("serve_requests_accepted_total",
                               "Plan requests admitted into the queue.")
                  .value();
  rejected_queue_full_ =
      registry_
          ->GetCounter("serve_requests_rejected_queue_full_total",
                       "Plan requests rejected because the queue was full.")
          .value();
  expired_deadline_ =
      registry_
          ->GetCounter("serve_requests_expired_deadline_total",
                       "Plan requests dropped past their deadline.")
          .value();
  completed_ = registry_
                   ->GetCounter("serve_requests_completed_total",
                                "Plan requests completed successfully.")
                   .value();
  failed_ = registry_
                ->GetCounter("serve_requests_failed_total",
                             "Plan requests that failed during execution.")
                .value();
  latency_us_ =
      registry_
          ->GetHistogram("serve_request_latency_us",
                         "Enqueue-to-completion latency in microseconds.")
          .value();
  snapshot_load_deserialize_us_ =
      registry_
          ->GetHistogram("serve_snapshot_load_us",
                         "Snapshot install latency in microseconds by mode.",
                         {{"mode", "deserialize"}})
          .value();
  snapshot_load_mmap_us_ =
      registry_
          ->GetHistogram("serve_snapshot_load_us",
                         "Snapshot install latency in microseconds by mode.",
                         {{"mode", "mmap"}})
          .value();
  queue_depth_ = registry_
                     ->GetGauge("serve_queue_depth",
                                "Current request-queue depth.")
                     .value();
}

void ServeStats::RecordCompleted(double latency_ms, std::uint64_t trace_id,
                                 std::uint64_t version) {
  completed_->Increment();
  const double us = latency_ms * 1000.0;
  latency_us_->Record(
      us <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(us)), trace_id,
      version);
}

void ServeStats::RecordResponseVersion(std::uint64_t version) {
  obs::Counter* counter;
  {
    std::lock_guard<std::mutex> lock(versions_mutex_);
    auto it = version_counters_.find(version);
    if (it == version_counters_.end()) {
      counter = registry_
                    ->GetCounter("serve_responses_total",
                                 "Completed responses by policy version.",
                                 {{"version", std::to_string(version)}})
                    .value();
      version_counters_.emplace(version, counter);
    } else {
      counter = it->second;
    }
  }
  counter->Increment();
}

void ServeStats::RecordSnapshotLoad(bool mmap, double seconds) {
  obs::Histogram* histogram =
      mmap ? snapshot_load_mmap_us_ : snapshot_load_deserialize_us_;
  histogram->RecordRounded(seconds * 1e6);
}

void ServeStats::SetQueueDepth(std::size_t depth) {
  queue_depth_->Set(static_cast<double>(depth));
}

ServeStatsSnapshot ServeStats::Collect() const {
  ServeStatsSnapshot snapshot;
  snapshot.submitted = submitted_->Total();
  snapshot.accepted = accepted_->Total();
  snapshot.rejected_queue_full = rejected_queue_full_->Total();
  snapshot.expired_deadline = expired_deadline_->Total();
  snapshot.completed = completed_->Total();
  snapshot.failed = failed_->Total();
  snapshot.latency_count = latency_us_->count();
  snapshot.latency_mean_ms = latency_us_->Mean() / 1000.0;
  snapshot.latency_p50_ms = latency_us_->Quantile(0.50) / 1000.0;
  snapshot.latency_p95_ms = latency_us_->Quantile(0.95) / 1000.0;
  snapshot.latency_p99_ms = latency_us_->Quantile(0.99) / 1000.0;
  snapshot.latency_max_ms =
      static_cast<double>(latency_us_->Max()) / 1000.0;
  snapshot.queue_depth =
      static_cast<std::uint64_t>(queue_depth_->Value());
  const auto load_stats = [](const obs::Histogram* h) {
    SnapshotLoadModeStats stats;
    stats.count = h->count();
    stats.mean_seconds = h->Mean() / 1e6;
    stats.max_seconds = static_cast<double>(h->Max()) / 1e6;
    return stats;
  };
  snapshot.snapshot_load_deserialize = load_stats(snapshot_load_deserialize_us_);
  snapshot.snapshot_load_mmap = load_stats(snapshot_load_mmap_us_);
  {
    std::lock_guard<std::mutex> lock(versions_mutex_);
    for (const auto& [version, counter] : version_counters_) {
      snapshot.responses_by_version[version] = counter->Total();
    }
  }
  return snapshot;
}

std::string ServeStatsSnapshot::ToJson() const {
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"submitted\": %llu, \"accepted\": %llu, "
      "\"rejected_queue_full\": %llu, \"expired_deadline\": %llu, "
      "\"completed\": %llu, \"failed\": %llu, "
      "\"latency_ms\": {\"count\": %llu, \"mean\": %.3f, \"p50\": %.3f, "
      "\"p95\": %.3f, \"p99\": %.3f, \"max\": %.3f}, "
      "\"queue_depth\": %llu",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(accepted),
      static_cast<unsigned long long>(rejected_queue_full),
      static_cast<unsigned long long>(expired_deadline),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(latency_count), latency_mean_ms,
      latency_p50_ms, latency_p95_ms, latency_p99_ms, latency_max_ms,
      static_cast<unsigned long long>(queue_depth));
  std::string out = buffer;
  const auto append_load = [&out](const char* mode,
                                  const SnapshotLoadModeStats& stats) {
    char entry[160];
    std::snprintf(entry, sizeof(entry),
                  "\"%s\": {\"count\": %llu, \"mean\": %.6f, \"max\": %.6f}",
                  mode, static_cast<unsigned long long>(stats.count),
                  stats.mean_seconds, stats.max_seconds);
    out += entry;
  };
  out += ", \"snapshot_load_seconds\": {";
  append_load("deserialize", snapshot_load_deserialize);
  out += ", ";
  append_load("mmap", snapshot_load_mmap);
  out += "}";
  out += ", \"responses_by_version\": {";
  bool first = true;
  for (const auto& [version, count] : responses_by_version) {
    if (!first) out += ", ";
    first = false;
    char entry[64];
    std::snprintf(entry, sizeof(entry), "\"%llu\": %llu",
                  static_cast<unsigned long long>(version),
                  static_cast<unsigned long long>(count));
    out += entry;
  }
  out += "}}";
  return out;
}

}  // namespace rlplanner::serve
