#include "obs/debugz.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <utility>

#include "obs/export.h"
#include "obs/profiler.h"

namespace rlplanner::obs {

namespace {

std::uint64_t SteadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double MillisBetween(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

std::string FlightRecorder::RecordJson(const Record& record) {
  const TraceEvent& first = record.events.front();
  std::uint64_t version = 0;
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  std::string spans;
  for (const TraceEvent& event : record.events) {
    const std::string_view name = event.name;
    const double duration_ms = MillisBetween(event.begin, event.end);
    if (name == "serve_queue_wait") queue_ms = duration_ms;
    if (name == "serve_plan") exec_ms = duration_ms;
    const std::string_view arg = event.Arg("version");
    std::from_chars(arg.data(), arg.data() + arg.size(), version);
    if (!spans.empty()) spans += ", ";
    spans += "{\"name\": \"" + JsonEscape(event.name) + "\", \"start_ms\": " +
             FormatMetricValue(MillisBetween(first.begin, event.begin)) +
             ", \"duration_ms\": " + FormatMetricValue(duration_ms) + "}";
  }
  std::string out = "{\"trace_id\": " + std::to_string(first.trace_id) +
                    ", \"policy_version\": " + std::to_string(version) +
                    ", \"slot\": \"" + JsonEscape(record.slot) +
                    "\", \"status\": \"" +
                    JsonEscape(std::string(record.events.back().Arg("status"))) +
                    "\"";
  out += ", \"queue_ms\": " + FormatMetricValue(queue_ms);
  out += ", \"exec_ms\": " + FormatMetricValue(exec_ms);
  out += ", \"total_ms\": " + FormatMetricValue(record.total_ms);
  out += ", \"spans\": [" + spans + "]}";
  return out;
}

FlightRecorder::FlightRecorder(const FlightRecorderConfig& config)
    : config_(config) {}

void FlightRecorder::BeginActive(std::uint64_t trace_id,
                                 const std::string& slot,
                                 std::uint64_t start_ns) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  active_[trace_id] = Active{slot, start_ns};
}

void FlightRecorder::Complete(std::string_view slot,
                              std::span<const TraceEvent> events) {
  if (!enabled() || events.empty()) return;
  const double total_ms =
      MillisBetween(events.front().begin, events.back().end);
  std::lock_guard<std::mutex> lock(mutex_);
  active_.erase(events.front().trace_id);
  ++observed_;
  if (total_ms < config_.slo_ms) return;
  ++violations_;
  Record record{std::string(slot), {events.begin(), events.end()}, total_ms};
  recent_.push_front(record);
  while (recent_.size() > kKeepRecent) recent_.pop_back();
  // slowest_ stays sorted descending; evict the fastest retained record
  // when full. trace_id breaks total_ms ties so insertion is deterministic.
  const auto position = std::upper_bound(
      slowest_.begin(), slowest_.end(), record,
      [](const Record& a, const Record& b) {
        if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
        return a.events.front().trace_id < b.events.front().trace_id;
      });
  if (position == slowest_.end() &&
      slowest_.size() >= kKeepSlowest) {
    return;
  }
  slowest_.insert(position, std::move(record));
  if (slowest_.size() > kKeepSlowest) slowest_.pop_back();
}

std::uint64_t FlightRecorder::requests_observed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return observed_;
}

std::uint64_t FlightRecorder::slo_violations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return violations_;
}

std::string FlightRecorder::ToJson() const {
  const std::uint64_t now_ns = SteadyNowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"enabled\": ";
  out += enabled() ? "true" : "false";
  out += ", \"slo_ms\": " + FormatMetricValue(config_.slo_ms);
  out += ", \"requests_observed\": " + std::to_string(observed_);
  out += ", \"slo_violations\": " + std::to_string(violations_);
  out += ", \"active\": [";
  bool first = true;
  for (const auto& [trace_id, active] : active_) {
    if (!first) out += ", ";
    first = false;
    const double age_ms =
        now_ns > active.start_ns
            ? static_cast<double>(now_ns - active.start_ns) / 1e6
            : 0.0;
    out += "{\"trace_id\": " + std::to_string(trace_id) + ", \"slot\": \"" +
           JsonEscape(active.slot) +
           "\", \"age_ms\": " + FormatMetricValue(age_ms) + "}";
  }
  out += "], \"slowest\": [";
  first = true;
  for (const Record& record : slowest_) {
    if (!first) out += ", ";
    first = false;
    out += RecordJson(record);
  }
  out += "], \"recent\": [";
  first = true;
  for (const Record& record : recent_) {
    if (!first) out += ", ";
    first = false;
    out += RecordJson(record);
  }
  out += "]}";
  return out;
}

std::string FlightRecorder::SummaryJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"enabled\": ";
  out += enabled() ? "true" : "false";
  out += ", \"slo_ms\": " + FormatMetricValue(config_.slo_ms);
  out += ", \"requests_observed\": " + std::to_string(observed_);
  out += ", \"slo_violations\": " + std::to_string(violations_);
  out += ", \"active\": " + std::to_string(active_.size());
  out += ", \"retained_slowest\": " + std::to_string(slowest_.size());
  out += ", \"retained_recent\": " + std::to_string(recent_.size());
  out += "}";
  return out;
}

std::string StatuszJson(const Profiler* profiler,
                        const FlightRecorder* recorder,
                        const std::vector<StatuszSection>& sections) {
  const double now_unix =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  const double uptime = std::max(now_unix - ProcessStartTimeSeconds(), 0.0);
  std::string out = "{\"build\": {\"version\": \"";
  out += kBuildVersion;
  out += "\", \"build_type\": \"";
  out += BuildType();
  out += "\"}, \"uptime_seconds\": " + FormatMetricValue(uptime);
  out += ", \"profiler\": ";
  out += profiler != nullptr ? profiler->StatusJson() : "null";
  out += ", \"flight_recorder\": ";
  out += recorder != nullptr ? recorder->SummaryJson() : "null";
  for (const StatuszSection& section : sections) {
    out += ", \"" + JsonEscape(section.name) + "\": " + section.json;
  }
  out += "}";
  return out;
}

std::string TracezJson(const FlightRecorder* recorder,
                       const MetricsSnapshot& metrics) {
  std::string out = "{\"flight_recorder\": ";
  out += recorder != nullptr
             ? recorder->ToJson()
             : std::string(
                   "{\"enabled\": false, \"slo_ms\": 0, "
                   "\"requests_observed\": 0, \"slo_violations\": 0, "
                   "\"active\": [], \"slowest\": [], \"recent\": []}");
  out += ", \"exemplars\": [";
  bool first = true;
  for (const MetricSnapshot& m : metrics.metrics) {
    for (const ExemplarSnapshot& exemplar : m.exemplars) {
      if (!first) out += ", ";
      first = false;
      out += "{\"metric\": \"" + JsonEscape(m.name) +
             "\", \"le\": " + std::to_string(exemplar.upper_bound) +
             ", \"value\": " + std::to_string(exemplar.value) +
             ", \"trace_id\": " + std::to_string(exemplar.trace_id) +
             ", \"policy_version\": " + std::to_string(exemplar.version) +
             "}";
    }
  }
  out += "]}";
  return out;
}

}  // namespace rlplanner::obs
