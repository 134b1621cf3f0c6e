#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "obs/export.h"
#include "obs/registry.h"

namespace rlplanner::obs {

namespace {

/// Keys the thread-local buffer cache to one collector instance; ids are
/// never reused, so a stale cache entry from a destroyed collector can
/// never be mistaken for the current one.
std::atomic<std::uint64_t> g_next_collector_id{1};

struct SlotCache {
  std::uint64_t collector_id = 0;
  void* buffer = nullptr;
};
thread_local SlotCache t_slot;

/// Whole nanoseconds from `from` to `to`, 0 when `to` is not later.
std::uint64_t NanosBetween(std::chrono::steady_clock::time_point from,
                           std::chrono::steady_clock::time_point to) {
  return to <= from ? 0
                    : static_cast<std::uint64_t>(
                          std::chrono::duration_cast<std::chrono::nanoseconds>(
                              to - from)
                              .count());
}

/// The first unused slot of `args`, keyed `key`; null when all are taken.
TraceArg* ClaimArg(std::array<TraceArg, kMaxTraceArgs>& args,
                   const char* key) {
  for (TraceArg& arg : args) {
    if (arg.key == nullptr) {
      arg.key = key;
      return &arg;
    }
  }
  return nullptr;
}

std::string FormatMicros(std::uint64_t ns) {
  // Chrome trace timestamps are microseconds; a double is exact here for
  // any trace shorter than ~104 days.
  return FormatMetricValue(static_cast<double>(ns) / 1000.0);
}

}  // namespace

TraceCollector::TraceCollector(TraceCollectorConfig config)
    : config_(config),
      id_(g_next_collector_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()),
      budget_events_left_(config.memory_budget_bytes / sizeof(TraceEvent)) {
  if (config_.metrics != nullptr) {
    auto counter = config_.metrics->GetCounter(
        "trace_events_dropped_total",
        "Trace events dropped because a ring buffer or the collector "
        "memory budget was full.");
    if (counter.ok()) dropped_counter_ = counter.value();
  }
}

TraceCollector::~TraceCollector() = default;

TraceEvent& TraceEvent::AddArg(const char* key, std::string_view value) {
  if (TraceArg* arg = ClaimArg(args, key)) {
    const std::size_t n = std::min(value.size(), kTraceArgValueCap - 1);
    std::memcpy(arg->value, value.data(), n);
    arg->value[n] = '\0';
  }
  return *this;
}

TraceEvent& TraceEvent::AddArg(const char* key, std::uint64_t value) {
  if (TraceArg* arg = ClaimArg(args, key)) {
    std::snprintf(arg->value, sizeof(arg->value), "%" PRIu64, value);
  }
  return *this;
}

std::string_view TraceEvent::Arg(std::string_view key) const {
  for (const TraceArg& arg : args) {
    if (arg.key != nullptr && key == arg.key) return arg.value;
  }
  return {};
}

TraceCollector::ThreadBuffer* TraceCollector::CurrentBuffer() {
  if (t_slot.collector_id == id_) {
    return static_cast<ThreadBuffer*>(t_slot.buffer);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const std::thread::id tid = std::this_thread::get_id();
  auto it = by_thread_.find(tid);
  ThreadBuffer* buffer;
  if (it != by_thread_.end()) {
    buffer = it->second;
  } else {
    const std::size_t capacity =
        std::min(config_.events_per_thread, budget_events_left_);
    budget_events_left_ -= capacity;
    buffers_.push_back(std::make_unique<ThreadBuffer>(
        static_cast<std::uint32_t>(buffers_.size()), capacity));
    buffer = buffers_.back().get();
    buffer->name = "thread-" + std::to_string(buffer->tid);
    by_thread_.emplace(tid, buffer);
  }
  t_slot = {id_, buffer};
  return buffer;
}

void TraceCollector::Emit(const TraceEvent& event) {
  ThreadBuffer* buffer = CurrentBuffer();
  const std::uint32_t n = buffer->size.load(std::memory_order_relaxed);
  if (static_cast<std::size_t>(n) >= buffer->events.size()) {
    buffer->dropped.fetch_add(1, std::memory_order_relaxed);
    if (dropped_counter_ != nullptr) dropped_counter_->Increment();
    return;
  }
  buffer->events[n] = event;
  buffer->size.store(n + 1, std::memory_order_release);
}

void TraceCollector::SetCurrentThreadName(std::string name) {
  ThreadBuffer* buffer = CurrentBuffer();
  std::lock_guard<std::mutex> lock(mutex_);
  buffer->name = std::move(name);
}

std::uint64_t TraceCollector::emitted_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->size.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t TraceCollector::dropped_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::string TraceCollector::ToChromeTrace() const {
  struct ExportEvent {
    std::uint32_t tid;
    const TraceEvent* event;
  };
  std::vector<ExportEvent> events;
  std::vector<std::pair<std::uint32_t, std::string>> thread_names;
  std::uint64_t emitted = 0;
  std::uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buffer : buffers_) {
      thread_names.emplace_back(buffer->tid, buffer->name);
      const std::uint32_t n = buffer->size.load(std::memory_order_acquire);
      emitted += n;
      dropped += buffer->dropped.load(std::memory_order_relaxed);
      for (std::uint32_t i = 0; i < n; ++i) {
        events.push_back({buffer->tid, &buffer->events[i]});
      }
    }
  }
  // Deterministic order: per-thread timelines ascending, parents before
  // their children (earlier begin first, longer event first on ties).
  std::sort(events.begin(), events.end(),
            [](const ExportEvent& a, const ExportEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.event->begin != b.event->begin) {
                return a.event->begin < b.event->begin;
              }
              if (a.event->end != b.event->end) {
                return a.event->end > b.event->end;
              }
              return std::strcmp(a.event->name, b.event->name) < 0;
            });
  std::sort(thread_names.begin(), thread_names.end());

  std::string out = "{\"traceEvents\": [\n";
  out +=
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"rlplanner\"}}";
  for (const auto& [tid, name] : thread_names) {
    out += ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": " +
           std::to_string(tid) + ", \"args\": {\"name\": \"" +
           JsonEscape(name) + "\"}}";
  }
  for (const ExportEvent& e : events) {
    const TraceEvent& event = *e.event;
    out += ",\n{\"name\": \"" + JsonEscape(event.name) +
           "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(e.tid) +
           ", \"ts\": " + FormatMicros(NanosBetween(epoch_, event.begin)) +
           ", \"dur\": " + FormatMicros(NanosBetween(event.begin, event.end)) +
           ", \"args\": {";
    bool first = true;
    if (event.trace_id != 0) {
      out += "\"trace_id\": \"" + std::to_string(event.trace_id) + "\"";
      first = false;
    }
    for (const TraceArg& arg : event.args) {
      if (arg.key == nullptr) continue;
      if (!first) out += ", ";
      first = false;
      out += "\"" + JsonEscape(arg.key) + "\": \"" + JsonEscape(arg.value) +
             "\"";
    }
    out += "}}";
  }
  out += "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": "
         "{\"trace_events_emitted\": " +
         std::to_string(emitted) +
         ", \"trace_events_dropped\": " + std::to_string(dropped) + "}}";
  return out;
}

}  // namespace rlplanner::obs
