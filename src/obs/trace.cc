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

void TraceCollector::FillArg(TraceArg& arg, const char* key,
                             std::string_view value) {
  arg.key = key;
  const std::size_t n = std::min(value.size(), kTraceArgValueCap - 1);
  std::memcpy(arg.value, value.data(), n);
  arg.value[n] = '\0';
}

void TraceCollector::FillArg(TraceArg& arg, const char* key,
                             std::uint64_t value) {
  arg.key = key;
  std::snprintf(arg.value, sizeof(arg.value), "%" PRIu64, value);
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

void TraceCollector::Emit(const char* name, std::uint64_t begin_ns,
                          std::uint64_t end_ns, const TraceArg* args,
                          int num_args) {
  ThreadBuffer* buffer = CurrentBuffer();
  const std::uint32_t n = buffer->size.load(std::memory_order_relaxed);
  if (static_cast<std::size_t>(n) >= buffer->events.size()) {
    buffer->dropped.fetch_add(1, std::memory_order_relaxed);
    if (dropped_counter_ != nullptr) dropped_counter_->Increment();
    return;
  }
  TraceEvent& event = buffer->events[n];
  event.name = name;
  event.begin_ns = begin_ns;
  event.end_ns = end_ns < begin_ns ? begin_ns : end_ns;
  const int count = std::min(num_args, kMaxTraceArgs);
  for (int i = 0; i < count; ++i) event.args[static_cast<std::size_t>(i)] = args[i];
  for (int i = count; i < kMaxTraceArgs; ++i) {
    event.args[static_cast<std::size_t>(i)].key = nullptr;
  }
  buffer->size.store(n + 1, std::memory_order_release);
}

void TraceCollector::EmitSpan(const char* name,
                              std::chrono::steady_clock::time_point begin,
                              std::chrono::steady_clock::time_point end,
                              const TraceArg* args, int num_args) {
  Emit(name, SinceEpochNs(begin), SinceEpochNs(end), args, num_args);
}

void TraceCollector::EmitComplete(
    const char* name, std::chrono::steady_clock::time_point begin,
    std::chrono::steady_clock::time_point end,
    std::initializer_list<std::pair<const char*, std::string_view>> args) {
  std::array<TraceArg, kMaxTraceArgs> storage;
  int count = 0;
  for (const auto& [key, value] : args) {
    if (count >= kMaxTraceArgs) break;
    FillArg(storage[static_cast<std::size_t>(count)], key, value);
    ++count;
  }
  Emit(name, SinceEpochNs(begin), SinceEpochNs(end), storage.data(), count);
}

void TraceCollector::EmitAt(
    const char* name, std::uint64_t begin_ns, std::uint64_t end_ns,
    std::initializer_list<std::pair<const char*, std::string_view>> args) {
  std::array<TraceArg, kMaxTraceArgs> storage;
  int count = 0;
  for (const auto& [key, value] : args) {
    if (count >= kMaxTraceArgs) break;
    FillArg(storage[static_cast<std::size_t>(count)], key, value);
    ++count;
  }
  Emit(name, begin_ns, end_ns, storage.data(), count);
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
              if (a.event->begin_ns != b.event->begin_ns) {
                return a.event->begin_ns < b.event->begin_ns;
              }
              if (a.event->end_ns != b.event->end_ns) {
                return a.event->end_ns > b.event->end_ns;
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
    out += ",\n{\"name\": \"" + JsonEscape(e.event->name) +
           "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(e.tid) +
           ", \"ts\": " + FormatMicros(e.event->begin_ns) +
           ", \"dur\": " + FormatMicros(e.event->end_ns - e.event->begin_ns) +
           ", \"args\": {";
    bool first = true;
    for (const TraceArg& arg : e.event->args) {
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
