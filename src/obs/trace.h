#ifndef RLPLANNER_OBS_TRACE_H_
#define RLPLANNER_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace rlplanner::obs {

class Registry;
class Counter;

/// Maximum key/value annotations per trace event. Extra args are silently
/// ignored so the hot path never allocates or branches unpredictably.
inline constexpr int kMaxTraceArgs = 4;
/// Fixed capacity of one arg value, including the terminating NUL. Longer
/// values are truncated — args are labels ("version", "status"), not
/// payloads.
inline constexpr std::size_t kTraceArgValueCap = 24;

/// One key/value annotation on a trace event. The key must be a string
/// literal (stored by pointer); the value is copied into fixed storage so
/// events stay POD-sized and ring-buffer friendly.
struct TraceArg {
  const char* key = nullptr;  // null marks an unused slot
  char value[kTraceArgValueCap] = {};
};

/// One complete ("ph":"X") trace event: a named steady-clock interval with
/// up to kMaxTraceArgs annotations. It is the one record of a timed stage:
/// the collector's rings store it as is, and the flight recorder retains
/// the same events for /debug/tracez.
struct TraceEvent {
  const char* name = nullptr;  // string literal
  /// The request the stage belongs to, exported as the event's first arg
  /// ("trace_id"); 0 for events outside any request.
  std::uint64_t trace_id = 0;
  std::chrono::steady_clock::time_point begin{};
  std::chrono::steady_clock::time_point end{};
  std::array<TraceArg, kMaxTraceArgs> args{};

  /// Annotates the event in the first unused arg slot: the key must be a
  /// string literal, the value is copied (truncated to
  /// kTraceArgValueCap - 1 chars, integers formatted without allocating).
  /// Args beyond kMaxTraceArgs are dropped.
  TraceEvent& AddArg(const char* key, std::string_view value);
  TraceEvent& AddArg(const char* key, std::uint64_t value);

  /// The value of the arg named `key`, or "" when the event has none.
  std::string_view Arg(std::string_view key) const;
};

struct TraceCollectorConfig {
  /// Hard cap on event storage across all threads. Each thread carves its
  /// buffer out of this budget at first emit; once the budget is spent,
  /// later threads drop every event (counted exactly).
  std::size_t memory_budget_bytes = std::size_t{8} << 20;
  /// Ring capacity (in events) each thread requests from the budget.
  std::size_t events_per_thread = 8192;
  /// Optional metrics registry: when set, the collector registers the
  /// counter `trace_events_dropped_total` and increments it on every
  /// dropped event (exact, sharded cells).
  Registry* metrics = nullptr;
};

/// An event-level tracing backend: lock-free per-thread ring buffers of
/// complete trace events under a fixed memory budget, exported as Chrome
/// trace-event JSON (loadable in chrome://tracing and Perfetto).
///
/// Concurrency contract: each thread writes only its own buffer (single
/// writer, no CAS, no locks on the emit path after the first event); the
/// exporter reads sizes with acquire ordering against the emitters' release
/// publishes, so ToChromeTrace() may run concurrently with emitters and
/// sees only fully written events. Buffers drop (never overwrite) on
/// overflow, and every drop is counted: at all times
/// `emitted_total() + dropped_total()` equals the number of Emit calls.
///
/// The collector must outlive every thread that emits into it.
class TraceCollector {
 public:
  explicit TraceCollector(TraceCollectorConfig config = {});

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  ~TraceCollector();

  /// Stores `event` on the calling thread's timeline (its name and arg
  /// keys must be string literals). The export renders its endpoints
  /// relative to epoch().
  void Emit(const TraceEvent& event);

  /// Names the calling thread's timeline in the exported metadata (default
  /// "thread-<tid>"). Registers the thread if it has not emitted yet.
  void SetCurrentThreadName(std::string name);

  /// Events currently stored across all threads.
  std::uint64_t emitted_total() const;
  /// Events dropped on overflow (budget exhausted or ring full) — exact.
  std::uint64_t dropped_total() const;

  /// The steady-clock zero point of every exported timestamp (collector
  /// construction time).
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  /// Renders the Chrome trace-event JSON object: process/thread metadata
  /// records ("ph":"M") followed by every stored event ("ph":"X", `ts` and
  /// `dur` in microseconds), deterministically ordered by
  /// (tid, begin, -end, name). Safe to call while emitters are running —
  /// it exports the events published so far.
  std::string ToChromeTrace() const;

 private:
  /// One thread's event storage. `size` is published with release by the
  /// owning thread and read with acquire by the exporter; `events` never
  /// reallocates after construction, so readers may index [0, size).
  struct ThreadBuffer {
    ThreadBuffer(std::uint32_t tid_in, std::size_t capacity)
        : tid(tid_in), events(capacity) {}
    const std::uint32_t tid;
    std::vector<TraceEvent> events;
    std::atomic<std::uint32_t> size{0};
    std::atomic<std::uint64_t> dropped{0};
    std::string name;  // guarded by the collector mutex
  };

  /// The calling thread's buffer, registering it (and carving its ring out
  /// of the memory budget) on first use. Never null — a budget-exhausted
  /// thread gets a zero-capacity buffer that counts drops.
  ThreadBuffer* CurrentBuffer();

  TraceCollectorConfig config_;
  const std::uint64_t id_;  // process-unique, keys the thread-local cache
  const std::chrono::steady_clock::time_point epoch_;
  Counter* dropped_counter_ = nullptr;  // null unless config_.metrics given

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::unordered_map<std::thread::id, ThreadBuffer*> by_thread_;
  std::size_t budget_events_left_ = 0;
};

}  // namespace rlplanner::obs

#endif  // RLPLANNER_OBS_TRACE_H_
