#ifndef RLPLANNER_OBS_SPAN_H_
#define RLPLANNER_OBS_SPAN_H_

#include <cstdint>
#include <string_view>

#include "obs/trace.h"

namespace rlplanner::obs {

/// A RAII trace span: on destruction it emits one complete event covering
/// its lifetime (with any args added via `AddArg`) onto the calling
/// thread's timeline of the attached collector.
///
/// Spans are for coarse-grained phases (a training round, a fleet tick),
/// not per-step hot loops — each costs two clock reads and one event copy.
/// With a null collector the span reads no clock: exactly one predictable
/// branch each in the constructor and destructor.
///
/// `name` must be a string literal (or otherwise outlive the span); it is
/// stored by pointer. Arg keys likewise.
class ScopedSpan {
 public:
  ScopedSpan(TraceCollector* trace, const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Whether destruction will emit a trace event.
  bool traced() const { return trace_ != nullptr; }

  /// Annotates the emitted event. No-ops (one branch, no copies) when no
  /// collector is attached; extra args beyond kMaxTraceArgs are dropped.
  void AddArg(const char* key, std::string_view value);
  void AddArg(const char* key, std::uint64_t value);

 private:
  TraceCollector* const trace_;
  TraceEvent event_;
};

}  // namespace rlplanner::obs

#endif  // RLPLANNER_OBS_SPAN_H_
