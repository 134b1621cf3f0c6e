#include "obs/span.h"

#include <chrono>

namespace rlplanner::obs {

ScopedSpan::ScopedSpan(TraceCollector* trace, const char* name)
    : trace_(trace), event_{.name = name} {
  if (trace_ != nullptr) event_.begin = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (trace_ == nullptr) return;
  event_.end = std::chrono::steady_clock::now();
  trace_->Emit(event_);
}

void ScopedSpan::AddArg(const char* key, std::string_view value) {
  if (trace_ != nullptr) event_.AddArg(key, value);
}

void ScopedSpan::AddArg(const char* key, std::uint64_t value) {
  if (trace_ != nullptr) event_.AddArg(key, value);
}

}  // namespace rlplanner::obs
