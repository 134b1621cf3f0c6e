#include "obs/span.h"

#include "obs/registry.h"

namespace rlplanner::obs {

namespace {
thread_local ScopedSpan* g_current_span = nullptr;
}  // namespace

ScopedSpan::ScopedSpan(Registry* registry, const char* name,
                       TraceCollector* trace)
    : registry_(registry != nullptr && registry->enabled() ? registry
                                                           : nullptr),
      trace_(trace),
      name_(name),
      parent_(g_current_span),
      depth_(parent_ != nullptr ? parent_->depth_ + 1 : 0) {
  g_current_span = this;
  if (registry_ != nullptr || trace_ != nullptr) {
    start_ = std::chrono::steady_clock::now();
  }
}

ScopedSpan::~ScopedSpan() {
  g_current_span = parent_;
  if (registry_ == nullptr && trace_ == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  if (trace_ != nullptr) {
    trace_->EmitSpan(name_, start_, end, args_.data(), num_args_);
  }
  if (registry_ == nullptr) return;
  const auto micros =
      std::chrono::duration_cast<std::chrono::microseconds>(end - start_)
          .count();
  auto histogram = registry_->GetHistogram(
      "span_duration_us", "Elapsed wall time of trace spans in microseconds.",
      {{"span", name_}, {"parent", parent_ != nullptr ? parent_->name_ : ""}});
  if (histogram.ok()) {
    histogram.value()->Record(
        micros > 0 ? static_cast<std::uint64_t>(micros) : 0);
  }
}

void ScopedSpan::AddArg(const char* key, std::string_view value) {
  if (trace_ == nullptr || num_args_ >= kMaxTraceArgs) return;
  TraceCollector::FillArg(args_[static_cast<std::size_t>(num_args_)], key,
                          value);
  ++num_args_;
}

void ScopedSpan::AddArg(const char* key, std::uint64_t value) {
  if (trace_ == nullptr || num_args_ >= kMaxTraceArgs) return;
  TraceCollector::FillArg(args_[static_cast<std::size_t>(num_args_)], key,
                          value);
  ++num_args_;
}

const ScopedSpan* ScopedSpan::Current() { return g_current_span; }

}  // namespace rlplanner::obs
