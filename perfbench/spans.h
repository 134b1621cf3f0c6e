// The benchmark's own in-memory span recorder. Each thread that records
// owns one SpanLog (no locking); the logs are merged and written out once
// the run ends. Deliberately independent of the program's obs:: tracing, so
// reworking that pipeline cannot change what the benchmark measures.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

struct Span {
  /// Layer-qualified name, e.g. "rl.rollout". Points at a string literal.
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the parent span in the same log, or -1 for a root.
  int parent = -1;
  /// The request (or fleet tick) the span belongs to.
  std::uint64_t request = 0;
  /// Units of work the span covers (candidates of a batched call, slots
  /// retrained in a tick); 1 for a single call.
  double count = 1.0;

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// Append-only span list of one thread.
class SpanLog {
 public:
  int Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::uint64_t request, double count = 1.0) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, request, count});
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span>& spans() { return spans_; }

  /// Appends `other`'s spans, re-basing their parent indices.
  void Append(const SpanLog& other);

  /// Self time of every span: its duration minus the part its direct
  /// children cover (children never overlap by construction).
  std::vector<double> SelfMs() const;

  /// Writes one JSON object per span: name, start/end ns, parent, request,
  /// count. Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
