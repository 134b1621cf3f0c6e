// The production serving stack as `rlplanner_cli serve --listen` assembles
// it (shared metrics registry on; trace, flight recorder and profiler off),
// and the closed-loop keep-alive load generator that drives it.
#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mdp/reward.h"
#include "model/constraints.h"
#include "net/plan_handler.h"
#include "net/server.h"
#include "obs/debugz.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "serve/plan_service.h"
#include "serve/policy_registry.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

/// PlanService -> PlanHandler -> HttpServer on an ephemeral loopback port,
/// with one server shard. Teardown follows the CLI's drain order.
class ServingStack {
 public:
  /// `metrics` is the process's shared registry (not owned; must outlive
  /// the stack).
  ServingStack(const rlplanner::model::TaskInstance& instance,
               const rlplanner::mdp::RewardWeights& weights,
               const rlplanner::serve::PolicyRegistry& registry,
               rlplanner::obs::Registry* metrics, std::size_t workers);
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;
  ~ServingStack();

  std::uint16_t port() const { return server_->port(); }
  const rlplanner::serve::PlanService& service() const { return *service_; }
  /// Threads the stack spawned (server shard, plan workers, coordinator): the
  /// threads whose CPU time is charged to serving.
  const std::vector<int>& threads() const { return threads_; }

 private:
  rlplanner::obs::FlightRecorder recorder_;
  rlplanner::obs::Profiler profiler_;
  std::unique_ptr<rlplanner::serve::PlanService> service_;
  std::unique_ptr<rlplanner::net::PlanHandler> handler_;
  std::unique_ptr<rlplanner::net::HttpServer> server_;
  std::vector<int> threads_;
};

/// Unlabelled series of GET /metrics (e.g. net_bytes_read_total), by name.
/// Empty when the scrape fails.
std::map<std::string, double> ScrapeMetrics(std::uint16_t port);

/// Load-generator phases; each sample is tagged with the phase current when
/// its request was sent.
enum Phase : int {
  kWarmup = 0,
  kWindow = 1,        // measured, untraced
  kTracedWindow = 2,  // measured, recording spans
};

/// One request as the client saw it (32 bytes: a run keeps every sample).
struct WireSample {
  std::int64_t send_ns = 0;
  /// Client-observed latency; +inf for a failed request.
  double latency_ms = 0.0;
  /// Server-reported intervals (the wire carries 6 significant digits).
  float queue_ms = 0.0f;
  float exec_ms = 0.0f;
  std::uint32_t request = 0;  // index into the RequestMix
  std::uint8_t phase = kWarmup;
  bool ok = false;
};

/// Closed-loop clients, one thread and one keep-alive connection each: a
/// connection sends its next request only after the previous answer
/// arrived and passed CheckResponse.
class LoadGenerator {
 public:
  /// `tamper_every` > 0 corrupts a decoded response before it is checked
  /// (self-test of the output check) every n-th response, or the first
  /// one after that the corruption applies to, cycling through
  /// kTamperable; 0 leaves responses alone.
  /// Sample buffers (and the percentile scratch) are allocated and touched
  /// up front for `samples_per_connection`, so the benchmark's own resident
  /// memory does not grow with the program's speed.
  /// Connection c walks the stream from `first_request + c * size /
  /// connections`.
  LoadGenerator(std::uint16_t port, const RequestMix& mix,
                std::size_t connections, int tamper_every,
                std::size_t samples_per_connection,
                std::size_t first_request);
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;
  ~LoadGenerator();

  void SetPhase(Phase phase) { phase_.store(phase); }
  /// Stops sending and joins the clients. Idempotent.
  void Stop();

  /// Requests sent in `phase` that have completed (after Stop()).
  std::vector<WireSample> Samples(Phase phase) const;
  /// Samples of `phase` that completed OK (after Stop()).
  std::uint64_t Completed(Phase phase) const;
  /// Latency percentile (q in [0, 1], failures as +inf) of the requests
  /// sent in `phase`, computed in preallocated scratch (after Stop()).
  double LatencyPercentile(Phase phase, double q);

  /// Wire spans recorded during kTracedWindow: one "wire" root per request
  /// with the server-reported "serve.queue" and "serve.exec" intervals as
  /// children (placed by duration: the server reports no timestamps).
  SpanLog TakeSpans();

  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }
  std::uint64_t rejected() const { return rejected_.load(); }
  /// Responses corrupted to trip `check`, and how many of those failed
  /// exactly that check.
  std::uint64_t tampered(Check check) const {
    return tampered_[static_cast<std::size_t>(check)].load();
  }
  std::uint64_t caught(Check check) const {
    return caught_[static_cast<std::size_t>(check)].load();
  }
  /// The most requests any one connection sent: where the next generator
  /// should start so no connection repeats its own stretch of the stream.
  std::size_t MaxSentPerConnection() const;
  /// The first few failure descriptions.
  std::vector<std::string> errors() const;

 private:
  void Client(std::size_t connection);
  void RecordFailure(const std::string& error);

  std::uint16_t port_;
  const RequestMix* mix_;
  std::size_t first_request_;
  int tamper_every_;
  std::atomic<int> phase_{kWarmup};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  static constexpr std::size_t kChecks =
      static_cast<std::size_t>(Check::kScore) + 1;
  std::atomic<std::uint64_t> tampered_[kChecks] = {};
  std::atomic<std::uint64_t> caught_[kChecks] = {};
  mutable std::mutex errors_mutex_;
  std::vector<std::string> errors_;
  std::vector<std::vector<WireSample>> samples_;  // per connection
  std::vector<std::size_t> used_;                 // samples recorded
  std::vector<double> scratch_;                   // LatencyPercentile
  std::vector<SpanLog> spans_;                    // per connection
  std::vector<std::thread> threads_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
