#ifndef RLPLANNER_SERVE_PLAN_SERVICE_H_
#define RLPLANNER_SERVE_PLAN_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/validation.h"
#include "mdp/reward.h"
#include "model/constraints.h"
#include "model/plan.h"
#include "serve/policy_registry.h"
#include "serve/stats.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace rlplanner::obs {
class FlightRecorder;
class TraceCollector;
}  // namespace rlplanner::obs

namespace rlplanner::serve {

/// One user's plan request: which policy slot to roll out, where to start,
/// and the per-request constraint overrides the paper's recommendation phase
/// supports (a user-specific `T_ideal` and "never recommend X" exclusions).
struct PlanRequest {
  std::string policy_name = "default";
  model::ItemId start_item = 0;
  /// Items the rollout must never pick (the start item is exempt).
  std::vector<model::ItemId> excluded;
  /// Per-user ideal-topic override (topic names resolved against the
  /// catalog vocabulary); nullopt serves the dataset default `T_ideal`.
  std::optional<std::vector<std::string>> ideal_topics;
  /// Per-request deadline in ms measured from admission; 0 uses the service
  /// default, negative disables the deadline for this request.
  double deadline_ms = 0.0;
  /// Caller-provided trace id threaded through the request's span chain
  /// (serve_queue_wait → serve_plan → serve_respond). 0 lets the service
  /// allocate one; the network front end allocates up front (via
  /// AllocateTraceId) so its serve_parse span shares the same id.
  std::uint64_t trace_id = 0;
  /// Stable canary-routing key (e.g. a user id): the registry hashes it to
  /// pick the canary or the incumbent for the request's slot, so requests
  /// carrying the same key always land on the same side of a split (sticky
  /// assignment). 0 lets the service assign a fresh per-request key, which
  /// samples the canary at its configured fraction.
  std::uint64_t route_key = 0;
  /// Testing/ops hook: sleep this long (capped at 2000 ms) inside the
  /// rollout worker, to force a tail-latency event the flight recorder and
  /// the latency exemplars must capture. 0 (the default) is a no-op.
  double debug_stall_ms = 0.0;
};

/// A served plan plus everything needed to audit it: the scores, the hard
/// constraint report, and which policy version produced it.
struct PlanResponse {
  model::Plan plan;
  double score = 0.0;
  bool valid = false;
  std::vector<std::string> violations;
  /// The exact registry version the rollout used — every response is
  /// attributable to one immutable snapshot even across hot swaps.
  std::uint64_t policy_version = 0;
  double queue_ms = 0.0;
  double exec_ms = 0.0;
};

struct PlanServiceConfig {
  /// Concurrent request executors (drawn from the service's ThreadPool).
  std::size_t num_workers = 4;
  /// Admission-control bound: requests beyond this queue depth are rejected
  /// with ResourceExhausted instead of being buffered without limit.
  std::size_t max_queue = 256;
  /// Default per-request deadline in ms; 0 disables deadlines.
  double default_deadline_ms = 0.0;
  /// Shared metrics registry the service's ServeStats records into (not
  /// owned; must outlive the service). Null gives the service a private
  /// registry — stats still work, they are just not shared with a
  /// co-located trainer.
  obs::Registry* metrics = nullptr;
  /// Optional trace collector (not owned; must outlive the service). When
  /// set, every request is assigned a process-unique trace id and emits a
  /// queue-wait → plan → respond span chain onto the worker's timeline —
  /// including queue-rejected and deadline-exceeded requests, which is
  /// exactly when a timeline matters most.
  obs::TraceCollector* trace = nullptr;
  /// Optional tail-latency flight recorder (not owned; must outlive the
  /// service). When set and enabled (slo_ms > 0), every request gets a
  /// trace id, the latency histogram captures (trace_id, version) exemplars,
  /// and requests blowing the SLO retain their span breakdown for
  /// /debug/tracez. Null or disabled costs one predictable branch.
  obs::FlightRecorder* recorder = nullptr;
};

/// The concurrent plan-serving layer: executes PlanRequests against the
/// registry's current policies on a util::ThreadPool, behind a bounded
/// request queue with admission control and per-request deadlines.
///
/// Lifecycle: construct → Start() → Submit()/SubmitAsync()/Execute() from
/// any thread → optionally Drain(timeout) (stop admissions, settle the
/// queue) → Stop() (drains the queue, then joins). A service is single-use;
/// Stop() is permanent. `instance` and `registry` must outlive the service.
///
/// Consistency contract: a request is executed entirely against the one
/// `shared_ptr<const ServablePolicy>` it resolves at execution start, so hot
/// swaps never produce a response mixing two policies, and no request is
/// dropped or spuriously rejected by a swap.
class PlanService {
 public:
  PlanService(const model::TaskInstance& instance,
              const mdp::RewardWeights& weights, const PolicyRegistry& registry,
              PlanServiceConfig config);

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  /// Delivery path for SubmitAsync: invoked exactly once with the response
  /// (or the per-request error) on the worker that finished the request.
  /// Must not block — it runs on the serving hot path.
  using Callback = std::function<void(util::Result<PlanResponse>)>;

  /// Stops the service if still running.
  ~PlanService();

  /// Spins up the worker loops. Idempotent until Stop().
  void Start();

  /// Graceful shutdown, phase 1: stops admitting new requests (Submit and
  /// SubmitAsync fail with FailedPrecondition from the moment this is
  /// called) and waits up to `timeout` for every queued and in-flight
  /// request to be delivered. Requests still queued when the timeout
  /// expires are completed with DeadlineExceeded — never silently dropped —
  /// and the call returns DeadlineExceeded; a fully settled queue returns
  /// Ok. Idempotent, and composes with Stop() in either order (Drain after
  /// Stop is a no-op returning Ok).
  util::Status Drain(std::chrono::milliseconds timeout);

  /// Drains queued requests, then stops the workers. Requests submitted
  /// after Stop() fail with FailedPrecondition.
  void Stop();

  /// Admits a request into the bounded queue. Returns the future that will
  /// carry the response (or the per-request error), or an immediate
  /// ResourceExhausted / FailedPrecondition when the queue is full / the
  /// service is not running (or draining).
  util::Result<std::future<util::Result<PlanResponse>>> Submit(
      PlanRequest request);

  /// Callback flavor of Submit for event-loop callers (the epoll front end):
  /// on admission, `callback` fires exactly once from a worker thread with
  /// the response; on rejection (queue full / not running / draining) the
  /// error is returned immediately and `callback` is never invoked.
  util::Status SubmitAsync(PlanRequest request, Callback callback);

  /// Hands out a process-unique trace id a caller can place in
  /// PlanRequest::trace_id so its own spans share the request's id chain.
  std::uint64_t AllocateTraceId() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Synchronously executes `request` on the calling thread against the
  /// policy the registry routes it to (the incumbent, or a staged canary at
  /// its configured traffic fraction) — the single-request path (also what
  /// the workers run). Does not touch the queue or admission control.
  util::Result<PlanResponse> Execute(const PlanRequest& request) const;

  const ServeStats& stats() const { return stats_; }
  /// Mutable access for out-of-band recorders (snapshot-install latency is
  /// observed by the process embedding the service, not by request flow).
  ServeStats& stats() { return stats_; }
  std::size_t queue_depth() const;
  const PlanServiceConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    PlanRequest request;
    std::promise<util::Result<PlanResponse>> promise;
    Callback callback;  // when set, delivery bypasses the promise
    Clock::time_point enqueued;
    Clock::time_point deadline;
    bool has_deadline = false;
    std::uint64_t trace_id = 0;  // assigned only when a trace sink is on
  };

  void WorkerLoop();

  /// Shared admission path behind Submit/SubmitAsync: deadline resolution,
  /// queue-bound check, stats, and a rejected request's stages.
  /// `pending.callback` decides the delivery flavor.
  util::Status Enqueue(Pending pending);

  /// The one producer of a request's stage events. From the timestamps the
  /// service read for the request it builds serve_queue_wait (admission to
  /// `dequeued`), serve_plan (`dequeued` to `finished`, only when the
  /// request `ran`, with the policy `version` when it has one) and the
  /// zero-width serve_respond marker at `finished`, each carrying `status`
  /// (a request that ran left the queue "ok"), and hands the same events to
  /// the trace collector and the flight recorder. No-op without either.
  void RecordStages(const Pending& pending, Clock::time_point dequeued,
                    Clock::time_point finished, const char* status, bool ran,
                    std::uint64_t version) const;

  /// Invokes the callback or fulfills the promise, then retires the request
  /// from the drain accounting.
  void Deliver(Pending& pending, util::Result<PlanResponse> result);

  const model::TaskInstance* instance_;
  mdp::RewardWeights weights_;  // kept alive for reward_ and its overrides
  // Default-T_ideal path, shared across workers; each ideal_topics override
  // builds its reward on this one's catalog index.
  mdp::RewardFunction reward_;
  const PolicyRegistry* registry_;
  PlanServiceConfig config_;
  ServeStats stats_;
  obs::TraceCollector* trace_;      // null when absent
  obs::FlightRecorder* recorder_;   // null when absent or disabled
  std::atomic<std::uint64_t> next_trace_id_{1};
  /// Per-request canary routing keys for requests that do not carry one.
  mutable std::atomic<std::uint64_t> next_route_key_{1};

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::condition_variable drain_cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  bool draining_ = false;
  /// Requests dequeued by a worker but not yet delivered; Drain waits for
  /// queue_.empty() && in_flight_ == 0.
  std::size_t in_flight_ = 0;

  util::ThreadPool pool_;
  std::thread coordinator_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace rlplanner::serve

#endif  // RLPLANNER_SERVE_PLAN_SERVICE_H_
