#ifndef RLPLANNER_NET_PLAN_HANDLER_H_
#define RLPLANNER_NET_PLAN_HANDLER_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "net/server.h"
#include "serve/plan_service.h"
#include "util/json.h"
#include "util/status.h"

namespace rlplanner::obs {
class FlightRecorder;
class Profiler;
class Registry;
class TraceCollector;
}  // namespace rlplanner::obs

namespace rlplanner::net {

/// The service-to-wire error contract, in one testable place:
///   Ok                              → 200
///   InvalidArgument / OutOfRange    → 400  (bad request JSON, bad item ids)
///   NotFound                        → 404  (unknown policy slot)
///   ResourceExhausted               → 503  (admission queue full)
///   FailedPrecondition              → 503  (service draining / not running)
///   DeadlineExceeded                → 504
///   anything else                   → 500
int StatusToHttpCode(const util::Status& status);

/// Decodes the POST /v1/plan body into a PlanRequest. Strict: the document
/// must be an object, every field must have the right shape, and unknown
/// fields are rejected by name. Accepted fields (all optional):
///   policy        string   registry slot, default "default"
///   start_item    integer  first item of the rollout, default 0
///   excluded      array of integers — items the plan must never pick
///   ideal_topics  array of strings — per-user T_ideal override
///   deadline_ms   number   per-request deadline (0 = service default,
///                          negative = no deadline)
///   debug_stall_ms  number >= 0 — testing hook: stall the rollout worker
///                          this long (capped at 2000 ms) to force an SLO
///                          violation the flight recorder must capture
util::Result<serve::PlanRequest> PlanRequestFromJson(
    const util::json::Value& root);

/// Renders a served plan for the wire: plan items, score, validity +
/// violations, the policy version that produced it, and the queue/exec
/// timings.
std::string PlanResponseToJson(const serve::PlanResponse& response);

/// Routes the serving and introspection endpoints onto a PlanService:
///   POST /v1/plan        JSON plan request → JSON plan response (async via
///                        SubmitAsync — the epoll shard never blocks)
///   GET  /metrics        Prometheus text exposition of the shared registry;
///                        `?exemplars=1` (or an Accept header naming
///                        application/openmetrics-text) switches to the
///                        OpenMetrics exposition carrying exemplars
///   GET  /healthz        {"status":"ok"} liveness probe
///   GET  /debug/statusz  build/uptime/profiler/recorder summary + serve
///                        stats + registry slot versions + any sections
///                        added via AddStatuszSection (e.g. the fleet table)
///   GET  /debug/tracez   flight-recorder reservoirs (active/slowest/recent)
///                        + every histogram exemplar
///   GET  /debug/pprof    collapsed-stack CPU profile of the last
///                        `?seconds=N` (default 60) — 404 without a running
///                        profiler
///   GET  /fleet/status   the fleet orchestrator's status document — 404
///                        unless a provider was wired in Options
/// Unknown targets get 404, wrong methods on known targets 405. Every plan
/// request is assigned a trace id up front so the handler's serve_parse span
/// shares the id chain of the service's queue-wait/plan/respond spans.
class PlanHandler {
 public:
  struct Options {
    /// The registry GET /metrics exports (not owned). Null serves 404 on
    /// /metrics — the other endpoints still work.
    obs::Registry* metrics = nullptr;
    /// Optional trace collector for serve_parse spans (not owned).
    obs::TraceCollector* trace = nullptr;
    /// Optional sampling profiler behind /debug/pprof (not owned). Null or
    /// disabled serves 404 there.
    obs::Profiler* profiler = nullptr;
    /// Optional flight recorder behind /debug/tracez (not owned). Tracez
    /// still renders (exemplars only) without one.
    obs::FlightRecorder* recorder = nullptr;
    /// Optional policy registry whose slot/version table /debug/statusz
    /// embeds (not owned).
    const serve::PolicyRegistry* slots = nullptr;
    /// Optional provider for GET /fleet/status (and the statusz "fleet"
    /// section): returns FleetOrchestrator::StatusJson(). Kept as a closure
    /// so rlplanner_net never links rlplanner_fleet.
    std::function<std::string()> fleet_status;
  };

  /// `service` must be started and must outlive the handler.
  PlanHandler(serve::PlanService* service, Options options);

  /// Contributes one extra section to /debug/statusz (`provider` must
  /// return a complete JSON value). Call before the server starts serving.
  void AddStatuszSection(std::string name,
                         std::function<std::string()> provider);

  /// The HttpServer-facing entry point (runs on epoll shard threads).
  void Handle(HttpRequest request, Responder responder);

  /// Adapter for HttpServer's constructor.
  HttpServer::Handler AsHandler();

 private:
  void HandlePlan(const HttpRequest& request, Responder responder);
  std::string StatuszBody() const;
  std::string SlotsJson() const;

  serve::PlanService* service_;
  obs::Registry* metrics_;
  obs::TraceCollector* trace_;  // null when absent
  obs::Profiler* profiler_;
  obs::FlightRecorder* recorder_;
  const serve::PolicyRegistry* slots_;
  std::function<std::string()> fleet_status_;
  std::vector<std::pair<std::string, std::function<std::string()>>>
      extra_sections_;
};

}  // namespace rlplanner::net

#endif  // RLPLANNER_NET_PLAN_HANDLER_H_
