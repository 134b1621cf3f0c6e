#include "serve/plan_service.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>

#include "core/scoring.h"
#include "obs/debugz.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "rl/recommender.h"

namespace rlplanner::serve {
namespace {

double MillisBetween(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::uint64_t SteadyNs(std::chrono::steady_clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

}  // namespace

PlanService::PlanService(const model::TaskInstance& instance,
                         const mdp::RewardWeights& weights,
                         const PolicyRegistry& registry,
                         PlanServiceConfig config)
    : instance_(&instance),
      weights_(weights),
      reward_(*instance_, weights_),
      registry_(&registry),
      config_(config),
      stats_(config.metrics),
      trace_(config.trace != nullptr && config.trace->enabled() ? config.trace
                                                                : nullptr),
      recorder_(config.recorder != nullptr && config.recorder->enabled()
                    ? config.recorder
                    : nullptr),
      pool_(std::max<std::size_t>(1, config.num_workers)) {
  config_.num_workers = std::max<std::size_t>(1, config_.num_workers);
  config_.max_queue = std::max<std::size_t>(1, config_.max_queue);
  // With a recorder attached, the latency histogram links p99 buckets to
  // retained traces via (trace_id, version) exemplars.
  if (recorder_ != nullptr) stats_.EnableLatencyExemplars();
}

PlanService::~PlanService() { Stop(); }

void PlanService::Start() {
  if (started_.exchange(true)) return;
  // The coordinator parks inside ParallelFor for the service lifetime; each
  // of the num_workers indices runs one WorkerLoop on a pool thread (or the
  // coordinator itself — ParallelFor callers participate).
  coordinator_ = std::thread([this] {
    pool_.ParallelFor(config_.num_workers, [this](std::size_t w) {
      if (trace_ != nullptr) {
        trace_->SetCurrentThreadName("serve-worker-" + std::to_string(w));
      }
      WorkerLoop();
    });
  });
}

void PlanService::Stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (coordinator_.joinable()) coordinator_.join();
}

std::size_t PlanService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

util::Result<std::future<util::Result<PlanResponse>>> PlanService::Submit(
    PlanRequest request) {
  Pending pending;
  pending.request = std::move(request);
  std::future<util::Result<PlanResponse>> future =
      pending.promise.get_future();
  RLP_RETURN_IF_ERROR(Enqueue(std::move(pending)));
  return future;
}

util::Status PlanService::SubmitAsync(PlanRequest request, Callback callback) {
  Pending pending;
  pending.request = std::move(request);
  pending.callback = std::move(callback);
  return Enqueue(std::move(pending));
}

util::Status PlanService::Enqueue(Pending pending) {
  if (!started_.load() || stopped_.load()) {
    return util::Status::FailedPrecondition(
        "PlanService is not running (Start() not called or Stop() already "
        "requested)");
  }
  const auto now = Clock::now();
  // Trace ids are allocated only when tracing or the flight recorder is on,
  // so the plain path never touches the atomic; a caller-provided id (the
  // network front end's) wins so its spans share the chain.
  const std::uint64_t trace_id =
      trace_ == nullptr && recorder_ == nullptr ? 0
      : pending.request.trace_id != 0           ? pending.request.trace_id
                                                : AllocateTraceId();
  const double deadline_ms = pending.request.deadline_ms == 0.0
                                 ? config_.default_deadline_ms
                                 : pending.request.deadline_ms;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ || draining_) {
      return util::Status::FailedPrecondition(
          draining_ ? "PlanService is draining" : "PlanService is stopping");
    }
    stats_.RecordSubmitted();
    if (queue_.size() >= config_.max_queue) {
      stats_.RecordRejectedQueueFull();
      if (trace_ != nullptr) {
        // Zero-width marker on the submitting thread's timeline: the
        // request never entered the queue.
        trace_->EmitComplete("serve_queue_wait", now, now,
                             {{"trace_id", std::to_string(trace_id)},
                              {"status", "queue_rejected"}});
      }
      return util::Status::ResourceExhausted(
          "request queue full (" + std::to_string(config_.max_queue) +
          " pending requests); retry later");
    }
    pending.enqueued = now;
    pending.trace_id = trace_id;
    if (deadline_ms > 0.0) {
      pending.has_deadline = true;
      pending.deadline =
          now + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(deadline_ms));
    }
    queue_.push_back(std::move(pending));
    stats_.RecordAccepted();
    stats_.SetQueueDepth(queue_.size());
  }
  queue_cv_.notify_one();
  return util::Status::Ok();
}

void PlanService::Deliver(Pending& pending,
                          util::Result<PlanResponse> result) {
  if (pending.callback) {
    pending.callback(std::move(result));
  } else {
    pending.promise.set_value(std::move(result));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (in_flight_ > 0) --in_flight_;
    if (queue_.empty() && in_flight_ == 0) drain_cv_.notify_all();
  }
}

util::Status PlanService::Drain(std::chrono::milliseconds timeout) {
  if (!started_.load()) return util::Status::Ok();  // nothing ever admitted
  std::deque<Pending> leftover;
  bool settled = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    draining_ = true;  // Enqueue rejects from this point on
    settled = drain_cv_.wait_for(lock, timeout, [this] {
      return queue_.empty() && in_flight_ == 0;
    });
    if (!settled) {
      // Deadline-fail everything still queued; in-flight requests finish on
      // their workers (Stop() joins them). Nothing is silently dropped.
      leftover.swap(queue_);
      stats_.SetQueueDepth(0);
    }
  }
  if (settled) return util::Status::Ok();
  for (Pending& pending : leftover) {
    stats_.RecordExpiredDeadline();
    if (trace_ != nullptr) {
      const auto now = Clock::now();
      trace_->EmitComplete("serve_respond", now, now,
                           {{"trace_id", std::to_string(pending.trace_id)},
                            {"status", "drain_expired"}});
    }
    if (pending.callback) {
      pending.callback(util::Status::DeadlineExceeded(
          "request still queued when the service drain timed out"));
    } else {
      pending.promise.set_value(util::Status::DeadlineExceeded(
          "request still queued when the service drain timed out"));
    }
  }
  return util::Status::DeadlineExceeded(
      "drain timed out with " + std::to_string(leftover.size()) +
      " queued request(s) (completed with DeadlineExceeded)");
}

void PlanService::WorkerLoop() {
  while (true) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      pending = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;  // Drain waits for delivery, not just an empty queue
      stats_.SetQueueDepth(queue_.size());
    }
    const auto dequeued = Clock::now();
    const bool expired = pending.has_deadline && dequeued > pending.deadline;
    if (trace_ != nullptr) {
      // The queue-wait interval spans submission to dequeue; it renders on
      // the worker's timeline since that is where the wait was observed.
      trace_->EmitComplete(
          "serve_queue_wait", pending.enqueued, dequeued,
          {{"trace_id", std::to_string(pending.trace_id)},
           {"status", expired ? "deadline_exceeded" : "ok"}});
    }
    if (expired) {
      obs::ScopedSpan respond_span(config_.metrics, "serve_respond", trace_);
      respond_span.AddArg("trace_id", pending.trace_id);
      respond_span.AddArg("status", "deadline_exceeded");
      stats_.RecordExpiredDeadline();
      const double queue_ms = MillisBetween(pending.enqueued, dequeued);
      if (recorder_ != nullptr) {
        // A request that died in the queue already blew its deadline; record
        // it so /debug/tracez shows the queue wait that killed it.
        obs::RequestRecord record;
        record.trace_id = pending.trace_id;
        record.slot = pending.request.policy_name;
        record.status = "deadline_exceeded";
        record.queue_ms = queue_ms;
        record.total_ms = queue_ms;
        record.spans.push_back({"serve_queue_wait", 0.0, queue_ms});
        recorder_->Complete(std::move(record));
      }
      Deliver(pending,
              util::Status::DeadlineExceeded(
                  "request spent " + std::to_string(queue_ms) +
                  " ms in the queue, past its deadline"));
      continue;
    }
    if (recorder_ != nullptr) {
      recorder_->BeginActive(pending.trace_id, pending.request.policy_name,
                             SteadyNs(dequeued));
    }
    auto result = [&]() -> util::Result<PlanResponse> {
      obs::ScopedSpan plan_span(config_.metrics, "serve_plan", trace_);
      plan_span.AddArg("trace_id", pending.trace_id);
      auto executed = Execute(pending.request);
      plan_span.AddArg("status", executed.ok() ? "ok" : "error");
      if (executed.ok()) {
        plan_span.AddArg("version", executed.value().policy_version);
      }
      return executed;
    }();
    const auto finished = Clock::now();
    if (recorder_ != nullptr) recorder_->EndActive(pending.trace_id);
    obs::ScopedSpan respond_span(config_.metrics, "serve_respond", trace_);
    respond_span.AddArg("trace_id", pending.trace_id);
    respond_span.AddArg("status", result.ok() ? "ok" : "error");
    const double queue_ms = MillisBetween(pending.enqueued, dequeued);
    const double exec_ms = MillisBetween(dequeued, finished);
    const double total_ms = MillisBetween(pending.enqueued, finished);
    const std::uint64_t version =
        result.ok() ? result.value().policy_version : 0;
    if (result.ok()) {
      result.value().queue_ms = queue_ms;
      result.value().exec_ms = exec_ms;
      if (recorder_ != nullptr) {
        stats_.RecordCompleted(total_ms, pending.trace_id, version);
      } else {
        stats_.RecordCompleted(total_ms);
      }
      stats_.RecordResponseVersion(version);
    } else {
      stats_.RecordFailed();
    }
    if (recorder_ != nullptr) {
      obs::RequestRecord record;
      record.trace_id = pending.trace_id;
      record.policy_version = version;
      record.slot = pending.request.policy_name;
      record.status = result.ok() ? "ok" : "error";
      record.queue_ms = queue_ms;
      record.exec_ms = exec_ms;
      record.total_ms = total_ms;
      record.spans.push_back({"serve_queue_wait", 0.0, queue_ms});
      record.spans.push_back({"serve_plan", queue_ms, exec_ms});
      recorder_->Complete(std::move(record));
    }
    Deliver(pending, std::move(result));
  }
}

util::Result<PlanResponse> PlanService::Execute(
    const PlanRequest& request) const {
  if (request.debug_stall_ms > 0.0) {
    // Ops/testing hook: a forced stall makes the request a guaranteed SLO
    // violator, so the flight-recorder and exemplar pipelines can be driven
    // end to end against a live server. Capped so a bad request cannot park
    // a worker indefinitely.
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        std::min(request.debug_stall_ms, 2000.0)));
  }
  // Canary routing happens at policy resolution: one lock-free registry read
  // picks the incumbent or the staged canary for this request's key, and the
  // whole request then executes against that one immutable policy.
  const std::uint64_t route_key =
      request.route_key != 0
          ? request.route_key
          : next_route_key_.fetch_add(1, std::memory_order_relaxed);
  const std::shared_ptr<const ServablePolicy> policy =
      registry_->Route(request.policy_name, route_key);
  if (policy == nullptr) {
    return util::Status::NotFound("no policy installed under '" +
                                  request.policy_name + "'");
  }
  const model::Catalog& catalog = *instance_->catalog;
  if (request.start_item < 0 ||
      static_cast<std::size_t>(request.start_item) >= catalog.size()) {
    return util::Status::OutOfRange(
        "start item " + std::to_string(request.start_item) +
        " out of range (catalog size " + std::to_string(catalog.size()) + ")");
  }
  for (const model::ItemId id : request.excluded) {
    if (id < 0 || static_cast<std::size_t>(id) >= catalog.size()) {
      return util::Status::OutOfRange("excluded item " + std::to_string(id) +
                                      " out of range (catalog size " +
                                      std::to_string(catalog.size()) + ")");
    }
  }

  rl::RecommendConfig recommend;
  recommend.start_item = request.start_item;
  recommend.excluded = request.excluded;
  recommend.gamma = policy->provenance.gamma;
  recommend.mask_type_overflow = policy->provenance.mask_type_overflow;

  // Per-user T_ideal: a request-local instance whose soft constraints carry
  // the override, and a reward that shares reward_'s catalog index and
  // builds only the two T_ideal sets. Both live on this stack frame only.
  std::optional<model::TaskInstance> local;
  std::optional<mdp::RewardFunction> local_reward;
  if (request.ideal_topics.has_value()) {
    auto ideal = catalog.MakeTopicVector(*request.ideal_topics);
    if (!ideal.ok()) return ideal.status();
    local.emplace(*instance_);
    local->soft.ideal_topics = std::move(ideal).value();
    local_reward.emplace(*local, reward_);
  }
  const model::TaskInstance& instance = local ? *local : *instance_;
  const mdp::RewardFunction& reward = local_reward ? *local_reward : reward_;

  PlanResponse response;
  response.policy_version = policy->version;
  response.plan = policy->VisitQ([&](const auto& q) {
    return rl::RecommendPlan(q, instance, reward, recommend);
  });
  response.score = core::ScorePlan(instance, response.plan);
  core::ValidationReport report = core::ValidatePlan(instance, response.plan);
  response.valid = report.valid;
  response.violations = std::move(report.violations);
  return response;
}

}  // namespace rlplanner::serve
