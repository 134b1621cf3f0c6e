#include "fleet/fleet.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "obs/span.h"
#include "rl/sarsa.h"
#include "rl/transfer.h"
#include "serve/policy_snapshot.h"

namespace rlplanner::fleet {
namespace {

/// Minimal JSON string escaping for slot/segment names and error messages
/// (quotes, backslashes, control characters).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const char* PolicyPhaseName(PolicyPhase phase) {
  switch (phase) {
    case PolicyPhase::kIdle: return "idle";
    case PolicyPhase::kBackoff: return "backoff";
    case PolicyPhase::kCanary: return "canary";
  }
  return "unknown";
}

struct FleetOrchestrator::SpecState {
  PolicySpec spec;
  PolicyPhase phase = PolicyPhase::kIdle;
  std::uint64_t generation = 0;
  int last_published_tick = -1;
  /// Earliest tick the next retrain attempt may start (backoff gate).
  int next_attempt_tick = 0;
  /// Tick at which a staged canary is due for its verdict.
  int promote_tick = 0;
  std::uint64_t canary_version = 0;
  adaptive::FeedbackModel feedback;
  std::uint64_t feedback_events = 0;
  /// Topic-space transfer warm start; consumed by the first successful
  /// publication after adoption.
  std::optional<mdp::QTable> warm;
  int consecutive_failures = 0;
  std::string last_error;
  std::uint64_t publishes = 0;
  std::uint64_t promotes = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t gate_failures = 0;
  std::uint64_t retrain_failures = 0;
  std::uint64_t candidate_rejections = 0;

  SpecState(PolicySpec s, std::size_t num_items)
      : spec(std::move(s)),
        feedback(num_items, spec.feedback_smoothing) {}
};

struct FleetOrchestrator::RetrainResult {
  bool ok = false;
  std::string error;
  mdp::QTable table{0};
  std::uint64_t derived_seed = 0;
};

FleetOrchestrator::FleetOrchestrator(const model::TaskInstance& instance,
                                     const mdp::RewardWeights& weights,
                                     serve::PolicyRegistry& registry,
                                     util::ThreadPool& pool,
                                     FleetConfig config)
    : instance_(&instance),
      weights_(weights),
      reward_(*instance_, weights_),
      registry_(&registry),
      pool_(&pool),
      config_(std::move(config)),
      probe_set_(ProbeSet::Deterministic(instance, config_.probe_count,
                                         config_.probe_seed)) {
  gate_config_.reward_band = config_.reward_band;
}

FleetOrchestrator::~FleetOrchestrator() = default;

util::Status FleetOrchestrator::AddSpec(PolicySpec spec) {
  if (spec.slot.empty()) {
    return util::Status::InvalidArgument("policy spec needs a slot name");
  }
  if (spec.catalog_fingerprint != registry_->catalog_fingerprint()) {
    std::ostringstream msg;
    msg << "spec '" << spec.slot << "' carries catalog fingerprint "
        << spec.catalog_fingerprint << " but the registry serves "
        << registry_->catalog_fingerprint()
        << "; a policy trained on a different catalog cannot be published "
           "here";
    return util::Status::FailedPrecondition(msg.str());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& state : states_) {
    if (state->spec.slot == spec.slot) {
      return util::Status::InvalidArgument("duplicate fleet slot '" +
                                           spec.slot + "'");
    }
  }
  const std::string slot = spec.slot;
  states_.push_back(std::make_unique<SpecState>(std::move(spec),
                                                instance_->catalog->size()));
  {
    std::lock_guard<std::mutex> feedback_lock(feedback_mutex_);
    known_slots_.insert(slot);
  }
  return util::Status::Ok();
}

util::Status FleetOrchestrator::EnqueueFeedback(const std::string& slot,
                                                adaptive::FeedbackEvent event) {
  std::lock_guard<std::mutex> lock(feedback_mutex_);
  if (known_slots_.find(slot) == known_slots_.end()) {
    return util::Status::OutOfRange("unknown fleet slot '" + slot + "'");
  }
  feedback_queue_.emplace_back(slot, std::move(event));
  return util::Status::Ok();
}

util::Status FleetOrchestrator::AdoptExternalWarmStart(
    const std::string& slot, const mdp::QTable& source_q,
    const model::Catalog& source_catalog) {
  mdp::QTable mapped = rl::PolicyTransfer::MapAcrossCatalogs(
      source_q, source_catalog, *instance_->catalog);
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& state : states_) {
    if (state->spec.slot == slot) {
      state->warm = std::move(mapped);
      return util::Status::Ok();
    }
  }
  return util::Status::OutOfRange("unknown fleet slot '" + slot + "'");
}

void FleetOrchestrator::DrainFeedback() {
  std::deque<std::pair<std::string, adaptive::FeedbackEvent>> batch;
  {
    std::lock_guard<std::mutex> lock(feedback_mutex_);
    batch.swap(feedback_queue_);
  }
  for (auto& [slot, event] : batch) {
    for (const auto& state : states_) {
      if (state->spec.slot != slot) continue;
      if (state->feedback.Apply(event).ok()) ++state->feedback_events;
      break;
    }
  }
}

std::vector<FleetOrchestrator::SpecState*> FleetOrchestrator::CollectDue() {
  std::vector<SpecState*> due;
  for (const auto& state : states_) {
    if (state->phase == PolicyPhase::kCanary) continue;
    if (tick_ < state->next_attempt_tick) continue;
    const bool never_published = state->last_published_tick < 0;
    const bool stale =
        never_published ||
        tick_ - state->last_published_tick >= state->spec.freshness_ticks;
    if (state->phase == PolicyPhase::kBackoff || stale) {
      due.push_back(state.get());
    }
  }
  // Priority = how far past the freshness deadline the policy is; a policy
  // that has never been published outranks everything. Slot-name tie-break
  // keeps the schedule (and therefore the publish order) deterministic.
  auto overdue = [this](const SpecState* s) {
    if (s->last_published_tick < 0) return std::numeric_limits<int>::max();
    return tick_ - s->last_published_tick - s->spec.freshness_ticks;
  };
  std::sort(due.begin(), due.end(),
            [&](const SpecState* a, const SpecState* b) {
              const int oa = overdue(a);
              const int ob = overdue(b);
              if (oa != ob) return oa > ob;
              return a->spec.slot < b->spec.slot;
            });
  return due;
}

FleetOrchestrator::RetrainResult FleetOrchestrator::Retrain(SpecState& state) {
  RetrainResult result;
  // Each generation trains with its own derived seed, so a retry after a
  // failed gate explores a different episode stream instead of reproducing
  // the rejected candidate — while the whole (seed, generation) sequence
  // stays reproducible.
  result.derived_seed =
      state.spec.seed + 0x9e3779b97f4a7c15ull * state.generation;
  ++state.generation;
  obs::ScopedSpan span(config_.metrics, "fleet_retrain", config_.trace);
  span.AddArg("slot", state.spec.slot);
  span.AddArg("generation", state.generation);
  if (config_.hooks.on_retrain_start) {
    const util::Status status = config_.hooks.on_retrain_start(state.spec);
    if (!status.ok()) {
      result.error = "retrain hook: " + std::string(status.message());
      span.AddArg("status", "hook_failed");
      return result;
    }
  }
  // Warm-start base: an adopted topic-space transfer wins, then the slot's
  // dense incumbent (continual update), then a cold zero table. The
  // accumulated segment feedback is folded into whichever base applies.
  mdp::QTable base(instance_->catalog->size());
  if (state.warm.has_value()) {
    base = *state.warm;
  } else {
    const std::shared_ptr<const serve::ServablePolicy> incumbent =
        registry_->Current(state.spec.slot);
    if (incumbent != nullptr && incumbent->dense.has_value()) {
      base = *incumbent->dense;
    }
  }
  mdp::QTable shaped =
      adaptive::FoldFeedback(base, state.feedback, state.spec.feedback_strength);
  rl::SarsaLearner learner(*instance_, reward_, state.spec.sarsa,
                           result.derived_seed);
  result.table = learner.LearnFrom(std::move(shaped));
  result.ok = true;
  span.AddArg("status", "ok");
  return result;
}

void FleetOrchestrator::RecordFailure(SpecState& state,
                                      const std::string& error,
                                      const char* kind) {
  ++state.consecutive_failures;
  state.last_error = error;
  if (auto* c = SegmentCounter("fleet_publish_failures_total",
                               "Failed fleet publish attempts by cause",
                               state.spec.segment_id)) {
    c->Increment();
  }
  // Exponential backoff up to max_publish_retries consecutive failures;
  // past that the spec parks until its next freshness window so a
  // persistently bad recipe cannot monopolize the training pool.
  int wait;
  if (state.consecutive_failures >= config_.max_publish_retries) {
    wait = std::max(state.spec.freshness_ticks, 1);
  } else {
    const int shift = std::min(state.consecutive_failures - 1, 6);
    wait = std::max(1, config_.backoff_base_ticks) << shift;
  }
  state.phase = PolicyPhase::kBackoff;
  state.next_attempt_tick = tick_ + wait;
  obs::ScopedSpan span(config_.metrics, "fleet_publish_failure",
                       config_.trace);
  span.AddArg("slot", state.spec.slot);
  span.AddArg("kind", kind);
}

void FleetOrchestrator::TryPublish(SpecState& state, RetrainResult result) {
  if (!result.ok) {
    ++state.retrain_failures;
    if (auto* c = SegmentCounter("fleet_retrain_failures_total",
                                 "Fleet retrain jobs that failed",
                                 state.spec.segment_id)) {
      c->Increment();
    }
    RecordFailure(state, result.error, "retrain");
    return;
  }
  if (auto* c = SegmentCounter("fleet_retrains_total",
                               "Completed fleet retrain jobs",
                               state.spec.segment_id)) {
    c->Increment();
  }
  obs::ScopedSpan span(config_.metrics, "fleet_publish", config_.trace);
  span.AddArg("slot", state.spec.slot);

  // Publish pipeline: the candidate travels as v2 snapshot bytes, runs
  // through the corruption seam, and must deserialize (both checksums and
  // the zero padding verified, so every byte is covered) before the gate
  // ever sees it — a candidate corrupted mid-publish is rejected here and
  // the registry is never touched. The bytes are this process's own, so
  // the dense alias's num_items^2 allocation is safe.
  serve::PolicySnapshot snapshot;
  snapshot.catalog_fingerprint = registry_->catalog_fingerprint();
  snapshot.provenance = state.spec.sarsa;
  snapshot.seed = result.derived_seed;
  snapshot.table = std::move(result.table);
  std::string bytes = snapshot.Serialize();
  if (config_.hooks.on_candidate_serialized) {
    config_.hooks.on_candidate_serialized(state.spec, &bytes);
  }
  util::Result<serve::PolicySnapshot> parsed =
      serve::PolicySnapshot::Deserialize(bytes);
  if (!parsed.ok()) {
    ++state.candidate_rejections;
    if (auto* c = SegmentCounter(
            "fleet_candidate_rejected_total",
            "Fleet candidates rejected by snapshot integrity validation",
            state.spec.segment_id)) {
      c->Increment();
    }
    span.AddArg("decision", "integrity_rejected");
    RecordFailure(state,
                  "candidate snapshot failed integrity validation: " +
                      std::string(parsed.status().message()),
                  "integrity");
    return;
  }

  const std::shared_ptr<const serve::ServablePolicy> incumbent =
      registry_->Current(state.spec.slot);
  const GateReport gate =
      EvaluateGate(*instance_, reward_, parsed.value().table,
                   parsed.value().provenance, incumbent.get(), probe_set_,
                   gate_config_);
  if (!gate.passed) {
    ++state.gate_failures;
    if (auto* c = SegmentCounter("fleet_gate_failures_total",
                                 "Fleet candidates rejected by the gate",
                                 state.spec.segment_id)) {
      c->Increment();
    }
    span.AddArg("decision", "gate_rejected");
    RecordFailure(state, "gate: " + gate.reason, "gate");
    return;
  }

  util::Result<std::uint64_t> installed =
      incumbent == nullptr
          ? registry_->InstallSnapshot(state.spec.slot, parsed.value())
          : registry_->InstallCanarySnapshot(state.spec.slot, parsed.value(),
                                             config_.canary_permille);
  if (!installed.ok()) {
    span.AddArg("decision", "install_failed");
    RecordFailure(state,
                  "install: " + std::string(installed.status().message()),
                  "install");
    return;
  }
  ++state.publishes;
  state.consecutive_failures = 0;
  state.last_error.clear();
  state.last_published_tick = tick_;
  state.next_attempt_tick = tick_ + 1;
  state.warm.reset();  // the transfer warm start has served its purpose
  if (auto* c = SegmentCounter("fleet_publishes_total",
                               "Fleet candidates published (direct or canary)",
                               state.spec.segment_id)) {
    c->Increment();
  }
  if (incumbent == nullptr) {
    // First publication of the slot: nothing to split traffic against, the
    // gated candidate becomes the incumbent directly.
    state.phase = PolicyPhase::kIdle;
    state.canary_version = 0;
    span.AddArg("decision", "direct_install");
  } else {
    state.phase = PolicyPhase::kCanary;
    state.canary_version = installed.value();
    state.promote_tick = tick_ + std::max(0, config_.canary_hold_ticks);
    span.AddArg("decision", "canary_staged");
  }
  span.AddArg("version", installed.value());
  if (publish_observer_) {
    publish_observer_(state.spec, installed.value(), bytes);
  }
}

void FleetOrchestrator::AdvanceCanary(SpecState& state) {
  if (config_.hooks.hold_canary && config_.hooks.hold_canary(state.spec)) {
    if (auto* c = SegmentCounter("fleet_canary_held_total",
                                 "Ticks a fleet canary was held past its "
                                 "deadline by the hold hook",
                                 state.spec.segment_id)) {
      c->Increment();
    }
    return;
  }
  if (tick_ < state.promote_tick) return;
  bool promote = true;
  if (config_.hooks.override_canary_verdict) {
    const std::optional<bool> verdict =
        config_.hooks.override_canary_verdict(state.spec);
    if (verdict.has_value()) promote = *verdict;
  }
  obs::ScopedSpan span(config_.metrics, "fleet_canary_verdict",
                       config_.trace);
  span.AddArg("slot", state.spec.slot);
  if (promote) {
    const util::Status status = registry_->PromoteCanary(state.spec.slot);
    span.AddArg("decision", status.ok() ? "promoted" : "promote_failed");
    if (status.ok()) {
      ++state.promotes;
      if (auto* c = SegmentCounter("fleet_promotes_total",
                                   "Fleet canaries promoted to incumbent",
                                   state.spec.segment_id)) {
        c->Increment();
      }
    } else {
      state.last_error = "promote: " + std::string(status.message());
    }
  } else {
    const util::Status status = registry_->Rollback(state.spec.slot);
    span.AddArg("decision", status.ok() ? "rolled_back" : "rollback_failed");
    if (status.ok()) {
      ++state.rollbacks;
      if (auto* c = SegmentCounter("fleet_rollbacks_total",
                                   "Fleet canaries rolled back",
                                   state.spec.segment_id)) {
        c->Increment();
      }
    } else {
      state.last_error = "rollback: " + std::string(status.message());
    }
  }
  state.phase = PolicyPhase::kIdle;
  state.canary_version = 0;
}

void FleetOrchestrator::Tick() {
  std::lock_guard<std::mutex> lock(mutex_);
  obs::ScopedSpan tick_span(config_.metrics, "fleet_tick", config_.trace);
  tick_span.AddArg("tick", static_cast<std::uint64_t>(tick_));
  DrainFeedback();

  const std::vector<SpecState*> due = CollectDue();
  tick_span.AddArg("due", static_cast<std::uint64_t>(due.size()));
  // Retrains run in parallel across specs (each writes only its own result
  // slot); publication happens serially afterwards, in priority order, so
  // registry versions — and therefore the published snapshot sequence —
  // are deterministic.
  std::vector<RetrainResult> results(due.size());
  if (!due.empty()) {
    pool_->ParallelFor(due.size(), [&](std::size_t i) {
      results[i] = Retrain(*due[i]);
    });
  }
  for (std::size_t i = 0; i < due.size(); ++i) {
    TryPublish(*due[i], std::move(results[i]));
  }
  for (const auto& state : states_) {
    if (state->phase == PolicyPhase::kCanary) AdvanceCanary(*state);
  }
  for (const auto& state : states_) {
    const int staleness = state->last_published_tick < 0
                              ? tick_
                              : tick_ - state->last_published_tick;
    if (auto* g = SegmentGauge("fleet_staleness_ticks",
                               "Ticks since the segment's last publication",
                               state->spec.segment_id)) {
      g->Set(static_cast<double>(staleness));
    }
  }
  if (config_.metrics != nullptr) {
    if (auto ticks = config_.metrics->GetCounter(
            "fleet_ticks_total", "Fleet orchestrator scheduling ticks");
        ticks.ok()) {
      ticks.value()->Increment();
    }
  }
  ++tick_;
}

void FleetOrchestrator::RunTicks(int n) {
  for (int i = 0; i < n; ++i) Tick();
}

int FleetOrchestrator::tick() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tick_;
}

std::vector<PolicyStatus> FleetOrchestrator::Statuses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<PolicyStatus> statuses;
  statuses.reserve(states_.size());
  for (const auto& state : states_) {
    PolicyStatus status;
    status.slot = state->spec.slot;
    status.segment_id = state->spec.segment_id;
    status.phase = state->phase;
    status.generation = state->generation;
    status.last_published_tick = state->last_published_tick;
    status.staleness = state->last_published_tick < 0
                           ? tick_
                           : tick_ - state->last_published_tick;
    if (const std::optional<serve::SlotInfo> info =
            registry_->Info(state->spec.slot)) {
      status.incumbent_version = info->incumbent_version;
      status.canary_version = info->canary_version;
      status.canary_permille = info->canary_permille;
    }
    status.publishes = state->publishes;
    status.promotes = state->promotes;
    status.rollbacks = state->rollbacks;
    status.gate_failures = state->gate_failures;
    status.retrain_failures = state->retrain_failures;
    status.candidate_rejections = state->candidate_rejections;
    status.feedback_events = state->feedback_events;
    status.consecutive_failures = state->consecutive_failures;
    status.last_error = state->last_error;
    statuses.push_back(std::move(status));
  }
  std::sort(statuses.begin(), statuses.end(),
            [](const PolicyStatus& a, const PolicyStatus& b) {
              return a.slot < b.slot;
            });
  return statuses;
}

std::string FleetOrchestrator::StatusJson() const {
  const std::vector<PolicyStatus> statuses = Statuses();
  std::ostringstream out;
  out << "{\"tick\": " << tick() << ", \"policies\": [";
  bool first = true;
  for (const PolicyStatus& s : statuses) {
    if (!first) out << ", ";
    first = false;
    out << "{\"slot\": \"" << JsonEscape(s.slot) << "\""
        << ", \"segment\": \"" << JsonEscape(s.segment_id) << "\""
        << ", \"phase\": \"" << PolicyPhaseName(s.phase) << "\""
        << ", \"generation\": " << s.generation
        << ", \"last_published_tick\": " << s.last_published_tick
        << ", \"staleness\": " << s.staleness
        << ", \"incumbent_version\": " << s.incumbent_version
        << ", \"canary_version\": " << s.canary_version
        << ", \"canary_permille\": " << s.canary_permille
        << ", \"publishes\": " << s.publishes
        << ", \"promotes\": " << s.promotes
        << ", \"rollbacks\": " << s.rollbacks
        << ", \"gate_failures\": " << s.gate_failures
        << ", \"retrain_failures\": " << s.retrain_failures
        << ", \"candidate_rejections\": " << s.candidate_rejections
        << ", \"feedback_events\": " << s.feedback_events
        << ", \"consecutive_failures\": " << s.consecutive_failures
        << ", \"last_error\": \"" << JsonEscape(s.last_error) << "\"}";
  }
  out << "]}";
  return out.str();
}

std::string FleetOrchestrator::SummaryJson() const {
  const std::vector<PolicyStatus> statuses = Statuses();
  std::map<std::string, int> phases;
  std::uint64_t publishes = 0, promotes = 0, rollbacks = 0, gate_failures = 0;
  for (const PolicyStatus& s : statuses) {
    ++phases[PolicyPhaseName(s.phase)];
    publishes += s.publishes;
    promotes += s.promotes;
    rollbacks += s.rollbacks;
    gate_failures += s.gate_failures;
  }
  std::ostringstream out;
  out << "{\"tick\": " << tick()
      << ", \"policies\": " << statuses.size() << ", \"phases\": {";
  bool first = true;
  for (const auto& [phase, count] : phases) {
    if (!first) out << ", ";
    first = false;
    out << '"' << phase << "\": " << count;
  }
  out << "}, \"publishes\": " << publishes << ", \"promotes\": " << promotes
      << ", \"rollbacks\": " << rollbacks
      << ", \"gate_failures\": " << gate_failures << "}";
  return out.str();
}

void FleetOrchestrator::set_publish_observer(PublishObserver observer) {
  std::lock_guard<std::mutex> lock(mutex_);
  publish_observer_ = std::move(observer);
}

obs::Counter* FleetOrchestrator::SegmentCounter(const char* name,
                                                const char* help,
                                                const std::string& segment) {
  if (config_.metrics == nullptr) return nullptr;
  util::Result<obs::Counter*> counter =
      config_.metrics->GetCounter(name, help, {{"segment", segment}});
  return counter.ok() ? counter.value() : nullptr;
}

obs::Gauge* FleetOrchestrator::SegmentGauge(const char* name,
                                            const char* help,
                                            const std::string& segment) {
  if (config_.metrics == nullptr) return nullptr;
  util::Result<obs::Gauge*> gauge =
      config_.metrics->GetGauge(name, help, {{"segment", segment}});
  return gauge.ok() ? gauge.value() : nullptr;
}

}  // namespace rlplanner::fleet
