#ifndef RLPLANNER_FLEET_FLEET_H_
#define RLPLANNER_FLEET_FLEET_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "adaptive/feedback.h"
#include "fleet/gate.h"
#include "mdp/q_table.h"
#include "mdp/reward.h"
#include "model/constraints.h"
#include "obs/registry.h"
#include "rl/sarsa_config.h"
#include "serve/policy_registry.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace rlplanner::obs {
class TraceCollector;
}  // namespace rlplanner::obs

namespace rlplanner::fleet {

/// One managed policy: a registry slot plus everything needed to keep it
/// fresh — the training recipe, the tenant segment it serves, and how stale
/// it may get before the orchestrator retrains it.
struct PolicySpec {
  /// Registry slot the policy publishes to. Unique within a fleet.
  std::string slot = "default";
  /// Tenant/segment label carried into every fleet_* metric and span.
  std::string segment_id = "default";
  /// Must match the registry's catalog fingerprint; AddSpec rejects
  /// mismatches so a spec can never train against one catalog and publish
  /// into a registry indexing another.
  std::uint64_t catalog_fingerprint = 0;
  /// Training recipe for every retrain of this policy.
  rl::SarsaConfig sarsa;
  /// Base seed; retrain generation g trains with a seed derived from
  /// (seed, g), so successive retrains explore different episode streams
  /// while the whole sequence stays reproducible.
  std::uint64_t seed = 17;
  /// Freshness deadline in ticks: the policy is due for retraining once
  /// `tick - last_published_tick >= freshness_ticks` (and immediately when
  /// it has never been published). Staleness relative to this deadline is
  /// the retrain priority.
  int freshness_ticks = 8;
  /// Strength of the adaptive::FoldFeedback warm-start shaping.
  double feedback_strength = 0.5;
  /// EMA smoothing of the spec's FeedbackModel accumulator.
  double feedback_smoothing = 0.5;
};

/// Fault-injection and policy-override seam. Every hook is optional; the
/// orchestrator behaves identically with an empty FleetHooks. Tests use
/// these to fail retrains, corrupt candidate bytes mid-publish, stall
/// canaries, and force rollbacks — without reaching into orchestrator
/// internals.
struct FleetHooks {
  /// Consulted at the start of every retrain attempt; a non-Ok status fails
  /// the job before any training happens (the orchestrator records the
  /// failure and retries with exponential backoff).
  std::function<util::Status(const PolicySpec&)> on_retrain_start;
  /// Observes — and may mutate — the serialized candidate snapshot (v2
  /// bytes, the one policy file format) between serialization and
  /// publication. Corrupting any byte here exercises the publish pipeline's
  /// integrity check: the candidate is rejected by checksum or
  /// zero-padding validation and the registry is never touched.
  std::function<void(const PolicySpec&, std::string* bytes)>
      on_candidate_serialized;
  /// Returning true holds the canary in place past its promote deadline
  /// (stall injection); consulted once per tick while a canary is staged.
  std::function<bool(const PolicySpec&)> hold_canary;
  /// Overrides the end-of-hold canary verdict: true promotes, false rolls
  /// back. Unset (or returning nullopt) promotes — the candidate already
  /// passed the gate, and no counter-evidence arrived during the hold.
  std::function<std::optional<bool>(const PolicySpec&)>
      override_canary_verdict;
};

struct FleetConfig {
  /// Traffic fraction (per-mille) a staged canary receives.
  std::uint32_t canary_permille = 200;
  /// Ticks a canary is held before the promote/rollback verdict.
  int canary_hold_ticks = 2;
  /// Held-out probe set size for the publication gate.
  std::size_t probe_count = 8;
  /// Seed of the deterministic probe set.
  std::uint64_t probe_seed = 1234;
  /// Gate reward band (see GateConfig::reward_band).
  double reward_band = 0.1;
  /// Failed publish attempts (retrain failure, corrupt candidate, gate
  /// rejection) per spec before the orchestrator parks it with a terminal
  /// error until the next freshness deadline.
  int max_publish_retries = 3;
  /// Backoff after the n-th consecutive failure is
  /// `backoff_base_ticks << (n - 1)` ticks.
  int backoff_base_ticks = 1;
  /// Metrics registry for fleet_* metrics (not owned; null disables).
  obs::Registry* metrics = nullptr;
  /// Trace collector for fleet spans (not owned; null disables).
  obs::TraceCollector* trace = nullptr;
  FleetHooks hooks;
};

/// Lifecycle phase of one managed policy (see docs/fleet.md for the state
/// machine).
enum class PolicyPhase {
  /// Published and fresh (or awaiting its first retrain).
  kIdle = 0,
  /// Last publish attempt failed; waiting out the backoff window.
  kBackoff = 1,
  /// A gated candidate is staged as the slot's canary, held for
  /// canary_hold_ticks before the promote/rollback verdict.
  kCanary = 2,
};

const char* PolicyPhaseName(PolicyPhase phase);

/// Point-in-time status of one managed policy (the `fleet status` payload).
struct PolicyStatus {
  std::string slot;
  std::string segment_id;
  PolicyPhase phase = PolicyPhase::kIdle;
  /// Retrain attempts started so far (the seed-derivation generation).
  std::uint64_t generation = 0;
  /// Tick of the most recent successful publication; -1 = never.
  int last_published_tick = -1;
  /// Ticks since the last publication (current tick when never published).
  int staleness = 0;
  std::uint64_t incumbent_version = 0;
  std::uint64_t canary_version = 0;
  std::uint32_t canary_permille = 0;
  std::uint64_t publishes = 0;
  std::uint64_t promotes = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t gate_failures = 0;
  std::uint64_t retrain_failures = 0;
  std::uint64_t candidate_rejections = 0;
  std::uint64_t feedback_events = 0;
  int consecutive_failures = 0;
  /// Most recent failure description; empty when the last attempt
  /// succeeded.
  std::string last_error;
};

/// Multi-tenant continuous-training orchestrator: owns a set of PolicySpecs,
/// retrains the stalest ones each tick on a shared util::ThreadPool, folds
/// accumulated end-user feedback into every retrain (the paper's Section VI
/// loop), and publishes through a canary pipeline on serve::PolicyRegistry:
///
///   candidate snapshot -> integrity check (v2 serialize/deserialize round
///   trip: checksums and zero padding) -> automated gate (zero
///   hard-constraint violations on a held-out probe set, reward within a
///   band of the incumbent) -> canary install at a configured traffic
///   fraction -> hold -> promote, or one-call rollback.
///
/// Serving is never blocked: the registry's canary router is lock-free, so
/// requests keep resolving policies while the orchestrator republishes
/// underneath them.
///
/// Determinism contract: a fleet constructed with the same specs, ticked
/// the same number of times, with the same feedback events enqueued between
/// the same ticks, publishes bit-identical snapshots (pinned by test).
/// Everything stochastic derives from (spec.seed, generation) or the probe
/// seed; retrains are scheduled in a deterministic priority order
/// (staleness descending, slot name ascending) and published serially in
/// that order.
///
/// Threading: Tick/RunTicks must be called from one thread at a time (the
/// orchestrator driver); EnqueueFeedback and Statuses/StatusJson are safe
/// from any thread concurrently with ticking.
class FleetOrchestrator {
 public:
  /// Observes every successful publication (direct install or canary
  /// stage) with the exact serialized snapshot bytes that were published —
  /// the determinism-pin and audit seam.
  using PublishObserver = std::function<void(
      const PolicySpec& spec, std::uint64_t version, const std::string& bytes)>;

  /// `instance`, `registry` and `pool` must outlive the orchestrator.
  /// The held-out probe set is derived from (instance, config) once, here.
  FleetOrchestrator(const model::TaskInstance& instance,
                    const mdp::RewardWeights& weights,
                    serve::PolicyRegistry& registry, util::ThreadPool& pool,
                    FleetConfig config);

  FleetOrchestrator(const FleetOrchestrator&) = delete;
  FleetOrchestrator& operator=(const FleetOrchestrator&) = delete;

  /// Out of line: states_ holds unique_ptrs to the private SpecState, which
  /// is complete only in fleet.cc.
  ~FleetOrchestrator();

  /// Registers a policy under the fleet. InvalidArgument on a duplicate
  /// slot or an empty slot name; FailedPrecondition when the spec's catalog
  /// fingerprint does not match the registry's.
  util::Status AddSpec(PolicySpec spec);

  /// Queues one feedback event for `slot`'s segment; folded into the
  /// spec's FeedbackModel at the start of the next tick (FIFO), then into
  /// every subsequent retrain's warm start. OutOfRange for an unknown slot.
  /// Safe from any thread.
  util::Status EnqueueFeedback(const std::string& slot,
                               adaptive::FeedbackEvent event);

  /// Warm-starts `slot` from a policy trained on a different catalog:
  /// `source_q` is mapped into this fleet's catalog via topic-space
  /// transfer (rl::PolicyTransfer::MapAcrossCatalogs) and used as the base
  /// of the slot's next retrain instead of the incumbent. OutOfRange for an
  /// unknown slot.
  util::Status AdoptExternalWarmStart(const std::string& slot,
                                      const mdp::QTable& source_q,
                                      const model::Catalog& source_catalog);

  /// Advances the fleet one scheduling step: drains the feedback queue,
  /// retrains every due policy (staleness-priority order, parallel across
  /// specs on the pool), runs each candidate through the publish pipeline,
  /// and advances staged canaries toward their verdict.
  void Tick();

  /// Convenience driver: `n` consecutive Ticks.
  void RunTicks(int n);

  /// Current tick counter (number of completed Ticks).
  int tick() const;

  /// Per-policy statuses, sorted by slot name.
  std::vector<PolicyStatus> Statuses() const;

  /// The `fleet status` JSON document:
  /// {"tick": N, "policies": [{...}, ...]} with policies sorted by slot.
  std::string StatusJson() const;

  /// Compact rollup for /debug/statusz: tick, policy count, per-phase
  /// counts, and fleet-wide publish/promote/rollback/failure totals —
  /// the at-a-glance line; the full table stays on GET /fleet/status.
  std::string SummaryJson() const;

  void set_publish_observer(PublishObserver observer);

  const ProbeSet& probe_set() const { return probe_set_; }

 private:
  struct SpecState;
  /// Result of one retrain attempt, produced in parallel and consumed
  /// serially in priority order.
  struct RetrainResult;

  /// The due-list for this tick, sorted by descending staleness then slot.
  std::vector<SpecState*> CollectDue();
  RetrainResult Retrain(SpecState& state);
  /// Serialize -> corruption seam -> deserialize -> gate -> canary install
  /// (or direct install for a first publication). Mutates `state`'s phase
  /// and failure accounting.
  void TryPublish(SpecState& state, RetrainResult result);
  void AdvanceCanary(SpecState& state);
  void RecordFailure(SpecState& state, const std::string& error,
                     const char* kind);
  void DrainFeedback();

  obs::Counter* SegmentCounter(const char* name, const char* help,
                               const std::string& segment);
  obs::Gauge* SegmentGauge(const char* name, const char* help,
                           const std::string& segment);

  const model::TaskInstance* instance_;
  mdp::RewardWeights weights_;
  mdp::RewardFunction reward_;
  serve::PolicyRegistry* registry_;
  util::ThreadPool* pool_;
  FleetConfig config_;
  ProbeSet probe_set_;
  GateConfig gate_config_;

  /// Guards states_ and tick_ (Tick holds it end to end; status readers
  /// take it briefly between ticks).
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<SpecState>> states_;
  int tick_ = 0;
  PublishObserver publish_observer_;

  /// Feedback staging queue, separate from mutex_ so producers never block
  /// behind a training tick. `known_slots_` mirrors the registered slot
  /// names so EnqueueFeedback can validate without touching mutex_.
  mutable std::mutex feedback_mutex_;
  std::deque<std::pair<std::string, adaptive::FeedbackEvent>> feedback_queue_;
  std::unordered_set<std::string> known_slots_;
};

}  // namespace rlplanner::fleet

#endif  // RLPLANNER_FLEET_FLEET_H_
