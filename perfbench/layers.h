// The traced run's per-layer measurements. Everything here times calls into
// the layers' public functions from outside, recording spans in a SpanLog:
//
//   replay     an in-process re-run of sampled wire requests through
//              decode -> Route -> (reward build) -> RecommendPlan ->
//              Validate/Score -> encode, one span per call;
//   breakdown  a re-walk of each replayed plan that times ActionMask::
//              AllowedSet per step and Theta, Reward and Q Get per
//              admissible candidate, batched per step so the clock is read
//              a few times per step rather than per candidate;
//   fleet      one learn, snapshot round trip, gate and publish per slot,
//              replayed with the slot's own recipe.
//
// The budget functions turn those spans into the per-layer tables: parts
// that add up to the end-to-end p50 (or the median fleet tick), with the
// unattributed rows shown.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "adaptive/feedback.h"
#include "fleet/fleet.h"
#include "mdp/reward.h"
#include "model/constraints.h"
#include "serve/policy_registry.h"
#include "spans.h"
#include "wire.h"
#include "workload.h"

namespace perfbench {

/// What a replay needs to re-run requests the way PlanService::Execute does.
struct ReplayTarget {
  const RequestMix* mix = nullptr;
  const rlplanner::model::TaskInstance* instance = nullptr;
  const rlplanner::mdp::RewardWeights* weights = nullptr;
  const rlplanner::mdp::RewardFunction* reward = nullptr;
  const rlplanner::serve::PolicyRegistry* registry = nullptr;
};

/// Replays `requests` (indices into the mix) and re-walks each plan; see
/// the file comment. Exits the process if a replayed request fails to
/// decode or route, since the wire served the same bodies successfully.
void ReplayRequests(const ReplayTarget& target,
                    const std::vector<std::uint32_t>& requests, SpanLog* log);

/// Mean ns of one PolicyRegistry::Route over `slots`, timed in a batch.
double MeasureRouteNs(const rlplanner::serve::PolicyRegistry& registry,
                      const std::vector<std::string>& slots);

/// One fleet slot's recipe and state, as the orchestrator holds them.
struct FleetSlot {
  rlplanner::fleet::PolicySpec spec;
  std::uint64_t generation = 0;  // retrain attempts so far
  std::vector<rlplanner::adaptive::FeedbackEvent> feedback;  // all enqueued
};

/// Replays one retrain -> snapshot round trip -> gate -> publish per slot
/// against the live registry's incumbents, recording "fleet.learn",
/// "fleet.snapshot", "fleet.gate" and "fleet.publish" spans. The publish
/// goes to a scratch registry, so serving is untouched.
void ReplayFleet(const rlplanner::model::TaskInstance& instance,
                 const rlplanner::mdp::RewardFunction& reward,
                 const rlplanner::serve::PolicyRegistry& registry,
                 const rlplanner::fleet::FleetConfig& config,
                 const rlplanner::fleet::ProbeSet& probes,
                 const std::vector<FleetSlot>& slots, SpanLog* log);

/// The layer name of budget rows that no span measured: differences
/// between intervals timed in different executions, or across layers.
inline constexpr char kUnattributed[] = "unattributed";

/// One row of a budget: a layer, the part of it, and milliseconds.
struct BudgetPart {
  std::string layer;
  std::string part;
  double ms = 0.0;
  std::size_t spans = 0;
};

/// Per-request latency budget of the traced window.
struct WireBudget {
  double p50_ms = 0.0;
  std::vector<BudgetPart> parts;  // sums to p50_ms exactly
  /// Medians and shares the per-layer metrics report.
  double wire_ms = 0.0, queue_ms = 0.0, exec_ms = 0.0, exec_p90_ms = 0.0;
  double decode_us = 0.0, encode_us = 0.0, check_us = 0.0;
  double rollout_ms = 0.0, mask_us_per_step = 0.0;
  double steps_per_plan = 0.0, admissible_per_step = 0.0;
  double theta_ns = 0.0, reward_ns = 0.0, q_get_ns = 0.0;
  double rollout_unattributed_share = 0.0;
  /// Share of p50 in the unattributed rows, by magnitude: rows of opposite
  /// sign do not cancel.
  double unattributed_share = 0.0;
};

/// Builds the budget from the traced window's samples, the wire spans and
/// the replay spans. The p50 decomposes into band means (requests between
/// the 40th and 60th latency percentile, which the replay sampled):
///   net      wire self time (client latency minus the server-reported
///            queue and exec), split into the replayed decode and encode
///            and the transport that remains; all of it lies outside
///            PlanService, so the remainder stays in the net layer;
///   serve    the reported queue wait and the replayed Route;
///   rl, mdp, core  the replayed reward build and Validate/Score, and the
///            breakdown's mask scans and per-candidate calls.
/// Three rows are unattributed: the reported exec minus the replayed calls
/// inside it (the replay runs after the load, so contention and steal under
/// load land here, as does PlanService's own work), the replayed rollout
/// minus its breakdown (RecommendPlan's own loop, and where the batched
/// breakdown's costs differ from the fused loop's), and p50 minus the band
/// mean.
WireBudget ComputeWireBudget(const std::vector<WireSample>& samples,
                             const SpanLog& spans);

/// Requests whose traced-window latency lies between the 40th and 60th
/// percentile: the band the budget decomposes.
std::vector<std::uint32_t> MedianBand(const std::vector<WireSample>& samples);

/// Per-tick budget of the fleet: the median retraining tick against the
/// replayed per-slot parts.
struct FleetBudget {
  double tick_ms = 0.0;
  std::vector<BudgetPart> parts;  // sums to tick_ms exactly
  double learn_ms = 0.0, gate_ms = 0.0, snapshot_ms = 0.0, publish_us = 0.0;
  double unattributed_share = 0.0;
};

/// `threads` is how many threads train in parallel within one tick.
FleetBudget ComputeFleetBudget(const SpanLog& spans, std::size_t threads);

/// Prints a budget as a per-layer table (self time, share, spans) followed
/// by its parts.
void PrintBudget(const char* title, double total_ms,
                 const std::vector<BudgetPart>& parts);

double Median(std::vector<double> values);
/// Linear-interpolated percentile (q in [0, 1]); +inf entries sort last.
double Percentile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
