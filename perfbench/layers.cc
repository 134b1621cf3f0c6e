#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>

#include "core/scoring.h"
#include "core/validation.h"
#include "fleet/gate.h"
#include "mdp/episode_state.h"
#include "net/plan_handler.h"
#include "rl/action_mask.h"
#include "rl/recommender.h"
#include "rl/sarsa.h"
#include "serve/policy_snapshot.h"
#include "util/bitset.h"
#include "util/json.h"

namespace perfbench {

namespace model = rlplanner::model;
namespace mdp = rlplanner::mdp;
namespace rl = rlplanner::rl;
namespace serve = rlplanner::serve;

namespace {

// Keeps timed results observable so the timed calls cannot be elided.
thread_local volatile double g_sink = 0.0;

// Each batched span covers this much work (~a few microseconds), so the
// two clock reads around it stay a small fraction of what it times.
constexpr int kBatchUnits = 4096;

int Horizon(const model::TaskInstance& instance) {
  return instance.catalog->domain() == model::Domain::kTrip
             ? static_cast<int>(instance.catalog->size())
             : instance.hard.TotalItems();
}

// Adds a span covering one repetition of a batch of `reps` repetitions.
void AddPerRep(SpanLog* log, const char* name, std::int64_t start,
               std::int64_t end, int reps, int parent, std::uint64_t request,
               double count) {
  log->Add(name, start, start + (end - start) / reps, parent, request, count);
}

// Re-walks `plan` as RecommendPlan produced it, timing each step's mask
// scan and the per-candidate calls of its selection loop.
void BreakdownRollout(const model::TaskInstance& instance,
                      const mdp::RewardFunction& reward,
                      const serve::ServablePolicy& policy,
                      const rl::RecommendConfig& config,
                      const model::Plan& plan, std::uint32_t id,
                      SpanLog* log) {
  const std::size_t n = instance.catalog->size();
  const int root = log->Add("rollout.breakdown", NowNs(), 0, -1, id);
  const int horizon = Horizon(instance);
  const rl::ActionMask mask(reward, horizon, config.mask_type_overflow);
  rlplanner::util::DynamicBitset excluded(n);
  for (model::ItemId item : config.excluded) {
    excluded.Set(static_cast<std::size_t>(item));
  }
  rlplanner::util::DynamicBitset allowed(n);
  mdp::EpisodeState state(instance);
  state.Add(plan.items()[0]);
  std::vector<model::ItemId> candidates;
  const int mask_reps = std::max<int>(1, kBatchUnits / static_cast<int>(n));
  std::size_t next = 1;
  while (static_cast<int>(state.Length()) < horizon) {
    std::int64_t t0 = NowNs();
    for (int r = 0; r < mask_reps; ++r) mask.AllowedSet(state, &allowed);
    AddPerRep(log, "rl.mask", t0, NowNs(), mask_reps, root, id, 1.0);
    allowed.AndNotAssign(excluded);
    candidates.clear();
    allowed.ForEachSetBit([&](std::size_t i) {
      candidates.push_back(static_cast<model::ItemId>(i));
    });
    if (!candidates.empty()) {
      const model::ItemId current = state.CurrentItem();
      const double count = static_cast<double>(candidates.size());
      const int reps = std::max<int>(
          1, kBatchUnits / static_cast<int>(candidates.size()));
      double acc = 0.0;
      t0 = NowNs();
      for (int r = 0; r < reps; ++r) {
        for (model::ItemId item : candidates) acc += reward.Theta(state, item);
      }
      AddPerRep(log, "mdp.theta", t0, NowNs(), reps, root, id, count);
      t0 = NowNs();
      for (int r = 0; r < reps; ++r) {
        for (model::ItemId item : candidates) acc += reward.Reward(state, item);
      }
      AddPerRep(log, "mdp.reward", t0, NowNs(), reps, root, id, count);
      t0 = NowNs();
      policy.VisitQ([&](const auto& q) {
        for (int r = 0; r < reps; ++r) {
          for (model::ItemId item : candidates) acc += q.Get(current, item);
        }
      });
      AddPerRep(log, "mdp.q_get", t0, NowNs(), reps, root, id, count);
      g_sink = g_sink + acc;
    }
    // The rollout stops where no candidate is admissible.
    if (next >= plan.size()) break;
    state.Add(plan.items()[next++]);
  }
  log->spans()[static_cast<std::size_t>(root)].end_ns = NowNs();
}

// The instance and reward function a request is planned against, built as
// PlanService::Execute builds them: the target's, or for an ideal-topics
// override a copy with the request's soft constraints and a request-local
// reward function. Not copyable: the local reward refers to the local
// instance.
class RequestContext {
 public:
  RequestContext(const ReplayTarget& target, const serve::PlanRequest& request)
      : instance_(target.instance), reward_(target.reward) {
    if (!request.ideal_topics.has_value()) return;
    auto ideal = instance_->catalog->MakeTopicVector(*request.ideal_topics);
    if (!ideal.ok()) Die("replay: " + ideal.status().ToString());
    local_ = *target.instance;
    local_->soft.ideal_topics = std::move(ideal).value();
    local_reward_.emplace(*local_, *target.weights);
    instance_ = &*local_;
    reward_ = &*local_reward_;
  }
  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;

  const model::TaskInstance& instance() const { return *instance_; }
  const mdp::RewardFunction& reward() const { return *reward_; }

 private:
  std::optional<model::TaskInstance> local_;
  std::optional<mdp::RewardFunction> local_reward_;
  const model::TaskInstance* instance_;
  const mdp::RewardFunction* reward_;
};

}  // namespace

void ReplayRequests(const ReplayTarget& target,
                    const std::vector<std::uint32_t>& requests, SpanLog* log) {
  // What the breakdown pass needs of a replayed request.
  struct Replayed {
    std::uint32_t id;
    serve::PlanRequest request;
    std::shared_ptr<const serve::ServablePolicy> policy;
    rl::RecommendConfig config;
    model::Plan plan;
  };
  std::vector<Replayed> replayed;
  replayed.reserve(requests.size());

  // Every replay first, back to back as a plan worker serves requests, then
  // every breakdown: with the two interleaved, the replayed rollouts at 114
  // items read slower than the served exec intervals that contain them.
  const std::vector<BenchRequest>& all = target.mix->requests();
  for (std::uint32_t id : requests) {
    const BenchRequest& bench = all[id];
    const std::int64_t begin = NowNs();
    const int root = log->Add("replay", begin, begin, -1, id);

    auto document = rlplanner::util::json::Parse(bench.body);
    if (!document.ok()) Die("replay decode: " + document.status().ToString());
    auto decoded = rlplanner::net::PlanRequestFromJson(document.value());
    if (!decoded.ok()) Die("replay decode: " + decoded.status().ToString());
    const serve::PlanRequest& request = decoded.value();
    const std::int64_t decoded_at = NowNs();
    log->Add("net.decode", begin, decoded_at, root, id);

    const std::shared_ptr<const serve::ServablePolicy> policy =
        target.registry->Route(request.policy_name, std::uint64_t{id} + 1);
    const std::int64_t routed_at = NowNs();
    log->Add("serve.route", decoded_at, routed_at, root, id);
    if (policy == nullptr) Die("replay: no policy for " + request.policy_name);

    const RequestContext context(target, request);
    const std::int64_t built_at = NowNs();
    if (request.ideal_topics.has_value()) {
      log->Add("mdp.reward_build", routed_at, built_at, root, id);
    }

    rl::RecommendConfig config;
    config.start_item = request.start_item;
    config.excluded = request.excluded;
    config.gamma = policy->provenance.gamma;
    config.mask_type_overflow = policy->provenance.mask_type_overflow;
    const model::Plan plan = policy->VisitQ([&](const auto& q) {
      return rl::RecommendPlan(q, context.instance(), context.reward(),
                               config);
    });
    const std::int64_t planned_at = NowNs();
    log->Add("rl.rollout", built_at, planned_at, root, id);
    if (plan.empty()) Die("replay: empty plan");

    serve::PlanResponse response;
    response.plan = plan;
    response.policy_version = policy->version;
    response.score = rlplanner::core::ScorePlan(context.instance(), plan);
    rlplanner::core::ValidationReport report =
        rlplanner::core::ValidatePlan(context.instance(), plan);
    response.valid = report.valid;
    response.violations = std::move(report.violations);
    const std::int64_t checked_at = NowNs();
    log->Add("core.check", planned_at, checked_at, root, id);

    const std::string body = rlplanner::net::PlanResponseToJson(response);
    const std::int64_t encoded_at = NowNs();
    log->Add("net.encode", checked_at, encoded_at, root, id);
    log->spans()[static_cast<std::size_t>(root)].end_ns = encoded_at;
    g_sink = g_sink + static_cast<double>(body.size());
    replayed.push_back({id, request, policy, config, plan});
  }

  for (const Replayed& r : replayed) {
    const RequestContext context(target, r.request);
    BreakdownRollout(context.instance(), context.reward(), *r.policy, r.config,
                     r.plan, r.id, log);
  }
}

double MeasureRouteNs(const serve::PolicyRegistry& registry,
                      const std::vector<std::string>& slots) {
  constexpr int kCalls = 200000;
  std::uint64_t versions = 0;
  const std::int64_t begin = NowNs();
  for (int i = 0; i < kCalls; ++i) {
    const auto policy = registry.Route(
        slots[static_cast<std::size_t>(i) % slots.size()],
        static_cast<std::uint64_t>(i) + 1);
    versions += policy != nullptr ? policy->version : 0;
  }
  const std::int64_t end = NowNs();
  g_sink = g_sink + static_cast<double>(versions);
  return static_cast<double>(end - begin) / kCalls;
}

void ReplayFleet(const model::TaskInstance& instance,
                 const mdp::RewardFunction& reward,
                 const serve::PolicyRegistry& registry,
                 const rlplanner::fleet::FleetConfig& config,
                 const rlplanner::fleet::ProbeSet& probes,
                 const std::vector<FleetSlot>& slots, SpanLog* log) {
  const std::size_t n = instance.catalog->size();
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const rlplanner::fleet::PolicySpec& spec = slots[s].spec;
    const auto incumbent = registry.Current(spec.slot);
    if (incumbent == nullptr || !incumbent->dense.has_value()) {
      Die("fleet replay: slot " + spec.slot + " has no dense incumbent");
    }
    rlplanner::adaptive::FeedbackModel feedback(n, spec.feedback_smoothing);
    for (const auto& event : slots[s].feedback) (void)feedback.Apply(event);
    // The seed the orchestrator derives for the slot's next generation.
    const std::uint64_t seed =
        spec.seed + 0x9e3779b97f4a7c15ull * slots[s].generation;

    const std::int64_t begin = NowNs();
    const int root = log->Add("fleet.replay", begin, begin, -1, s);
    mdp::QTable shaped = rlplanner::adaptive::FoldFeedback(
        *incumbent->dense, feedback, spec.feedback_strength);
    rl::SarsaLearner learner(instance, reward, spec.sarsa, seed);
    mdp::QTable table = learner.LearnFrom(std::move(shaped));
    const std::int64_t learned_at = NowNs();
    log->Add("fleet.learn", begin, learned_at, root, s);

    serve::PolicySnapshot snapshot;
    snapshot.catalog_fingerprint = registry.catalog_fingerprint();
    snapshot.provenance = spec.sarsa;
    snapshot.seed = seed;
    snapshot.table = std::move(table);
    const std::string bytes = snapshot.Serialize();
    auto parsed = serve::PolicySnapshot::Deserialize(bytes);
    const std::int64_t snapshotted_at = NowNs();
    log->Add("fleet.snapshot", learned_at, snapshotted_at, root, s);
    if (!parsed.ok()) Die("fleet replay: " + parsed.status().ToString());

    rlplanner::fleet::GateConfig gate_config;
    gate_config.reward_band = config.reward_band;
    const rlplanner::fleet::GateReport gate = rlplanner::fleet::EvaluateGate(
        instance, reward, parsed.value().table, parsed.value().provenance,
        incumbent.get(), probes, gate_config);
    const std::int64_t gated_at = NowNs();
    log->Add("fleet.gate", snapshotted_at, gated_at, root, s);
    g_sink = g_sink + gate.candidate_mean_score;

    serve::PolicyRegistry scratch(registry.catalog_fingerprint(), n);
    if (!scratch.Install(spec.slot, *incumbent->dense, spec.sarsa, spec.seed)
             .ok()) {
      Die("fleet replay: scratch install failed");
    }
    const std::int64_t publish_begin = NowNs();
    auto staged = scratch.InstallCanarySnapshot(spec.slot, parsed.value(),
                                                config.canary_permille);
    const auto promoted = scratch.PromoteCanary(spec.slot);
    const std::int64_t published_at = NowNs();
    if (!staged.ok() || !promoted.ok()) Die("fleet replay: publish failed");
    log->Add("fleet.publish", publish_begin, published_at, root, s);
    log->spans()[static_cast<std::size_t>(root)].end_ns = published_at;
  }
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (std::isinf(values[lo]) || (frac > 0.0 && std::isinf(values[hi]))) {
    return std::numeric_limits<double>::infinity();
  }
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<std::uint32_t> MedianBand(const std::vector<WireSample>& samples) {
  std::vector<double> latencies;
  for (const WireSample& s : samples) latencies.push_back(s.latency_ms);
  const double lo = Percentile(latencies, 0.4);
  const double hi = Percentile(latencies, 0.6);
  std::vector<std::uint32_t> band;
  for (const WireSample& s : samples) {
    if (s.ok && s.latency_ms >= lo && s.latency_ms <= hi) {
      band.push_back(s.request);
    }
  }
  return band;
}

namespace {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// Per-root view of a span log: for every root span named `root_name`, the
// summed durations of its direct children by name, and their counts.
struct RootSums {
  double ms = 0.0;       // the root's own duration
  double self_ms = 0.0;  // the root's self time
  std::map<std::string, double> child_ms;
  std::map<std::string, double> child_count;
  std::map<std::string, std::size_t> child_spans;
};

std::vector<RootSums> SumsByRoot(const SpanLog& log, const char* root_name) {
  const std::vector<Span>& spans = log.spans();
  const std::vector<double> self = log.SelfMs();
  std::vector<int> slot(spans.size(), -1);
  std::vector<RootSums> roots;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.parent < 0) {
      if (std::string(span.name) != root_name) continue;
      slot[i] = static_cast<int>(roots.size());
      roots.push_back(RootSums{span.ms(), self[i], {}, {}, {}});
    } else if (slot[static_cast<std::size_t>(span.parent)] >= 0) {
      RootSums& root = roots[static_cast<std::size_t>(
          slot[static_cast<std::size_t>(span.parent)])];
      root.child_ms[span.name] += span.ms();
      root.child_count[span.name] += span.count;
      ++root.child_spans[span.name];
    }
  }
  return roots;
}

// Durations of every span named `name` (ms), optionally per unit of count.
std::vector<double> Durations(const SpanLog& log, const char* name,
                              bool per_unit) {
  std::vector<double> out;
  for (const Span& span : log.spans()) {
    if (std::string(span.name) != name) continue;
    out.push_back(per_unit && span.count > 0 ? span.ms() / span.count
                                             : span.ms());
  }
  return out;
}

double Get(const std::map<std::string, double>& m, const char* key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

}  // namespace

WireBudget ComputeWireBudget(const std::vector<WireSample>& samples,
                             const SpanLog& spans) {
  WireBudget b;
  std::vector<double> latencies;
  for (const WireSample& s : samples) latencies.push_back(s.latency_ms);
  b.p50_ms = Percentile(latencies, 0.5);
  const double band_lo = Percentile(latencies, 0.4);
  const double band_hi = Percentile(latencies, 0.6);

  // Wire spans: self time is the client latency minus the server-reported
  // queue and exec intervals.
  std::vector<double> wire_self, queue, exec, band_wire, band_queue, band_exec;
  for (const RootSums& r : SumsByRoot(spans, "wire")) {
    if (r.child_spans.count("serve.exec") == 0) continue;  // failed request
    wire_self.push_back(r.self_ms);
    queue.push_back(Get(r.child_ms, "serve.queue"));
    exec.push_back(Get(r.child_ms, "serve.exec"));
    if (r.ms >= band_lo && r.ms <= band_hi) {
      band_wire.push_back(wire_self.back());
      band_queue.push_back(queue.back());
      band_exec.push_back(exec.back());
    }
  }
  b.wire_ms = Median(wire_self);
  b.queue_ms = Median(queue);
  b.exec_ms = Median(exec);
  b.exec_p90_ms = Percentile(exec, 0.9);

  // Replay and breakdown roots alternate, one pair per replayed request.
  struct Replayed {
    double total = 0, decode = 0, route = 0, build = 0, rollout = 0,
           check = 0, encode = 0, mask = 0, theta = 0, reward = 0, q_get = 0;
  };
  const std::vector<RootSums> replays = SumsByRoot(spans, "replay");
  const std::vector<RootSums> breakdowns =
      SumsByRoot(spans, "rollout.breakdown");
  std::vector<Replayed> replayed;
  std::vector<double> decode, encode, check, rollout, totals;
  double steps = 0.0, admissible = 0.0;
  for (std::size_t i = 0; i < replays.size() && i < breakdowns.size(); ++i) {
    const RootSums& r = replays[i];
    const RootSums& k = breakdowns[i];
    Replayed p;
    p.total = r.ms;
    p.decode = Get(r.child_ms, "net.decode");
    p.route = Get(r.child_ms, "serve.route");
    p.build = Get(r.child_ms, "mdp.reward_build");  // 0 without an override
    p.rollout = Get(r.child_ms, "rl.rollout");
    p.check = Get(r.child_ms, "core.check");
    p.encode = Get(r.child_ms, "net.encode");
    p.mask = Get(k.child_ms, "rl.mask");
    p.theta = Get(k.child_ms, "mdp.theta");
    p.reward = Get(k.child_ms, "mdp.reward");
    p.q_get = Get(k.child_ms, "mdp.q_get");
    const auto it = k.child_spans.find("rl.mask");
    steps += it == k.child_spans.end() ? 0.0 : static_cast<double>(it->second);
    admissible += Get(k.child_count, "mdp.theta");
    decode.push_back(p.decode);
    encode.push_back(p.encode);
    check.push_back(p.check);
    rollout.push_back(p.rollout);
    totals.push_back(p.total);
    replayed.push_back(p);
  }
  b.decode_us = Median(decode) * 1e3;
  b.encode_us = Median(encode) * 1e3;
  b.check_us = Median(check) * 1e3;
  b.rollout_ms = Median(rollout);
  const double plans = static_cast<double>(replayed.size());
  b.steps_per_plan = plans > 0 ? steps / plans : 0.0;
  b.admissible_per_step = steps > 0 ? admissible / steps : 0.0;
  b.mask_us_per_step = Median(Durations(spans, "rl.mask", false)) * 1e3;
  b.theta_ns = Median(Durations(spans, "mdp.theta", true)) * 1e6;
  b.reward_ns = Median(Durations(spans, "mdp.reward", true)) * 1e6;
  b.q_get_ns = Median(Durations(spans, "mdp.q_get", true)) * 1e6;

  // Budget parts are means over the replays whose total lies between the
  // 10th and 90th percentile, so a replay the hypervisor preempted does not
  // skew the split; means keep the parts additive.
  const double lo = Percentile(totals, 0.1), hi = Percentile(totals, 0.9);
  Replayed m;
  double kept = 0.0;
  for (const Replayed& p : replayed) {
    if (p.total < lo || p.total > hi) continue;
    kept += 1.0;
    m.decode += p.decode;
    m.route += p.route;
    m.build += p.build;
    m.rollout += p.rollout;
    m.check += p.check;
    m.encode += p.encode;
    m.mask += p.mask;
    m.theta += p.theta;
    m.reward += p.reward;
    m.q_get += p.q_get;
  }
  if (kept > 0) {
    for (double* v : {&m.decode, &m.route, &m.build, &m.rollout, &m.check,
                      &m.encode, &m.mask, &m.theta, &m.reward, &m.q_get}) {
      *v /= kept;
    }
  }
  const double reconstructed = m.mask + m.theta + m.reward + m.q_get;
  b.rollout_unattributed_share =
      m.rollout > 0 ? 1.0 - reconstructed / m.rollout : 0.0;

  const std::size_t wire_n = wire_self.size();
  const auto replay_n = static_cast<std::size_t>(kept);
  const auto step_n = static_cast<std::size_t>(steps);
  const double wire_b = Mean(band_wire), queue_b = Mean(band_queue),
               exec_b = Mean(band_exec);
  b.parts = {
      {"net", "transport", wire_b - m.decode - m.encode, wire_n},
      {"net", "decode", m.decode, replay_n},
      {"net", "encode", m.encode, replay_n},
      {"serve", "queue", queue_b, wire_n},
      {"serve", "route", m.route, replay_n},
      {"rl", "mask", m.mask, step_n},
      {"mdp", "theta", m.theta, step_n},
      {"mdp", "reward", m.reward, step_n},
      {"mdp", "q_get", m.q_get, step_n},
      {"mdp", "reward_build", m.build,
       Durations(spans, "mdp.reward_build", false).size()},
      {"core", "check", m.check, replay_n},
      {kUnattributed, "exec_minus_replay",
       exec_b - m.route - m.build - m.rollout - m.check, wire_n},
      {kUnattributed, "rollout_minus_breakdown", m.rollout - reconstructed,
       replay_n},
      {kUnattributed, "p50_minus_band_mean",
       b.p50_ms - wire_b - queue_b - exec_b, band_wire.size()},
  };
  double unattributed = 0.0;
  for (const BudgetPart& part : b.parts) {
    if (part.layer == kUnattributed) unattributed += std::abs(part.ms);
  }
  b.unattributed_share = b.p50_ms > 0 ? unattributed / b.p50_ms : 0.0;
  return b;
}

FleetBudget ComputeFleetBudget(const SpanLog& spans, std::size_t threads) {
  FleetBudget b;
  std::vector<double> ticks, due;
  for (const Span& span : spans.spans()) {
    if (span.parent < 0 && std::string(span.name) == "fleet.tick" &&
        span.count > 0) {
      ticks.push_back(span.ms());
      due.push_back(span.count);
    }
  }
  b.tick_ms = Median(ticks);
  const double slots = std::round(Median(due));
  const std::vector<double> learn = Durations(spans, "fleet.learn", false);
  const std::vector<double> gate = Durations(spans, "fleet.gate", false);
  const std::vector<double> snapshot =
      Durations(spans, "fleet.snapshot", false);
  const std::vector<double> publish = Durations(spans, "fleet.publish", false);
  b.learn_ms = Median(learn);
  b.gate_ms = Median(gate);
  b.snapshot_ms = Median(snapshot);
  b.publish_us = Median(publish) * 1e3;

  // Learns run in parallel across the training threads; the rest of the
  // publish pipeline runs serially per slot.
  const double waves = std::ceil(slots / static_cast<double>(threads));
  const double learn_wall = Mean(learn) * waves;
  b.parts = {
      {"fleet", "learn_parallel", learn_wall, learn.size()},
      {"fleet", "snapshot", slots * Mean(snapshot), snapshot.size()},
      {"fleet", "gate", slots * Mean(gate), gate.size()},
      {"fleet", "publish", slots * Mean(publish), publish.size()},
  };
  double attributed = 0.0;
  for (const BudgetPart& part : b.parts) attributed += part.ms;
  b.parts.push_back(
      {kUnattributed, "tick_remainder", b.tick_ms - attributed, ticks.size()});
  b.unattributed_share =
      b.tick_ms > 0 ? (b.tick_ms - attributed) / b.tick_ms : 0.0;
  return b;
}

void PrintBudget(const char* title, double total_ms,
                 const std::vector<BudgetPart>& parts) {
  std::printf("%s: %.6f ms\n", title, total_ms);
  std::map<std::string, double> layer_ms;
  std::vector<std::string> order;
  double sum = 0.0;
  for (const BudgetPart& part : parts) {
    if (layer_ms.count(part.layer) == 0) order.push_back(part.layer);
    layer_ms[part.layer] += part.ms;
    sum += part.ms;
  }
  std::printf("  %-14s %12s %8s\n", "layer", "self_ms", "share");
  for (const std::string& layer : order) {
    std::printf("  %-14s %12.6f %7.1f%%\n", layer.c_str(), layer_ms[layer],
                total_ms > 0 ? 100.0 * layer_ms[layer] / total_ms : 0.0);
  }
  std::printf("  %-14s %12.6f (sum of layers; equals the total)\n", "sum",
              sum);
  std::printf("  %-14s %-24s %12s %8s\n", "layer", "part", "ms", "spans");
  for (const BudgetPart& part : parts) {
    std::printf("  %-14s %-24s %12.6f %8zu\n", part.layer.c_str(),
                part.part.c_str(), part.ms, part.spans);
  }
}

}  // namespace perfbench
