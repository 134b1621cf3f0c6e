#include "verify.h"

#include "net/client.h"
#include "net/plan_handler.h"
#include "rl/recommender.h"
#include "serve/policy_registry.h"

namespace perfbench {

namespace mdp = rlplanner::mdp;
namespace model = rlplanner::model;
namespace serve = rlplanner::serve;

namespace {

constexpr std::uint64_t kVerifySeed = 0x5eed0001;

model::Plan InProcessPlan(const serve::ServablePolicy& policy,
                          const RequestMix& mix, const RewardCache& rewards,
                          const BenchRequest& request) {
  rlplanner::rl::RecommendConfig config;
  config.start_item = request.start;
  config.excluded = request.excluded;
  config.gamma = policy.provenance.gamma;
  config.mask_type_overflow = policy.provenance.mask_type_overflow;
  return policy.VisitQ([&](const auto& q) {
    return rlplanner::rl::RecommendPlan(q, mix.InstanceFor(request),
                                        rewards.For(request), config);
  });
}

void Tally(Verification* v, const ServedPlan& served, const model::Plan& local,
           const std::string& check_error) {
  ++v->attempted;
  if (!check_error.empty()) {
    v->Fail(check_error);
    return;
  }
  if (served.items != local.items()) {
    v->Fail("served plan differs from the in-process RecommendPlan");
    return;
  }
  v->plans.push_back(served.items);
  if (served.valid) {
    ++v->valid;
    v->score_sum += served.score;
  }
}

}  // namespace

RewardCache::RewardCache(const RequestMix& mix, const Deployment& d) {
  base_ = std::make_unique<mdp::RewardFunction>(d.instance, d.config.reward);
  for (int p = 0; p < kProfiles; ++p) {
    BenchRequest probe;
    probe.profile = p;
    profiles_.push_back(std::make_unique<mdp::RewardFunction>(
        mix.InstanceFor(probe), d.config.reward));
  }
}

const mdp::RewardFunction& RewardCache::For(
    const BenchRequest& request) const {
  return request.profile < 0
             ? *base_
             : *profiles_[static_cast<std::size_t>(request.profile)];
}

Verification VerifyOverWire(const Deployment& d, std::size_t count) {
  Verification v;
  const RequestMix mix(d.instance, {"default"}, kVerifySeed, count);
  const RewardCache rewards(mix, d);
  const auto policy = d.registry->Current("default");
  rlplanner::net::BlockingHttpClient client;
  ServedPlan served;
  for (const BenchRequest& request : mix.requests()) {
    if (!client.connected() &&
        !client.Connect("127.0.0.1", d.stack->port()).ok()) {
      ++v.attempted;
      v.Fail("verification connect failed");
      continue;
    }
    auto response = client.Request("POST", "/v1/plan", request.body);
    const model::Plan local = InProcessPlan(*policy, mix, rewards, request);
    if (!response.ok()) {
      ++v.attempted;
      v.Fail("verification transport: " + response.status().ToString());
      client.Close();
      continue;
    }
    const CheckResult result =
        CheckResponse(mix, request, response.value().status,
                      response.value().body, Check::kPassed, &served);
    Tally(&v, served, local, result.error);
  }
  return v;
}

Verification VerifyFleetIncumbents(const Deployment& d, std::size_t count) {
  Verification v;
  const RequestMix mix(d.instance, {"default"}, kVerifySeed, count);
  const RewardCache rewards(mix, d);
  std::uint64_t incumbent_key = 1;
  while (serve::PolicyRegistry::RouteBucket(incumbent_key) <
         d.fleet_config.canary_permille) {
    ++incumbent_key;
  }
  ServedPlan served;
  for (const std::string& slot : d.slots) {
    const auto policy = d.registry->Current(slot);
    for (const BenchRequest& request : mix.requests()) {
      serve::PlanRequest plan_request;
      plan_request.policy_name = slot;
      plan_request.start_item = request.start;
      plan_request.excluded = request.excluded;
      if (request.profile >= 0) {
        plan_request.ideal_topics = mix.ProfileTopics(request.profile);
      }
      plan_request.route_key = incumbent_key;
      auto executed = d.stack->service().Execute(plan_request);
      const model::Plan local = InProcessPlan(*policy, mix, rewards, request);
      if (!executed.ok()) {
        ++v.attempted;
        v.Fail("verification execute: " + executed.status().ToString());
        continue;
      }
      if (executed.value().policy_version != policy->version) {
        ++v.attempted;
        v.Fail("verification routed away from the incumbent");
        continue;
      }
      const CheckResult result = CheckResponse(
          mix, request, 200,
          rlplanner::net::PlanResponseToJson(executed.value()),
          Check::kPassed, &served);
      Tally(&v, served, local, result.error);
    }
  }
  return v;
}

}  // namespace perfbench
