// The verification set: fixed requests, run outside the timed window,
// whose served plans are compared with an in-process rl::RecommendPlan of
// the same policy. Its validity and scores are the quality metrics.
#ifndef PERFBENCH_VERIFY_H_
#define PERFBENCH_VERIFY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "deploy.h"
#include "mdp/reward.h"
#include "workload.h"

namespace perfbench {

/// Outcome of one verification pass.
struct Verification {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t valid = 0;
  double score_sum = 0.0;
  std::vector<std::vector<ItemId>> plans;
  std::vector<std::string> errors;

  void Fail(const std::string& error) {
    ++failed;
    if (errors.size() < 8) errors.push_back(error);
  }
  double ValidShare() const {
    return attempted > 0 ? static_cast<double>(valid) / attempted : 0.0;
  }
  double ScoreMean() const {
    return attempted > 0 ? score_sum / static_cast<double>(attempted) : 0.0;
  }
};

/// Reward functions for a mix's ideal-topics profiles, built once.
class RewardCache {
 public:
  RewardCache(const RequestMix& mix, const Deployment& d);
  const rlplanner::mdp::RewardFunction& For(const BenchRequest& request) const;
  const rlplanner::mdp::RewardFunction& base() const { return *base_; }

 private:
  std::unique_ptr<rlplanner::mdp::RewardFunction> base_;
  std::vector<std::unique_ptr<rlplanner::mdp::RewardFunction>> profiles_;
};

/// Wire workloads: the set goes over the socket to the "default" slot.
Verification VerifyOverWire(const Deployment& d, std::size_t count);

/// fleet_live: wire requests cannot pin a canary route key, so after the
/// last tick the set runs through PlanService::Execute against each slot's
/// incumbent, with a route key that lands outside any canary split.
Verification VerifyFleetIncumbents(const Deployment& d, std::size_t count);

}  // namespace perfbench

#endif  // PERFBENCH_VERIFY_H_
