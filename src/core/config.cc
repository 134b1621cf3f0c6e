#include "core/config.h"

namespace rlplanner::core {

util::Status PlannerConfig::Validate() const {
  if (sarsa.num_episodes <= 0) {
    return util::Status::InvalidArgument("num_episodes must be positive");
  }
  if (sarsa.alpha <= 0.0 || sarsa.alpha > 1.0) {
    return util::Status::InvalidArgument("alpha must be in (0, 1]");
  }
  if (sarsa.gamma < 0.0 || sarsa.gamma > 1.0) {
    return util::Status::InvalidArgument("gamma must be in [0, 1]");
  }
  if (sarsa.explore_epsilon < 0.0 || sarsa.explore_epsilon > 1.0) {
    return util::Status::InvalidArgument("explore_epsilon must be in [0, 1]");
  }
  if (sarsa.num_workers < 1) {
    return util::Status::InvalidArgument("num_workers must be >= 1");
  }
  return reward.Validate();
}

PlannerConfig DefaultUniv1Config() {
  PlannerConfig config;
  config.sarsa.num_episodes = 500;
  config.sarsa.alpha = 0.75;
  config.sarsa.gamma = 0.95;
  config.reward.epsilon = 0.0025;
  config.reward.delta = 0.6;
  config.reward.beta = 0.4;
  config.reward.category_weights = {0.6, 0.4};
  return config;
}

PlannerConfig DefaultUniv2Config() {
  PlannerConfig config;
  config.sarsa.num_episodes = 100;
  config.sarsa.alpha = 0.75;
  config.sarsa.gamma = 0.95;
  config.reward.epsilon = 0.0025;
  config.reward.delta = 0.8;
  config.reward.beta = 0.2;
  config.reward.category_weights = {0.25, 0.01, 0.15, 0.42, 0.01, 0.16};
  return config;
}

PlannerConfig DefaultTripConfig() {
  PlannerConfig config;
  config.sarsa.num_episodes = 500;
  config.sarsa.alpha = 0.75;
  config.sarsa.gamma = 0.95;
  config.reward.epsilon = 0.0025;
  config.reward.delta = 0.6;
  config.reward.beta = 0.4;
  config.reward.category_weights = {0.6, 0.4};
  return config;
}

}  // namespace rlplanner::core
