#ifndef RLPLANNER_RL_SARSA_CONFIG_H_
#define RLPLANNER_RL_SARSA_CONFIG_H_

#include <cstddef>

#include "model/item.h"

namespace rlplanner::rl {

/// How the behavior policy picks actions during learning.
enum class ExplorationMode {
  /// Algorithm 1: greedy on the immediate Eq. 2 reward, random tie-break.
  kRewardGreedy = 0,
  /// Epsilon-greedy on the current Q values (standard SARSA exploration,
  /// used in ablations).
  kEpsilonGreedyQ = 1,
};

/// The temporal-difference target used for the Q update. The paper adapts
/// on-policy SARSA (Eq. 9, "known to converge faster and with fewer
/// errors"); the off-policy and expectation variants are provided for the
/// ablation study.
enum class UpdateRule {
  /// r + gamma * Q(s', e') — Eq. 9, on-policy.
  kSarsa = 0,
  /// r + gamma * max_e Q(s', e) over admissible actions — Q-learning.
  kQLearning = 1,
  /// r + gamma * E_pi[Q(s', e)] under the epsilon-greedy behavior policy.
  kExpectedSarsa = 2,
};

/// In-memory layout of the learned Q(s, e) table.
enum class QRepresentation {
  /// Pick by catalog size: dense up to kSparseAutoThreshold items, sparse
  /// above it (where the O(|I|^2) dense payload stops being reasonable).
  kAuto = 0,
  /// Row-major |I| x |I| mdp::QTable — fastest per access, O(|I|^2) memory.
  kDense = 1,
  /// Open-addressing mdp::SparseQTable — memory proportional to visited
  /// (state, action) pairs; the only option at 10k-100k items. Trains
  /// bit-identical to dense for every worker count (pinned by test).
  kSparse = 2,
};

/// Catalog size above which QRepresentation::kAuto selects sparse. At 2048
/// items the dense table is 2048^2 * 8 B = 32 MiB per table — the
/// sharded learner holds K + 2 copies, so this is roughly
/// where dense stops being free and the visited set is reliably a small
/// fraction of |I|^2.
inline constexpr std::size_t kSparseAutoThreshold = 2048;

/// Resolves `repr` to a concrete representation for a `num_items` catalog.
inline QRepresentation ResolveQRepresentation(QRepresentation repr,
                                              std::size_t num_items) {
  if (repr != QRepresentation::kAuto) return repr;
  return num_items > kSparseAutoThreshold ? QRepresentation::kSparse
                                          : QRepresentation::kDense;
}

/// Learning-phase parameters (the first block of Table III).
struct SarsaConfig {
  /// Number of episodes N.
  int num_episodes = 500;
  /// Learning rate alpha.
  double alpha = 0.75;
  /// Discount factor gamma.
  double gamma = 0.95;
  /// Behavior policy.
  ExplorationMode exploration = ExplorationMode::kRewardGreedy;
  /// Temporal-difference target (Eq. 9 by default).
  UpdateRule update_rule = UpdateRule::kSarsa;
  /// Exploration rate: probability of a uniformly random admissible action
  /// per step (applies to both behavior policies).
  double explore_epsilon = 0.1;
  /// Fixed starting item s_1; -1 picks a random primary item per episode.
  model::ItemId start_item = -1;
  /// One-step-lookahead masking of actions that make the hard split
  /// unsatisfiable (see ActionMask).
  bool mask_type_overflow = true;
  /// Policy-iteration rounds (Section III-C frames the learner as policy
  /// iteration "repeated iteratively until the policy converges"): the
  /// episode budget is split into this many rounds; after each round the
  /// greedy policy is rolled out, and if the rollout violates a hard
  /// constraint the Q-table is decayed by `restart_decay` (breaking a
  /// locked-in tie-order) and exploration temporarily widens. 1 disables
  /// the check and reproduces plain SARSA over all N episodes.
  int policy_rounds = 5;
  /// Q decay applied when a round's rollout is constraint-violating.
  double restart_decay = 0.25;
  /// Episode workers K (ParallelSarsaLearner): 1 runs the serial learner,
  /// K > 1 shards each round over K workers. K is a *logical* shard count:
  /// the learned table depends on (seed, K) only, never on how many
  /// physical threads execute the shards.
  int num_workers = 1;
  /// Q-table layout; kAuto resolves by catalog size (see
  /// ResolveQRepresentation).
  QRepresentation q_representation = QRepresentation::kAuto;
};

}  // namespace rlplanner::rl

#endif  // RLPLANNER_RL_SARSA_CONFIG_H_
