#ifndef RLPLANNER_MDP_REWARD_H_
#define RLPLANNER_MDP_REWARD_H_

#include <cstdint>
#include <vector>

#include "mdp/episode_state.h"
#include "mdp/similarity.h"
#include "util/bitset.h"
#include "util/status.h"

namespace rlplanner::mdp {

/// The tunable parameters of the weighted reward (Eq. 2):
///   R = theta * [delta * AggSim(s', IT) + beta * weight_{type^m}]
/// with theta = r1 * r2 and delta + beta = 1.
struct RewardWeights {
  /// Weight of the interleaving-similarity term.
  double delta = 0.8;
  /// Weight of the item-type term (delta + beta should be 1).
  double beta = 0.2;
  /// Per-category weights `w_1..w_C`, indexed by `Item::category`. The
  /// two-category default is the paper's best Univ-1 setting; Univ-2 uses
  /// six sub-discipline weights (Table III). Should sum to 1.
  std::vector<double> category_weights = {0.6, 0.4};
  /// Topic-coverage threshold `epsilon` (Eq. 3). Values >= 1 are an absolute
  /// count of newly covered ideal topics; values in (0, 1) are a fraction of
  /// the vocabulary size (the paper sweeps 0.0025..0.02 on vocabularies of
  /// 60..100 topics, i.e. ~1..2 topics).
  double epsilon = 0.0025;
  /// AvgSim (Eq. 7) vs MinSim aggregation.
  SimilarityMode similarity = SimilarityMode::kAverage;

  /// Checks the simplex conditions (delta+beta=1, weights sum to 1, all
  /// non-negative) up to a small tolerance.
  util::Status Validate() const;
};

/// The reward function `R(s_i, e_i, s_{i+1})` of Section III-B, bound to one
/// task instance. All components are exposed individually so tests can
/// exercise them; traversals read Eq. 2 per reward class through
/// rl::StepRanker (ThetaOneSubset + ClassReward), not Reward() per item.
///
/// Construction snapshots per-item caches derived from the instance and the
/// weights; mutate either only before building the function, never after.
class RewardFunction {
 public:
  /// Neither argument is copied; both must outlive the function.
  RewardFunction(const model::TaskInstance& instance,
                 const RewardWeights& weights);

  /// r1 (Eq. 3): 1 iff adding `next` increases coverage of `T^ideal` by at
  /// least the epsilon threshold.
  int TopicCoverageReward(const EpisodeState& state, model::ItemId next) const;

  /// r2 (Eq. 4): 1 iff the antecedents of `next` are present with the
  /// required gap. In the trip domain this additionally enforces the
  /// "no two consecutive POIs of the same theme" gap rule (Section IV-A1).
  int PrerequisiteReward(const EpisodeState& state, model::ItemId next) const;

  /// theta = r1 * r2 (Eq. 5).
  int Theta(const EpisodeState& state, model::ItemId next) const;

  /// The theta = 1 members of `candidates`, written to `out` (resized to
  /// the catalog): one pass over the candidate bits against the flat
  /// ideal-topic array, with the prerequisite gap and the trip theme rule
  /// checked only for items that carry them. Bit i of `out` is set iff
  /// `candidates` has it and `Theta(state, i) == 1`.
  void ThetaOneSubset(const EpisodeState& state,
                      const util::DynamicBitset& candidates,
                      util::DynamicBitset* out) const;

  /// The interleaving term: AggSim of the type sequence extended by `next`.
  double InterleavingSimilarity(const EpisodeState& state,
                                model::ItemId next) const;

  /// The type-weight term `weight_{type^m}` = category weight of `next`.
  double TypeWeight(model::ItemId next) const;

  /// Full Eq. 2 reward of taking the action that appends `next`:
  /// `ClassReward(state, RewardClassOf(next))` when theta = 1, else 0.
  double Reward(const EpisodeState& state, model::ItemId next) const;

  /// Reward classes. Beyond theta, Eq. 2 sees an item only through its
  /// type and its category weight, so the catalog splits into at most
  /// 2 x (categories + 1) classes — one per (type, category) pair present,
  /// with every category outside `category_weights` (weight 0) in one
  /// bucket per type — whose theta = 1 members all earn the same reward.
  std::size_t num_reward_classes() const { return classes_.size(); }
  std::size_t RewardClassOf(model::ItemId item) const {
    return class_of_item_[static_cast<std::size_t>(item)];
  }
  /// The items of reward class `c` (a partition of the catalog).
  const util::DynamicBitset& RewardClassItems(std::size_t c) const {
    return classes_[c].items;
  }
  /// The Eq. 2 reward every theta = 1 member of class `c` earns from
  /// `state`.
  double ClassReward(const EpisodeState& state, std::size_t c) const;

  /// True when appending `next` keeps the episode within the hard budget
  /// constraints that terminate trajectories: item not already chosen, and
  /// (trip domain) time and distance thresholds not exceeded.
  bool IsFeasible(const EpisodeState& state, model::ItemId next) const;

  /// The number of newly covered ideal topics required by epsilon for this
  /// instance's vocabulary.
  std::size_t RequiredNewIdealTopics() const { return required_new_topics_; }

  /// Haversine distance between two items' locations in km, served from the
  /// precomputed pairwise matrix when available (trip domain, catalogs up to
  /// 1024 items). Bit-identical to geo::HaversineKm on the same locations.
  double DistanceKm(model::ItemId a, model::ItemId b) const {
    if (!distance_matrix_.empty()) {
      return distance_matrix_[static_cast<std::size_t>(a) * num_items_ +
                              static_cast<std::size_t>(b)];
    }
    return ComputeDistanceKm(a, b);
  }

  const RewardWeights& weights() const { return *weights_; }
  const model::TaskInstance& instance() const { return *instance_; }

 private:
  // One reward class: its type, its category weight, and its members.
  struct RewardClass {
    model::ItemType type;
    double weight;
    util::DynamicBitset items;
  };

  double ComputeDistanceKm(model::ItemId a, model::ItemId b) const;
  std::size_t ComputeRequiredNewIdealTopics() const;
  double TypeSimilarity(const EpisodeState& state,
                        model::ItemType type) const;

  const model::TaskInstance* instance_;
  const RewardWeights* weights_;
  std::size_t num_items_ = 0;
  std::size_t required_new_topics_ = 0;
  // Row-major items x words array of each item's `topics & T_ideal`.
  std::size_t ideal_words_per_item_ = 0;
  std::vector<std::uint64_t> ideal_topic_words_;
  // Reward class of each item, and the classes themselves.
  std::vector<std::uint32_t> class_of_item_;
  std::vector<RewardClass> classes_;
  // Items whose r2 can be 0: a non-empty prerequisite expression, or a
  // theme under the trip no-consecutive-theme rule. r2 = 1 for the rest.
  util::DynamicBitset r2_may_fail_;
  // Row-major pairwise haversine matrix (trip domain, up to 1024 items).
  std::vector<double> distance_matrix_;
};

}  // namespace rlplanner::mdp

#endif  // RLPLANNER_MDP_REWARD_H_
