#ifndef RLPLANNER_MDP_REWARD_H_
#define RLPLANNER_MDP_REWARD_H_

#include <cstdint>
#include <span>
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
/// rl::StepRanker, not Reward() per item.
///
/// Construction makes one pass over the catalog and builds every per-item
/// index the traversals need: the reward classes, the empty-episode theta
/// sets and the antecedent -> dependents lists that rl::StepRanker updates
/// incrementally, and the partitions rl::ActionMask reads. The function is
/// read-only afterwards, so any number of rankers and masks may share it.
/// Mutate the instance or the weights only before building the function,
/// never after.
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

  /// Incremental theta's starting point, the empty episode. Eq. 3 and 4
  /// are monotone within an episode: an item's count of uncovered ideal
  /// topics only falls as coverage grows, and its prerequisite gap only
  /// turns from unmet to met as antecedents age. rl::StepRanker copies
  /// these and updates them per action.
  /// - Each item's number of ideal topics, |T^m ∩ T^ideal|.
  const std::vector<std::uint32_t>& IdealTopicCounts() const {
    return ideal_topic_counts_;
  }
  /// - r1 of the empty episode: the items whose count reaches
  ///   RequiredNewIdealTopics().
  const util::DynamicBitset& InitialCoverageItems() const {
    return initial_coverage_;
  }
  /// - The items without a prerequisite: r2 of the empty episode, before
  ///   the trip theme rule.
  const util::DynamicBitset& NoPrerequisiteItems() const {
    return no_prerequisite_;
  }
  /// - The items whose prerequisite groups name `antecedent`, ascending
  ///   (an item naming it in two groups appears twice). Out-of-range group
  ///   members name nobody.
  std::span<const model::ItemId> DependentsOf(model::ItemId antecedent) const {
    const auto a = static_cast<std::size_t>(antecedent);
    return {dependents_.data() + dependent_offsets_[a],
            dependents_.data() + dependent_offsets_[a + 1]};
  }
  /// - The items of trip theme `theme` when the no-consecutive-theme rule
  ///   is on; null when the rule is off or `theme` is outside [0, the
  ///   highest theme of any item].
  const util::DynamicBitset* ItemsOfTheme(int theme) const {
    const auto t = static_cast<std::size_t>(theme);
    return theme >= 0 && t < items_of_theme_.size() ? &items_of_theme_[t]
                                                    : nullptr;
  }

  /// Catalog partitions for rl::ActionMask's lookahead, built here once
  /// rather than per mask:
  /// - the primary item ids, ascending;
  const std::vector<model::ItemId>& PrimaryItems() const {
    return primary_items_;
  }
  /// - the items of each type;
  const util::DynamicBitset& ItemsOfType(model::ItemType type) const {
    return items_of_type_[type == model::ItemType::kPrimary ? 0 : 1];
  }
  /// - the items of each category-minimum bucket: bucket c below
  ///   `hard.category_min_counts.size()` holds category c, and the last
  ///   bucket every category without a minimum.
  const util::DynamicBitset& ItemsOfMinimumBucket(std::size_t bucket) const {
    return items_of_minimum_bucket_[bucket];
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
  // Reward class of each item, and the classes themselves.
  std::vector<std::uint32_t> class_of_item_;
  std::vector<RewardClass> classes_;
  // The empty-episode theta sets and the r2 re-check lists (see
  // IdealTopicCounts). The dependents of item a are
  // dependents_[dependent_offsets_[a] .. dependent_offsets_[a + 1]).
  std::vector<std::uint32_t> ideal_topic_counts_;
  util::DynamicBitset initial_coverage_;
  util::DynamicBitset no_prerequisite_;
  std::vector<std::uint32_t> dependent_offsets_;
  std::vector<model::ItemId> dependents_;
  std::vector<util::DynamicBitset> items_of_theme_;
  // The action mask's partitions (see PrimaryItems).
  std::vector<model::ItemId> primary_items_;
  util::DynamicBitset items_of_type_[2];
  std::vector<util::DynamicBitset> items_of_minimum_bucket_;
  // Row-major pairwise haversine matrix (trip domain, up to 1024 items).
  std::vector<double> distance_matrix_;
};

}  // namespace rlplanner::mdp

#endif  // RLPLANNER_MDP_REWARD_H_
