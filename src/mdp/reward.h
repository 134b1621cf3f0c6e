#ifndef RLPLANNER_MDP_REWARD_H_
#define RLPLANNER_MDP_REWARD_H_

#include <cstdint>
#include <memory>
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
/// The function has two parts:
/// - a catalog index, built in one pass over the catalog: the reward
///   classes, the no-prerequisite set and the antecedent -> dependents lists
///   that rl::StepRanker updates incrementally, the trip theme sets, the
///   partitions rl::ActionMask reads and the trip distance matrix. It
///   depends only on the catalog, the hard constraints and the weights, so
///   it is immutable and shared (`std::shared_ptr<const>`) by every
///   function built from it;
/// - the two T_ideal sets incremental theta starts from: each item's
///   ideal-topic count and the empty episode's r1 set.
/// A per-user T_ideal (PlanService's `ideal_topics`) builds only the second
/// part on top of the served function's index.
///
/// The function is read-only after construction, so any number of rankers,
/// masks and threads may share it and its index without locks. Mutate the
/// instance or the weights only before building the function, never after.
class RewardFunction {
 public:
  /// Builds the catalog index, then the T_ideal sets. Neither argument is
  /// copied; both must outlive the function.
  RewardFunction(const model::TaskInstance& instance,
                 const RewardWeights& weights);

  /// Shares `base`'s catalog index and weights and builds only the T_ideal
  /// sets, from `instance.soft.ideal_topics`: one walk of T_ideal's topic
  /// postings, then one pass over the counts.
  ///
  /// Precondition (asserted): `instance` has `base`'s catalog, hard
  /// constraints and interleaving template; only `soft.ideal_topics` may
  /// differ. `instance` and `base`'s weights must outlive the function;
  /// `base` itself need not, as the index is shared.
  RewardFunction(const model::TaskInstance& instance,
                 const RewardFunction& base);

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
  std::size_t num_reward_classes() const { return index_->classes.size(); }
  std::size_t RewardClassOf(model::ItemId item) const {
    return index_->class_of_item[static_cast<std::size_t>(item)];
  }
  /// The items of reward class `c` (a partition of the catalog).
  const util::DynamicBitset& RewardClassItems(std::size_t c) const {
    return index_->classes[c].items;
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
    const std::vector<double>& matrix = index_->distance_matrix;
    if (!matrix.empty()) {
      return matrix[static_cast<std::size_t>(a) * num_items_ +
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
    return index_->no_prerequisite;
  }
  /// - The items whose prerequisite groups name `antecedent`, ascending
  ///   (an item naming it in two groups appears twice). Out-of-range group
  ///   members name nobody.
  std::span<const model::ItemId> DependentsOf(model::ItemId antecedent) const {
    const auto a = static_cast<std::size_t>(antecedent);
    const model::ItemId* dependents = index_->dependents.data();
    return {dependents + index_->dependent_offsets[a],
            dependents + index_->dependent_offsets[a + 1]};
  }
  /// - The items of trip theme `theme` when the no-consecutive-theme rule
  ///   is on; null when the rule is off or `theme` is outside [0, the
  ///   highest theme of any item].
  const util::DynamicBitset* ItemsOfTheme(int theme) const {
    const std::vector<util::DynamicBitset>& themes = index_->items_of_theme;
    const auto t = static_cast<std::size_t>(theme);
    return theme >= 0 && t < themes.size() ? &themes[t] : nullptr;
  }

  /// Catalog partitions for rl::ActionMask's lookahead, built here once
  /// rather than per mask:
  /// - the primary item ids, ascending;
  const std::vector<model::ItemId>& PrimaryItems() const {
    return index_->primary_items;
  }
  /// - the items of each type;
  const util::DynamicBitset& ItemsOfType(model::ItemType type) const {
    return index_->items_of_type[type == model::ItemType::kPrimary ? 0 : 1];
  }
  /// - the items of each category-minimum bucket: bucket c below
  ///   `hard.category_min_counts.size()` holds category c, and the last
  ///   bucket every category without a minimum.
  const util::DynamicBitset& ItemsOfMinimumBucket(std::size_t bucket) const {
    return index_->items_of_minimum_bucket[bucket];
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

  // The catalog index (see the class comment).
  struct CatalogIndex {
    // Reward class of each item, and the classes themselves.
    std::vector<std::uint32_t> class_of_item;
    std::vector<RewardClass> classes;
    // The empty episode's r2 set and the r2 re-check lists (see
    // NoPrerequisiteItems). The dependents of item a are
    // dependents[dependent_offsets[a] .. dependent_offsets[a + 1]).
    util::DynamicBitset no_prerequisite;
    std::vector<std::uint32_t> dependent_offsets;
    std::vector<model::ItemId> dependents;
    std::vector<util::DynamicBitset> items_of_theme;
    // The action mask's partitions (see PrimaryItems).
    std::vector<model::ItemId> primary_items;
    util::DynamicBitset items_of_type[2];
    std::vector<util::DynamicBitset> items_of_minimum_bucket;
    // Row-major pairwise haversine matrix (trip domain, up to 1024 items).
    std::vector<double> distance_matrix;
  };

  std::shared_ptr<const CatalogIndex> BuildIndex() const;
  void BuildIdealTopicSets();
  double ComputeDistanceKm(model::ItemId a, model::ItemId b) const;
  std::size_t ComputeRequiredNewIdealTopics() const;
  double TypeSimilarity(const EpisodeState& state,
                        model::ItemType type) const;

  const model::TaskInstance* instance_;
  const RewardWeights* weights_;
  std::size_t num_items_ = 0;
  std::size_t required_new_topics_ = 0;
  std::shared_ptr<const CatalogIndex> index_;
  // The T_ideal sets (see IdealTopicCounts).
  std::vector<std::uint32_t> ideal_topic_counts_;
  util::DynamicBitset initial_coverage_;
};

}  // namespace rlplanner::mdp

#endif  // RLPLANNER_MDP_REWARD_H_
