#include "mdp/reward.h"

#include <cassert>
#include <cmath>
#include <utility>

#include "geo/latlng.h"
#include "model/catalog.h"

namespace rlplanner::mdp {

util::Status RewardWeights::Validate() const {
  constexpr double kTolerance = 1e-9;
  if (delta < 0 || beta < 0) {
    return util::Status::InvalidArgument("delta and beta must be >= 0");
  }
  if (std::abs(delta + beta - 1.0) > kTolerance) {
    return util::Status::InvalidArgument("delta + beta must equal 1");
  }
  if (category_weights.empty()) {
    return util::Status::InvalidArgument("category_weights must be non-empty");
  }
  double sum = 0.0;
  for (double w : category_weights) {
    if (w < 0) {
      return util::Status::InvalidArgument("category weights must be >= 0");
    }
    sum += w;
  }
  if (std::abs(sum - 1.0) > 1e-6) {
    return util::Status::InvalidArgument("category weights must sum to 1");
  }
  if (epsilon < 0) {
    return util::Status::InvalidArgument("epsilon must be >= 0");
  }
  return util::Status::Ok();
}

namespace {

// Largest catalog for which the pairwise distance matrix is materialized
// (1024^2 doubles = 8 MiB); larger trip catalogs fall back to on-the-fly
// haversine.
constexpr std::size_t kMaxDistanceMatrixItems = 1024;

}  // namespace

RewardFunction::RewardFunction(const model::TaskInstance& instance,
                               const RewardWeights& weights)
    : instance_(&instance),
      weights_(&weights),
      num_items_(instance.catalog->size()),
      required_new_topics_(ComputeRequiredNewIdealTopics()),
      index_(BuildIndex()) {
  BuildIdealTopicSets();
}

RewardFunction::RewardFunction(const model::TaskInstance& instance,
                               const RewardFunction& base)
    : instance_(&instance),
      weights_(base.weights_),
      num_items_(base.num_items_),
      required_new_topics_(base.required_new_topics_),
      index_(base.index_) {
  // Everything the index was built from must be the base's.
  assert(instance.catalog == base.instance_->catalog);
  assert(instance.hard == base.instance_->hard);
  assert(instance.soft.interleaving.permutations() ==
         base.instance_->soft.interleaving.permutations());
  BuildIdealTopicSets();
}

std::shared_ptr<const RewardFunction::CatalogIndex>
RewardFunction::BuildIndex() const {
  const model::Catalog& catalog = *instance_->catalog;
  const model::HardConstraints& hard = instance_->hard;
  auto index = std::make_shared<CatalogIndex>();
  // One pass over the catalog builds every per-item index.
  // Reward class key: type x category bucket, the last bucket of each type
  // holding every category without a weight. Classes are numbered in order
  // of first appearance, so only the pairs the catalog uses exist.
  const std::size_t buckets = weights_->category_weights.size() + 1;
  std::vector<int> class_of_key(2 * buckets, -1);
  std::vector<RewardClass>& classes = index->classes;
  index->class_of_item.reserve(num_items_);
  index->no_prerequisite.Resize(num_items_);
  index->items_of_type[0].Resize(num_items_);
  index->items_of_type[1].Resize(num_items_);
  const std::size_t num_minima = hard.category_min_counts.size();
  index->items_of_minimum_bucket.assign(num_minima + 1,
                                        util::DynamicBitset(num_items_));
  // (antecedent, dependent) pairs, in ascending dependent order.
  std::vector<std::pair<model::ItemId, model::ItemId>> prerequisite_edges;
  std::vector<std::uint32_t>& offsets = index->dependent_offsets;
  offsets.assign(num_items_ + 1, 0);
  for (const model::Item& item : catalog.items()) {
    const auto id = static_cast<std::size_t>(item.id);
    const bool in_range =
        item.category >= 0 &&
        static_cast<std::size_t>(item.category) < buckets - 1;
    const std::size_t bucket =
        in_range ? static_cast<std::size_t>(item.category) : buckets - 1;
    const std::size_t key =
        (item.type == model::ItemType::kPrimary ? 0 : buckets) + bucket;
    if (class_of_key[key] < 0) {
      class_of_key[key] = static_cast<int>(classes.size());
      classes.push_back(
          {item.type, in_range ? weights_->category_weights[bucket] : 0.0,
           util::DynamicBitset(num_items_)});
    }
    const auto c = static_cast<std::size_t>(class_of_key[key]);
    classes[c].items.Set(id);
    index->class_of_item.push_back(static_cast<std::uint32_t>(c));

    if (item.prereqs.empty()) index->no_prerequisite.Set(id);
    for (const auto& group : item.prereqs.groups()) {
      for (model::ItemId member : group) {
        if (member < 0 || static_cast<std::size_t>(member) >= num_items_) {
          continue;
        }
        prerequisite_edges.emplace_back(member, item.id);
        ++offsets[static_cast<std::size_t>(member) + 1];
      }
    }
    if (hard.no_consecutive_same_theme && item.primary_theme >= 0) {
      const auto theme = static_cast<std::size_t>(item.primary_theme);
      std::vector<util::DynamicBitset>& themes = index->items_of_theme;
      if (theme >= themes.size()) {
        themes.resize(theme + 1, util::DynamicBitset(num_items_));
      }
      themes[theme].Set(id);
    }

    if (item.type == model::ItemType::kPrimary) {
      index->primary_items.push_back(item.id);
    }
    index->items_of_type[item.type == model::ItemType::kPrimary ? 0 : 1].Set(
        id);
    const bool has_minimum =
        item.category >= 0 &&
        static_cast<std::size_t>(item.category) < num_minima;
    index->items_of_minimum_bucket[has_minimum
                                       ? static_cast<std::size_t>(item.category)
                                       : num_minima]
        .Set(id);
  }

  // Counting sort of the edges by antecedent; stable, so every dependents
  // list stays ascending.
  for (std::size_t a = 0; a < num_items_; ++a) offsets[a + 1] += offsets[a];
  index->dependents.resize(prerequisite_edges.size());
  std::vector<std::uint32_t> fill(offsets.begin(), offsets.end() - 1);
  for (const auto& [antecedent, dependent] : prerequisite_edges) {
    index->dependents[fill[static_cast<std::size_t>(antecedent)]++] =
        dependent;
  }

  if (catalog.domain() == model::Domain::kTrip &&
      num_items_ <= kMaxDistanceMatrixItems) {
    index->distance_matrix.resize(num_items_ * num_items_);
    for (std::size_t a = 0; a < num_items_; ++a) {
      for (std::size_t b = 0; b < num_items_; ++b) {
        index->distance_matrix[a * num_items_ + b] =
            ComputeDistanceKm(static_cast<model::ItemId>(a),
                              static_cast<model::ItemId>(b));
      }
    }
  }
  return index;
}

void RewardFunction::BuildIdealTopicSets() {
  // Ideal-topic counts from the catalog's topic postings: one walk per
  // topic of T_ideal, no per-item popcount.
  const model::Catalog& catalog = *instance_->catalog;
  const model::TopicVector& ideal = instance_->soft.ideal_topics;
  assert(ideal.size() == catalog.vocabulary_size());
  ideal_topic_counts_.assign(num_items_, 0);
  ideal.ForEachSetBit([&](std::size_t topic) {
    for (model::ItemId id : catalog.ItemsWithTopic(topic)) {
      ++ideal_topic_counts_[static_cast<std::size_t>(id)];
    }
  });
  initial_coverage_.Resize(num_items_);
  for (std::size_t i = 0; i < num_items_; ++i) {
    if (ideal_topic_counts_[i] >= required_new_topics_) {
      initial_coverage_.Set(i);
    }
  }
}

double RewardFunction::ComputeDistanceKm(model::ItemId a,
                                         model::ItemId b) const {
  return geo::HaversineKm(instance_->catalog->item(a).location,
                          instance_->catalog->item(b).location);
}

std::size_t RewardFunction::ComputeRequiredNewIdealTopics() const {
  const double epsilon = weights_->epsilon;
  if (epsilon >= 1.0) return static_cast<std::size_t>(epsilon);
  const double scaled =
      epsilon * static_cast<double>(instance_->catalog->vocabulary_size());
  const std::size_t required = static_cast<std::size_t>(std::ceil(scaled));
  return required == 0 ? 1 : required;
}

int RewardFunction::TopicCoverageReward(const EpisodeState& state,
                                        model::ItemId next) const {
  const std::uint64_t* topics =
      instance_->catalog->item(next).topics.word_data();
  const std::uint64_t* ideal = instance_->soft.ideal_topics.word_data();
  const std::uint64_t* covered = state.covered_topics().word_data();
  const std::size_t words = state.covered_topics().word_count();
  // Clear-lowest counting that stops at the threshold: no popcount, which
  // is a library call on baseline x86-64.
  std::size_t count = 0;
  for (std::size_t w = 0; w < words && count < required_new_topics_; ++w) {
    for (std::uint64_t fresh = topics[w] & ideal[w] & ~covered[w];
         fresh != 0 && count < required_new_topics_; fresh &= fresh - 1) {
      ++count;
    }
  }
  return count >= required_new_topics_ ? 1 : 0;
}

int RewardFunction::PrerequisiteReward(const EpisodeState& state,
                                       model::ItemId next) const {
  const model::Item& item = instance_->catalog->item(next);
  const int candidate_position = static_cast<int>(state.Length());
  if (!item.prereqs.SatisfiedAt(state.position_of(), candidate_position,
                                instance_->hard.gap)) {
    return 0;
  }
  if (instance_->hard.no_consecutive_same_theme && !state.Empty()) {
    const model::Item& previous =
        instance_->catalog->item(state.CurrentItem());
    if (item.primary_theme >= 0 &&
        item.primary_theme == previous.primary_theme) {
      return 0;
    }
  }
  return 1;
}

int RewardFunction::Theta(const EpisodeState& state,
                          model::ItemId next) const {
  const int r1 = TopicCoverageReward(state, next);
  if (r1 == 0) return 0;  // short-circuit; theta = r1 * r2
  return r1 * PrerequisiteReward(state, next);
}

double RewardFunction::TypeSimilarity(const EpisodeState& state,
                                      model::ItemType type) const {
  return state.similarity_tracker().ScoreAppend(type, weights_->similarity);
}

double RewardFunction::InterleavingSimilarity(const EpisodeState& state,
                                              model::ItemId next) const {
  return TypeSimilarity(state, instance_->catalog->item(next).type);
}

double RewardFunction::TypeWeight(model::ItemId next) const {
  return index_->classes[RewardClassOf(next)].weight;
}

double RewardFunction::ClassReward(const EpisodeState& state,
                                   std::size_t c) const {
  const RewardClass& reward_class = index_->classes[c];
  return weights_->delta * TypeSimilarity(state, reward_class.type) +
         weights_->beta * reward_class.weight;
}

double RewardFunction::Reward(const EpisodeState& state,
                              model::ItemId next) const {
  if (Theta(state, next) == 0) return 0.0;
  return ClassReward(state, RewardClassOf(next));
}

bool RewardFunction::IsFeasible(const EpisodeState& state,
                                model::ItemId next) const {
  if (state.Contains(next)) return false;
  if (instance_->catalog->domain() != model::Domain::kTrip) return true;
  const model::Item& item = instance_->catalog->item(next);
  // Time budget: `H = #cr` terminates the itinerary once total visitation
  // time would exceed the budget (Section III-A).
  if (state.total_credits() + item.credits >
      instance_->hard.min_credits + 1e-9) {
    return false;
  }
  if (std::isfinite(instance_->hard.distance_threshold_km) && !state.Empty()) {
    const double leg = DistanceKm(state.CurrentItem(), next);
    if (state.total_distance_km() + leg >
        instance_->hard.distance_threshold_km + 1e-9) {
      return false;
    }
  }
  return true;
}

}  // namespace rlplanner::mdp
