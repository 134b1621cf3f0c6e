#include "mdp/reward.h"

#include <cassert>
#include <cmath>

#include "geo/latlng.h"
#include "model/topic_vector.h"
#include "util/simd.h"

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
      required_new_topics_(ComputeRequiredNewIdealTopics()) {
  // One pass over the catalog builds every per-item cache.
  const model::TopicVector& ideal = instance_->soft.ideal_topics;
  ideal_words_per_item_ = ideal.word_count();
  ideal_topic_words_.resize(num_items_ * ideal_words_per_item_);
  // Reward class key: type x category bucket, the last bucket of each type
  // holding every category without a weight. Classes are numbered in order
  // of first appearance, so only the pairs the catalog uses exist.
  const std::size_t buckets = weights_->category_weights.size() + 1;
  std::vector<int> class_of_key(2 * buckets, -1);
  class_of_item_.reserve(num_items_);
  r2_may_fail_.Resize(num_items_);
  std::uint64_t* words = ideal_topic_words_.data();
  for (const model::Item& item : instance_->catalog->items()) {
    const auto id = static_cast<std::size_t>(item.id);
    // Written straight into the flat array: no per-item TopicVector.
    assert(item.topics.size() == ideal.size());
    for (std::size_t w = 0; w < ideal_words_per_item_; ++w) {
      *words++ = item.topics.word_data()[w] & ideal.word_data()[w];
    }
    const bool in_range =
        item.category >= 0 &&
        static_cast<std::size_t>(item.category) < buckets - 1;
    const std::size_t bucket =
        in_range ? static_cast<std::size_t>(item.category) : buckets - 1;
    const std::size_t key =
        (item.type == model::ItemType::kPrimary ? 0 : buckets) + bucket;
    if (class_of_key[key] < 0) {
      class_of_key[key] = static_cast<int>(classes_.size());
      classes_.push_back(
          {item.type, in_range ? weights_->category_weights[bucket] : 0.0,
           util::DynamicBitset(num_items_)});
    }
    const auto c = static_cast<std::size_t>(class_of_key[key]);
    classes_[c].items.Set(id);
    class_of_item_.push_back(static_cast<std::uint32_t>(c));
    if (!item.prereqs.empty() ||
        (instance_->hard.no_consecutive_same_theme &&
         item.primary_theme >= 0)) {
      r2_may_fail_.Set(id);
    }
  }
  if (instance_->catalog->domain() == model::Domain::kTrip &&
      num_items_ <= kMaxDistanceMatrixItems) {
    distance_matrix_.resize(num_items_ * num_items_);
    for (std::size_t a = 0; a < num_items_; ++a) {
      for (std::size_t b = 0; b < num_items_; ++b) {
        distance_matrix_[a * num_items_ + b] =
            ComputeDistanceKm(static_cast<model::ItemId>(a),
                              static_cast<model::ItemId>(b));
      }
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
  // ThetaOneSubset's kernel over a one-row selection: the item's row.
  std::uint64_t select = 1;
  util::simd::Active().retain_rows_andnot_count_at_least(
      &select, 1,
      ideal_topic_words_.data() +
          static_cast<std::size_t>(next) * ideal_words_per_item_,
      ideal_words_per_item_, state.covered_topics().word_data(),
      required_new_topics_);
  return select != 0 ? 1 : 0;
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

void RewardFunction::ThetaOneSubset(const EpisodeState& state,
                                    const util::DynamicBitset& candidates,
                                    util::DynamicBitset* out) const {
  *out = candidates;
  util::simd::Active().retain_rows_andnot_count_at_least(
      out->mutable_word_data(), out->word_count(), ideal_topic_words_.data(),
      ideal_words_per_item_, state.covered_topics().word_data(),
      required_new_topics_);
  r2_may_fail_.ForEachSetBit([&](std::size_t i) {
    if (out->Test(i) &&
        PrerequisiteReward(state, static_cast<model::ItemId>(i)) == 0) {
      out->Set(i, false);
    }
  });
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
  return classes_[RewardClassOf(next)].weight;
}

double RewardFunction::ClassReward(const EpisodeState& state,
                                   std::size_t c) const {
  return weights_->delta * TypeSimilarity(state, classes_[c].type) +
         weights_->beta * classes_[c].weight;
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
