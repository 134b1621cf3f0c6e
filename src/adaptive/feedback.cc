#include "adaptive/feedback.h"

#include <sstream>

namespace rlplanner::adaptive {

FeedbackModel::FeedbackModel(std::size_t num_items, double smoothing)
    : smoothing_(smoothing),
      affinity_(num_items, 0.5),
      observations_(num_items, 0) {}

util::Status FeedbackModel::Observe(model::ItemId item,
                                    double normalized_value) {
  if (item < 0 || static_cast<std::size_t>(item) >= affinity_.size()) {
    std::ostringstream msg;
    msg << "feedback for unknown item " << item;
    return util::Status::OutOfRange(msg.str());
  }
  affinity_[item] = (1.0 - smoothing_) * affinity_[item] +
                    smoothing_ * normalized_value;
  observations_[item] += 1;
  return util::Status::Ok();
}

util::Status FeedbackModel::AddBinary(model::ItemId item, bool useful) {
  return Observe(item, useful ? 1.0 : 0.0);
}

util::Status FeedbackModel::AddRating(model::ItemId item, double rating) {
  if (rating < 1.0 || rating > 5.0) {
    return util::Status::InvalidArgument("rating must be in [1, 5]");
  }
  return Observe(item, (rating - 1.0) / 4.0);
}

util::Status FeedbackModel::AddDistribution(
    model::ItemId item, const std::vector<double>& probabilities) {
  if (probabilities.size() != 5) {
    return util::Status::InvalidArgument(
        "distribution must have 5 entries (ratings 1..5)");
  }
  double mass = 0.0;
  double expectation = 0.0;
  for (std::size_t r = 0; r < probabilities.size(); ++r) {
    if (probabilities[r] < 0.0) {
      return util::Status::InvalidArgument(
          "distribution entries must be non-negative");
    }
    mass += probabilities[r];
    expectation += probabilities[r] * static_cast<double>(r + 1);
  }
  if (mass <= 0.0) {
    return util::Status::InvalidArgument("distribution has no mass");
  }
  return Observe(item, (expectation / mass - 1.0) / 4.0);
}

double FeedbackModel::Affinity(model::ItemId item) const {
  if (item < 0 || static_cast<std::size_t>(item) >= affinity_.size()) {
    return 0.5;
  }
  return affinity_[item];
}

int FeedbackModel::ObservationCount(model::ItemId item) const {
  if (item < 0 || static_cast<std::size_t>(item) >= observations_.size()) {
    return 0;
  }
  return observations_[item];
}

util::Status FeedbackModel::Apply(const FeedbackEvent& event) {
  switch (event.kind) {
    case FeedbackKind::kBinary:
      return AddBinary(event.item, event.value != 0.0);
    case FeedbackKind::kRating:
      return AddRating(event.item, event.value);
    case FeedbackKind::kDistribution:
      return AddDistribution(event.item, event.distribution);
  }
  return util::Status::InvalidArgument("unknown feedback kind");
}

util::Status FeedbackModel::Reset(model::ItemId item) {
  if (item < 0 || static_cast<std::size_t>(item) >= affinity_.size()) {
    return util::Status::OutOfRange("unknown item");
  }
  affinity_[item] = 0.5;
  observations_[item] = 0;
  return util::Status::Ok();
}

mdp::QTable FoldFeedback(const mdp::QTable& q, const FeedbackModel& feedback,
                         double strength) {
  mdp::QTable shaped = q;
  // Scale with the table's own magnitude so strong feedback can out-rank
  // any learned tie-break, while neutral feedback (affinity 0.5) is a
  // bit-exact no-op.
  const double scale = strength * (shaped.MaxAbsValue() + 1.0);
  const std::size_t n = shaped.num_items();
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t a = 0; a < n; ++a) {
      const auto action = static_cast<model::ItemId>(a);
      const double shift = scale * (feedback.Affinity(action) - 0.5);
      if (shift != 0.0) {
        shaped.Set(static_cast<model::ItemId>(s), action,
                   shaped.Get(static_cast<model::ItemId>(s), action) + shift);
      }
    }
  }
  return shaped;
}

}  // namespace rlplanner::adaptive
