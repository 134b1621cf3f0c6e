#include "core/planner.h"

#include <chrono>
#include <sstream>
#include <type_traits>

#include "core/scoring.h"
#include "obs/span.h"
#include "obs/training_metrics.h"
#include "rl/recommender.h"
#include "rl/sarsa.h"

namespace rlplanner::core {

RlPlanner::RlPlanner(const model::TaskInstance& instance,
                     PlannerConfig config)
    : instance_(&instance),
      config_(std::move(config)),
      reward_(*instance_, config_.reward) {}

RlPlanner::~RlPlanner() = default;

util::Status RlPlanner::Train() {
  RLP_RETURN_IF_ERROR(config_.Validate());
  RLP_RETURN_IF_ERROR(instance_->Validate());
  const std::size_t n = instance_->catalog->size();
  const rl::QRepresentation repr =
      rl::ResolveQRepresentation(config_.sarsa.q_representation, n);
  if (repr == rl::QRepresentation::kSparse && n > rl::kSparseAutoThreshold &&
      config_.sarsa.policy_rounds > 1) {
    // The policy-iteration restart path calls AddNoise, which is only
    // bit-identical to dense by materializing all |I|^2 entries — exactly
    // the allocation sparse exists to avoid at this scale (~80 GB at 100k
    // items). Fail fast here instead of OOM-ing mid-training the first
    // time a round's safety rollout fails. Below the threshold the dense
    // footprint is affordable by definition, so small-catalog sparse runs
    // (e.g. the dense-vs-sparse equivalence tests) keep their rounds.
    return util::Status::InvalidArgument(
        "catalog of " + std::to_string(n) +
        " items resolves to the sparse Q representation, which requires "
        "policy_rounds == 1: the restart path (AddNoise) would materialize "
        "all |I|^2 entries");
  }
  training_metrics_ =
      config_.metrics != nullptr
          ? std::make_unique<obs::TrainingMetrics>(config_.metrics)
          : nullptr;
  const auto start = std::chrono::steady_clock::now();
  // Root span of the whole training run: the `train_round` /
  // `train_shard` / `train_merge` spans the learners emit nest under it.
  obs::ScopedSpan train_span(config_.trace, "train");
  train_span.AddArg("episodes",
                    static_cast<std::uint64_t>(config_.sarsa.num_episodes));
  train_span.AddArg("q_repr",
                    repr == rl::QRepresentation::kSparse ? "sparse" : "dense");
  // One lambda per representation; the learner itself runs the serial
  // loop at one worker and shards the rounds beyond that.
  auto train_as = [&](auto& storage) {
    using Model = typename std::decay_t<decltype(storage)>::value_type;
    rl::SarsaLearnerT<Model> learner(*instance_, reward_, config_.sarsa,
                                     config_.seed);
    learner.set_metrics(training_metrics_.get());
    learner.set_trace(config_.trace);
    storage = learner.Learn();
    episode_returns_ = learner.episode_returns();
  };
  if (repr == rl::QRepresentation::kSparse) {
    q_.reset();
    train_as(sparse_q_);
  } else {
    sparse_q_.reset();
    train_as(q_);
  }
  RecordQTableGauges();
  const auto end = std::chrono::steady_clock::now();
  train_seconds_ = std::chrono::duration<double>(end - start).count();
  return util::Status::Ok();
}

void RlPlanner::RecordQTableGauges() const {
  if (training_metrics_ == nullptr) return;
  if (sparse_q_.has_value()) {
    training_metrics_->RecordQTableStats(sparse_q_->MemoryBytes(),
                                         sparse_q_->NonZeroFraction());
  } else if (q_.has_value()) {
    training_metrics_->RecordQTableStats(
        q_->values().size() * sizeof(double) + sizeof(mdp::QTable),
        q_->NonZeroFraction());
  }
}

util::Result<model::Plan> RlPlanner::Recommend(
    model::ItemId start_item) const {
  rl::RecommendConfig recommend;
  recommend.start_item = start_item;
  recommend.mask_type_overflow = config_.sarsa.mask_type_overflow;
  recommend.gamma = config_.sarsa.gamma;
  return Recommend(recommend);
}

util::Result<model::Plan> RlPlanner::Recommend(
    const rl::RecommendConfig& recommend) const {
  if (!trained()) {
    return util::Status::FailedPrecondition(
        "Recommend() called before Train() or AdoptPolicy()");
  }
  if (recommend.start_item < 0 ||
      static_cast<std::size_t>(recommend.start_item) >=
          instance_->catalog->size()) {
    std::ostringstream msg;
    msg << "start item " << recommend.start_item
        << " out of range (catalog size " << instance_->catalog->size() << ")";
    return util::Status::OutOfRange(msg.str());
  }
  // Both representations run the identical selection rule.
  return VisitQ([&](const auto& q) {
    if (config_.use_beam_search) {
      return rl::RecommendPlanBeam(q, *instance_, reward_, recommend,
                                   config_.beam);
    }
    return rl::RecommendPlan(q, *instance_, reward_, recommend);
  });
}

util::Status RlPlanner::AdoptPolicy(mdp::QTable q) {
  if (q.num_items() != instance_->catalog->size()) {
    return util::Status::InvalidArgument(
        "adopted Q-table dimension does not match the catalog size");
  }
  sparse_q_.reset();
  q_ = std::move(q);
  return util::Status::Ok();
}

util::Status RlPlanner::AdoptPolicy(mdp::SparseQTable q) {
  if (q.num_items() != instance_->catalog->size()) {
    return util::Status::InvalidArgument(
        "adopted Q-table dimension does not match the catalog size");
  }
  q_.reset();
  sparse_q_ = std::move(q);
  return util::Status::Ok();
}

double RlPlanner::Score(const model::Plan& plan) const {
  return ScorePlan(*instance_, plan);
}

ValidationReport RlPlanner::Validate(const model::Plan& plan) const {
  return ValidatePlan(*instance_, plan);
}

}  // namespace rlplanner::core
