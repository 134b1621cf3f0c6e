#include "deploy.h"

#include <algorithm>
#include <utility>

#include "core/planner.h"
#include "serve/policy_snapshot.h"
#include "workload.h"

namespace perfbench {

namespace core = rlplanner::core;
namespace datagen = rlplanner::datagen;
namespace fleet = rlplanner::fleet;
namespace model = rlplanner::model;
namespace serve = rlplanner::serve;

Shape ShapeOf(const Options& o) {
  Shape s;
  switch (o.kind) {
    case Kind::kPaperWire:
      s.verify_count = 456;
      s.replay_count = 400;
      break;
    case Kind::kScale10kWire:
      s.verify_count = 96;
      s.replay_count = 40;
      s.max_rate = 2000.0;
      break;
    case Kind::kFleetLive:
      s.workers = 1;
      s.connections = 1;
      s.setup_reps = 7;
      s.verify_count = 228;
      s.replay_count = 200;
      break;
  }
  if (o.short_mode) {
    s.setup_reps = 3;
    s.verify_count = std::min<std::size_t>(s.verify_count, 24);
    s.replay_count = std::min<std::size_t>(s.replay_count, 48);
  }
  return s;
}


namespace {

constexpr std::uint64_t kFeedbackSeed = 0x5eed0002;
constexpr int kFeedbackPerSlotPerTick = 4;

fleet::PolicySpec FleetSpec(const Deployment& d, int i) {
  fleet::PolicySpec spec;
  spec.slot = "policy-" + std::to_string(i);
  spec.segment_id = "segment-" + std::to_string(i);
  spec.catalog_fingerprint = d.registry->catalog_fingerprint();
  spec.sarsa = d.config.sarsa;
  spec.seed = d.config.seed + static_cast<std::uint64_t>(i);
  spec.freshness_ticks = 1;
  return spec;
}

}  // namespace

std::unique_ptr<Deployment> Deploy(const Options& o, const Shape& shape) {
  auto d = std::make_unique<Deployment>();
  d->dataset = std::make_unique<datagen::Dataset>(
      o.kind == Kind::kScale10kWire ? Scale10kCatalog() : PaperCatalog());
  d->instance = d->dataset->Instance();
  d->config = ServeConfig(*d->dataset);
  const model::Catalog& catalog = d->dataset->catalog;
  d->registry = std::make_unique<serve::PolicyRegistry>(
      serve::CatalogFingerprint(catalog), catalog.size());

  switch (o.kind) {
    case Kind::kPaperWire: {
      core::RlPlanner planner(d->instance, d->config);
      if (const auto status = planner.Train(); !status.ok()) {
        Die("training failed: " + status.ToString());
      }
      auto installed = d->registry->Install("default", planner.q_table(),
                                            d->config.sarsa, d->config.seed);
      if (!installed.ok()) Die(installed.status().ToString());
      d->slots = {"default"};
      break;
    }
    case Kind::kScale10kWire: {
      auto installed = d->registry->InstallSnapshotFile(
          "default", o.snapshot, serve::SnapshotLoadMode::kMmap);
      if (!installed.ok()) Die(installed.status().ToString());
      d->slots = {"default"};
      break;
    }
    case Kind::kFleetLive: {
      d->pool = std::make_unique<rlplanner::util::ThreadPool>(1);
      d->fleet_config.metrics = &d->metrics;
      d->fleet = std::make_unique<fleet::FleetOrchestrator>(
          d->instance, d->config.reward, *d->registry, *d->pool,
          d->fleet_config);
      for (int i = 0; i < kFleetSlots; ++i) {
        fleet::PolicySpec spec = FleetSpec(*d, i);
        d->slots.push_back(spec.slot);
        if (const auto status = d->fleet->AddSpec(std::move(spec));
            !status.ok()) {
          Die(status.ToString());
        }
      }
      d->fleet->Tick();
      for (const std::string& slot : d->slots) {
        if (d->registry->Current(slot) == nullptr) {
          Die("first fleet tick did not publish " + slot);
        }
      }
      break;
    }
  }
  d->stack = std::make_unique<ServingStack>(d->instance, d->config.reward,
                                            *d->registry, &d->metrics,
                                            shape.workers);
  return d;
}

FleetDriver::FleetDriver(Deployment* d)
    : d_(d), rng_(kFeedbackSeed), feedback_(kFleetSlots) {}

std::uint64_t FleetDriver::Tick() {
  const std::size_t n = d_->dataset->catalog.size();
  for (int s = 0; s < kFleetSlots; ++s) {
    for (int e = 0; e < kFeedbackPerSlotPerTick; ++e) {
      rlplanner::adaptive::FeedbackEvent event;
      event.item = static_cast<model::ItemId>(rng_.NextBounded(n));
      switch (rng_.NextBounded(3)) {
        case 0:
          event.kind = rlplanner::adaptive::FeedbackKind::kBinary;
          event.value = static_cast<double>(rng_.NextBounded(2));
          break;
        case 1:
          event.kind = rlplanner::adaptive::FeedbackKind::kRating;
          event.value = static_cast<double>(1 + rng_.NextBounded(5));
          break;
        default:
          event.kind = rlplanner::adaptive::FeedbackKind::kDistribution;
          for (int r = 0; r < 5; ++r) {
            event.distribution.push_back(rng_.NextDouble() + 0.01);
          }
          break;
      }
      feedback_[static_cast<std::size_t>(s)].push_back(event);
      if (const auto status = d_->fleet->EnqueueFeedback(
              d_->slots[static_cast<std::size_t>(s)], event);
          !status.ok()) {
        Die(status.ToString());
      }
    }
  }
  const std::uint64_t before = Generations();
  d_->fleet->Tick();
  return Generations() - before;
}

std::uint64_t FleetDriver::Generations() const {
  std::uint64_t total = 0;
  for (const fleet::PolicyStatus& s : d_->fleet->Statuses()) {
    total += s.generation;
  }
  return total;
}

std::vector<FleetSlot> FleetDriver::Slots() const {
  std::vector<FleetSlot> out;
  const std::vector<fleet::PolicyStatus> statuses = d_->fleet->Statuses();
  for (int s = 0; s < kFleetSlots; ++s) {
    FleetSlot slot;
    slot.spec = FleetSpec(*d_, s);
    for (const fleet::PolicyStatus& status : statuses) {
      if (status.slot == slot.spec.slot) slot.generation = status.generation;
    }
    slot.feedback = feedback_[static_cast<std::size_t>(s)];
    out.push_back(std::move(slot));
  }
  return out;
}

}  // namespace perfbench
