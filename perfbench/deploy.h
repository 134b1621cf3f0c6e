// What a run deploys — the workload's catalog, policy and serving stack
// (and on fleet_live the fleet), built the way `rlplanner_cli serve` builds
// them — plus the workload shapes and the driver of the fleet's ticks.
#ifndef PERFBENCH_DEPLOY_H_
#define PERFBENCH_DEPLOY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "datagen/dataset.h"
#include "fleet/fleet.h"
#include "layers.h"
#include "model/constraints.h"
#include "obs/registry.h"
#include "serve/policy_registry.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "wire.h"

namespace perfbench {

enum class Kind { kPaperWire, kScale10kWire, kFleetLive };

struct Options {
  Kind kind = Kind::kPaperWire;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool short_mode = false;
  int tamper_every = 0;
  std::string snapshot;
  std::string out_dir = ".";
};

// Fixed shape of each workload. Verification sets and fleet feedback use
// constant seeds so quality metrics and fleet counts repeat exactly; only
// the timed request stream follows --seed.
struct Shape {
  std::size_t workers = 2;
  std::size_t connections = 2;
  int setup_reps = 11;          // setup_s is the median of these
  std::size_t verify_count = 0;  // requests in the verification set
  std::size_t replay_count = 0;  // traced requests replayed in process
  // Sample-buffer room per connection-second: several times what the
  // workload completes today, so a faster program never grows the buffers
  // (which would read as a peak_rss_mb regression).
  double max_rate = 16000.0;
};

constexpr int kFleetSlots = 4;
// One canary cycle at FleetConfig defaults (retrain, hold, promote): the
// fleet warm-up, and the granularity of the measured tick count.
constexpr int kCanaryCycleTicks = 3;
// Measured fleet ticks per requested second, so a run does a fixed amount
// of fleet work that takes about --seconds on a 4-vCPU host.
constexpr double kFleetTicksPerSecond = 36.0;

Shape ShapeOf(const Options& o);

/// Everything one setup builds, torn down in reverse order.
struct Deployment {
  std::unique_ptr<rlplanner::datagen::Dataset> dataset;
  rlplanner::model::TaskInstance instance;
  rlplanner::core::PlannerConfig config;
  rlplanner::obs::Registry metrics;
  std::unique_ptr<rlplanner::serve::PolicyRegistry> registry;
  std::unique_ptr<rlplanner::util::ThreadPool> pool;
  std::unique_ptr<rlplanner::fleet::FleetOrchestrator> fleet;
  rlplanner::fleet::FleetConfig fleet_config;
  std::vector<std::string> slots;
  std::unique_ptr<ServingStack> stack;
};

/// Builds and starts one deployment; the time this takes is setup_s.
std::unique_ptr<Deployment> Deploy(const Options& o, const Shape& shape);

/// Ticks a deployment's fleet, enqueueing a fixed, seeded feedback stream
/// before every tick.
class FleetDriver {
 public:
  explicit FleetDriver(Deployment* d);

  /// One tick, preceded by this tick's feedback events. Returns the number
  /// of retrains the tick started.
  std::uint64_t Tick();

  /// Retrain attempts started so far, summed over the slots.
  std::uint64_t Generations() const;

  /// Each slot's recipe, generation and feedback so far, for the replay.
  std::vector<FleetSlot> Slots() const;

 private:
  Deployment* d_;
  rlplanner::util::Rng rng_;
  std::vector<std::vector<rlplanner::adaptive::FeedbackEvent>> feedback_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DEPLOY_H_
