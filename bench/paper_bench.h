// Pieces shared by the paper-table programs in bench/: the worker pool their
// seeded runs fan out on, and the sweep values more than one tuning table
// sweeps. Values only one table sweeps stay in that table's program.

#ifndef RLPLANNER_BENCH_PAPER_BENCH_H_
#define RLPLANNER_BENCH_PAPER_BENCH_H_

#include <string>

#include "core/config.h"
#include "datagen/dataset.h"
#include "eval/sweep.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace rlplanner::bench {

// Process-wide worker pool: independent (seed, sweep-point) runs fan out
// across it; results are bit-identical to a serial loop.
inline util::ThreadPool& Pool() {
  static util::ThreadPool pool;
  return pool;
}

inline eval::SweepValue Episodes(int n) {
  return {std::to_string(n),
          [n](core::PlannerConfig& c) { c.sarsa.num_episodes = n; }, nullptr,
          false};
}

inline eval::SweepValue Alpha(double alpha) {
  return {util::FormatDouble(alpha, 2),
          [alpha](core::PlannerConfig& c) { c.sarsa.alpha = alpha; },
          nullptr, false};
}

inline eval::SweepValue Gamma(double gamma) {
  return {util::FormatDouble(gamma, 2),
          [gamma](core::PlannerConfig& c) { c.sarsa.gamma = gamma; },
          nullptr, false};
}

inline eval::SweepValue EpsilonValue(double epsilon) {
  return {util::FormatDouble(epsilon, 4),
          [epsilon](core::PlannerConfig& c) { c.reward.epsilon = epsilon; },
          nullptr, /*eda_applicable=*/true};
}

inline eval::SweepValue DeltaBeta(double delta, double beta) {
  return {util::FormatDouble(delta, 2) + "/" + util::FormatDouble(beta, 2),
          [delta, beta](core::PlannerConfig& c) {
            c.reward.delta = delta;
            c.reward.beta = beta;
          },
          nullptr, true};
}

inline eval::SweepValue StartPoint(const datagen::Dataset& dataset,
                                   const char* code) {
  const model::ItemId id = dataset.catalog.FindByCode(code).value();
  return {code, [id](core::PlannerConfig& c) { c.sarsa.start_item = id; },
          nullptr, false};
}

}  // namespace rlplanner::bench

#endif  // RLPLANNER_BENCH_PAPER_BENCH_H_
