// Random Q-table fixtures shared by the sparse-table and snapshot tests.

#ifndef RLPLANNER_TESTS_RANDOM_TABLES_H_
#define RLPLANNER_TESTS_RANDOM_TABLES_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#include "mdp/q_table.h"
#include "mdp/sparse_q_table.h"
#include "model/prereq.h"
#include "util/rng.h"

namespace rlplanner::mdp {

// A dense/sparse pair filled with the same pseudo-random entries: a mix of
// positive, negative, explicit-zero and absent cells, the full value shape
// ArgmaxAction and the merge have to agree on. Each cell is stored with
// probability `fill`, drawn from [-2, `max_value`) — a small `max_value`
// makes rows negative-dominated, so most argmaxes take the zero-max path.
inline std::pair<QTable, SparseQTable> RandomPair(std::size_t n,
                                                  std::uint64_t seed,
                                                  double fill = 0.3,
                                                  double max_value = 2.0) {
  QTable dense(n);
  SparseQTable sparse(n);
  util::Rng rng(seed);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t a = 0; a < n; ++a) {
      if (rng.NextDouble() >= fill) continue;
      double value = rng.NextDouble(-2.0, max_value);
      if (rng.NextDouble() < 0.1) value = 0.0;  // explicit stored zero
      dense.Set(static_cast<model::ItemId>(s), static_cast<model::ItemId>(a),
                value);
      sparse.Set(static_cast<model::ItemId>(s), static_cast<model::ItemId>(a),
                 value);
    }
  }
  return {std::move(dense), std::move(sparse)};
}

}  // namespace rlplanner::mdp

#endif  // RLPLANNER_TESTS_RANDOM_TABLES_H_
