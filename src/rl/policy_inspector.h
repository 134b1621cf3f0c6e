#ifndef RLPLANNER_RL_POLICY_INSPECTOR_H_
#define RLPLANNER_RL_POLICY_INSPECTOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "model/catalog.h"

namespace rlplanner::rl {

/// One learned transition, for inspection.
struct PolicyEdge {
  model::ItemId from = -1;
  model::ItemId to = -1;
  double q_value = 0.0;
};

/// Read-only introspection of a learned Q-table against its catalog:
/// what did the policy actually learn? Useful for debugging reward design
/// and for explaining recommendations to end users ("after Machine
/// Learning the policy most values Deep Learning").
class PolicyInspector {
 public:
  /// Copies the non-zero off-diagonal cells of `q` — any table that offers
  /// `ForEachNonZeroEntrySorted`, dense or sparse — in ascending (state,
  /// action) order; every query reads only those. `catalog` must outlive
  /// the inspector.
  template <typename Table>
  PolicyInspector(const Table& q, const model::Catalog& catalog)
      : num_items_(q.num_items()), catalog_(&catalog) {
    q.ForEachNonZeroEntrySorted(
        [&](model::ItemId s, model::ItemId a, double value) {
          if (s != a) edges_.push_back({s, a, value});
        });
  }

  /// The `k` highest-valued actions out of `state`, descending.
  std::vector<PolicyEdge> TopActions(model::ItemId state, int k) const;

  /// The `k` highest-valued transitions anywhere in the table, descending.
  std::vector<PolicyEdge> TopTransitions(int k) const;

  /// The greedy successor of every item (Q argmax per row; -1 for all-zero
  /// rows), indexed by item id.
  std::vector<model::ItemId> GreedySuccessors() const;

  /// Renders the top-`k` transitions as a Graphviz DOT digraph whose edge
  /// labels are Q values — `dot -Tsvg` gives a picture of the policy.
  std::string ToDot(int k) const;

 private:
  std::size_t num_items_;
  const model::Catalog* catalog_;
  std::vector<PolicyEdge> edges_;  // ascending (from, to)
};

}  // namespace rlplanner::rl

#endif  // RLPLANNER_RL_POLICY_INSPECTOR_H_
