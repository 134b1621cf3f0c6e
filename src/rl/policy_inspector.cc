#include "rl/policy_inspector.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "util/string_util.h"

namespace rlplanner::rl {

namespace {

// `edges` by descending Q value, cut to the first `k` (all when k < 0).
std::vector<PolicyEdge> Strongest(std::vector<PolicyEdge> edges, int k) {
  std::sort(edges.begin(), edges.end(),
            [](const PolicyEdge& a, const PolicyEdge& b) {
              return a.q_value > b.q_value;
            });
  if (k >= 0 && edges.size() > static_cast<std::size_t>(k)) {
    edges.resize(static_cast<std::size_t>(k));
  }
  return edges;
}

}  // namespace

std::vector<PolicyEdge> PolicyInspector::TopActions(model::ItemId state,
                                                    int k) const {
  if (state < 0 || static_cast<std::size_t>(state) >= num_items_) return {};
  const auto [begin, end] = std::equal_range(
      edges_.begin(), edges_.end(), PolicyEdge{state, -1, 0.0},
      [](const PolicyEdge& a, const PolicyEdge& b) { return a.from < b.from; });
  return Strongest({begin, end}, k);
}

std::vector<PolicyEdge> PolicyInspector::TopTransitions(int k) const {
  return Strongest(edges_, k);
}

std::vector<model::ItemId> PolicyInspector::GreedySuccessors() const {
  // Per row, the first action whose value beats every earlier one and 0.0.
  std::vector<model::ItemId> successors(num_items_, -1);
  model::ItemId row = -1;
  double best_value = 0.0;
  for (const PolicyEdge& edge : edges_) {
    if (edge.from != row) {
      row = edge.from;
      best_value = 0.0;
    }
    if (edge.q_value > best_value) {
      successors[static_cast<std::size_t>(row)] = edge.to;
      best_value = edge.q_value;
    }
  }
  return successors;
}

std::string PolicyInspector::ToDot(int k) const {
  const std::vector<PolicyEdge> edges = TopTransitions(k);
  std::set<model::ItemId> nodes;
  for (const PolicyEdge& edge : edges) {
    nodes.insert(edge.from);
    nodes.insert(edge.to);
  }
  std::ostringstream out;
  out << "digraph policy {\n  rankdir=LR;\n";
  for (model::ItemId node : nodes) {
    out << "  n" << node << " [label=\"" << catalog_->item(node).code
        << "\"];\n";
  }
  for (const PolicyEdge& edge : edges) {
    out << "  n" << edge.from << " -> n" << edge.to << " [label=\""
        << util::FormatDouble(edge.q_value, 2) << "\"];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace rlplanner::rl
