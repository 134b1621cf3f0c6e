#include "model/prereq.h"

#include <algorithm>

namespace rlplanner::model {

PrereqExpr PrereqExpr::All(std::vector<ItemId> items) {
  PrereqExpr expr;
  for (ItemId item : items) expr.AddGroup({item});
  return expr;
}

PrereqExpr PrereqExpr::AnyOf(std::vector<ItemId> items) {
  PrereqExpr expr;
  expr.AddGroup(std::move(items));
  return expr;
}

void PrereqExpr::AddGroup(std::vector<ItemId> group) {
  if (group.empty()) return;
  groups_.push_back(std::move(group));
}

std::vector<ItemId> PrereqExpr::ReferencedItems() const {
  std::vector<ItemId> out;
  for (const auto& group : groups_) {
    out.insert(out.end(), group.begin(), group.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string PrereqExpr::ToString() const {
  std::string out;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (g != 0) out += " AND ";
    out += "(";
    for (std::size_t i = 0; i < groups_[g].size(); ++i) {
      if (i != 0) out += " OR ";
      out += std::to_string(groups_[g][i]);
    }
    out += ")";
  }
  return out;
}

}  // namespace rlplanner::model
