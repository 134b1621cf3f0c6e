#ifndef RLPLANNER_MODEL_PLAN_H_
#define RLPLANNER_MODEL_PLAN_H_

#include <string>
#include <vector>

#include "model/catalog.h"
#include "model/interleaving_template.h"

namespace rlplanner::model {

/// An ordered sequence of items — the output of every planner. Order is
/// semantic: position i is taken/visited before position i+1, and the
/// prerequisite-gap constraint is evaluated over these positions.
class Plan {
 public:
  Plan() = default;
  explicit Plan(std::vector<ItemId> items) : items_(std::move(items)) {}

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  const std::vector<ItemId>& items() const { return items_; }
  ItemId at(std::size_t index) const { return items_.at(index); }

  void Append(ItemId item) { items_.push_back(item); }

  /// True when `item` appears in the plan.
  bool Contains(ItemId item) const;

  /// 0-based position of `item`, or -1.
  int PositionOf(ItemId item) const;

  /// 0-based position of the last occurrence of `item`, or -1. The
  /// prerequisite-gap check reads positions this way
  /// (`PrereqExpr::SatisfiedAt`), so a repeated item counts where it was
  /// last placed.
  int LastPositionOf(ItemId item) const;

  /// Sum of `cr^m` over the plan.
  double TotalCredits(const Catalog& catalog) const;

  /// Count of items with the given type.
  int CountByType(const Catalog& catalog, ItemType type) const;

  /// Count of items in the given weight category.
  int CountByCategory(const Catalog& catalog, int category) const;

  /// The primary/secondary slot sequence of the plan — the object the
  /// interleaving similarity (Eq. 6) compares against template permutations.
  TypeSequence ToTypeSequence(const Catalog& catalog) const;

  /// Union of the items' topic vectors (the final `T^current`).
  TopicVector CoveredTopics(const Catalog& catalog) const;

  /// Total walking distance over consecutive POI locations, km (trip domain).
  double TotalDistanceKm(const Catalog& catalog) const;

  /// Mean item popularity (trip scoring); 0 for an empty plan.
  double MeanPopularity(const Catalog& catalog) const;

  /// "CS 675 : core -> CS 683 : elective -> ..." (Table V style).
  std::string ToString(const Catalog& catalog) const;

 private:
  std::vector<ItemId> items_;
};

bool operator==(const Plan& a, const Plan& b);

}  // namespace rlplanner::model

#endif  // RLPLANNER_MODEL_PLAN_H_
