#ifndef RLPLANNER_MODEL_PREREQ_H_
#define RLPLANNER_MODEL_PREREQ_H_

#include <string>
#include <vector>

namespace rlplanner::model {

/// Identifier of an item inside its catalog (dense index).
using ItemId = int;

/// Antecedent/prerequisite expression `pre^m` in conjunctive normal form:
/// every group must be satisfied (AND), and a group is satisfied by any one
/// of its members (OR). This covers both paper forms —
/// "Linear Algebra AND Data Mining" is two singleton groups, and
/// "Data Mining OR Data Analytics" is one two-member group.
class PrereqExpr {
 public:
  PrereqExpr() = default;

  /// Expression with no requirements (always satisfied).
  static PrereqExpr None() { return PrereqExpr(); }

  /// AND of single items.
  static PrereqExpr All(std::vector<ItemId> items);

  /// OR of a single group of items.
  static PrereqExpr AnyOf(std::vector<ItemId> items);

  /// Appends an OR-group (conjoined with existing groups). Empty groups are
  /// ignored.
  void AddGroup(std::vector<ItemId> group);

  bool empty() const { return groups_.empty(); }
  const std::vector<std::vector<ItemId>>& groups() const { return groups_; }

  /// Evaluates the expression against a partial plan.
  ///
  /// `position_of(item)` is the 0-based position of an already-chosen item
  /// or -1, `candidate_position` is where the new item would be placed, and
  /// `gap` is the minimum allowed distance (the paper's `Dist(pre^m, m) >=
  /// gap`, so a group member at position j satisfies its group iff
  /// `candidate_position - j >= gap`).
  template <typename PositionOf>
  bool SatisfiedAt(const PositionOf& position_of, int candidate_position,
                   int gap) const {
    for (const auto& group : groups_) {
      bool group_ok = false;
      for (ItemId member : group) {
        const int pos = position_of(member);
        if (pos >= 0 && candidate_position - pos >= gap) {
          group_ok = true;
          break;
        }
      }
      if (!group_ok) return false;
    }
    return true;
  }

  /// The same, reading positions from a table indexed by item id (-1 =
  /// absent; ids past its end are absent too).
  bool SatisfiedAt(const std::vector<int>& position_of, int candidate_position,
                   int gap) const {
    return SatisfiedAt(
        [&position_of](ItemId item) {
          return item >= 0 && static_cast<std::size_t>(item) <
                                  position_of.size()
                     ? position_of[static_cast<std::size_t>(item)]
                     : -1;
        },
        candidate_position, gap);
  }

  /// All item ids referenced anywhere in the expression (with duplicates
  /// removed, ascending).
  std::vector<ItemId> ReferencedItems() const;

  /// Debug form like "(3) AND (1 OR 2)".
  std::string ToString() const;

 private:
  std::vector<std::vector<ItemId>> groups_;
};

}  // namespace rlplanner::model

#endif  // RLPLANNER_MODEL_PREREQ_H_
