#ifndef RLPLANNER_MDP_Q_TABLE_H_
#define RLPLANNER_MDP_Q_TABLE_H_

#include <cassert>
#include <cstddef>
#include <vector>

#include "model/prereq.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace rlplanner::mdp {

/// The learned action-value table `Q(s, e)` of size |I| x |I| (Section
/// III-C): row = current item (state), column = item the action appends.
/// Row/column index -1 is not representable; the virtual "empty episode"
/// start state is handled by the learner, not stored here.
class QTable {
 public:
  /// All-zero table over `num_items` items.
  explicit QTable(std::size_t num_items);

  std::size_t num_items() const { return num_items_; }

  double Get(model::ItemId state, model::ItemId action) const;
  void Set(model::ItemId state, model::ItemId action, double value);

  /// SARSA update (Eq. 9):
  ///   Q(s,e) += alpha * (r + gamma * Q(s', e') - Q(s,e)).
  void SarsaUpdate(model::ItemId state, model::ItemId action, double reward,
                   model::ItemId next_state, model::ItemId next_action,
                   double alpha, double gamma);

  /// Column with the maximum Q value in `state`'s row among actions where
  /// `allowed(action)` is true; -1 when none is allowed. Ties resolve to the
  /// lowest allowed id, so greedy recommendation is deterministic. This is
  /// intentionally different from SarsaLearner::SelectAction, which breaks
  /// exploitation ties uniformly at random during training so the learner
  /// does not lock onto catalog id order. The first allowed action is always
  /// adopted as the initial best, so all-negative rows still return the
  /// lowest allowed id rather than -1.
  ///
  /// This overload scans the full O(|I|) row with one predicate call per
  /// action, however small the allowed set — any caller that has (or can
  /// materialize) a DynamicBitset must use the word-scan overload below,
  /// which skips disallowed actions 64 at a time and dispatches to the SIMD
  /// kernel. The remaining callers are exactly the parity harnesses:
  /// tests/qtable_test.cc and tests/simd_test.cc pin the two overloads
  /// equivalent, and bench/micro_benchmarks.cc measures the gap between
  /// them. No production path scans via callback.
  template <typename AllowedFn>
  model::ItemId ArgmaxAction(model::ItemId state, AllowedFn allowed) const {
    model::ItemId best = -1;
    double best_value = 0.0;
    for (std::size_t a = 0; a < num_items_; ++a) {
      const model::ItemId action = static_cast<model::ItemId>(a);
      if (!allowed(action)) continue;
      const double value = Get(state, action);
      if (best < 0 || value > best_value) {
        best = action;
        best_value = value;
      }
    }
    return best;
  }

  /// Word-scan variant: the admissible set is a bitset over action ids,
  /// handed as packed words to the dispatched util/simd.h masked-argmax
  /// kernel (AVX2 scans the row four doubles at a time; the scalar level
  /// skips disallowed actions 64 at a time). Identical result and tie-break
  /// semantics (lowest allowed id wins ties) to the callback overload —
  /// pinned by a randomized equivalence test.
  model::ItemId ArgmaxAction(model::ItemId state,
                             const util::DynamicBitset& allowed) const;

  /// Adds `local - base` entrywise into this table: the merge step of the
  /// deterministic parallel learner, which folds each worker's TD deltas
  /// relative to the round's snapshot back into the shared table. All three
  /// tables must share one dimension. Applied in fixed worker order, the
  /// floating-point evaluation order — and therefore the merged table — is
  /// bit-reproducible.
  void AccumulateDelta(const QTable& local, const QTable& base);

  /// Multiplies every entry by `factor`. The policy-iteration loop uses
  /// this to decay a locked-in table when the greedy rollout still violates
  /// constraints.
  void Scale(double factor);

  /// Adds independent uniform noise in [0, magnitude) to every entry.
  /// Used by the policy-iteration restart to re-roll the greedy tie order
  /// without erasing strong rankings.
  void AddNoise(util::Rng& rng, double magnitude);

  /// Largest absolute entry (convergence diagnostics).
  double MaxAbsValue() const;

  /// Fraction of non-zero entries (how much of the state-action space the
  /// learner visited).
  double NonZeroFraction() const;

  /// Invokes `fn(state, action, value)` for every non-zero cell in
  /// ascending (state, action) order — the traversal SparseQTable offers
  /// under the same name, which the snapshot writer is generic over.
  template <typename Fn>
  void ForEachNonZeroEntrySorted(Fn&& fn) const {
    for (std::size_t s = 0; s < num_items_; ++s) {
      const double* row = values_.data() + s * num_items_;
      for (std::size_t a = 0; a < num_items_; ++a) {
        if (row[a] == 0.0) continue;
        fn(static_cast<model::ItemId>(s), static_cast<model::ItemId>(a),
           row[a]);
      }
    }
  }

  /// The raw row-major |I| x |I| payload.
  const std::vector<double>& values() const { return values_; }

 private:
  std::size_t num_items_;
  std::vector<double> values_;  // row-major |I| x |I|
};

/// Exact (bitwise double) equality of dimension and every entry.
bool operator==(const QTable& a, const QTable& b);
inline bool operator!=(const QTable& a, const QTable& b) { return !(a == b); }

}  // namespace rlplanner::mdp

#endif  // RLPLANNER_MDP_Q_TABLE_H_
