#ifndef RLPLANNER_MDP_SPARSE_Q_TABLE_H_
#define RLPLANNER_MDP_SPARSE_Q_TABLE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mdp/q_table.h"
#include "model/prereq.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace rlplanner::mdp {

/// Read-only view of one sparse Q row in the one sparse row format: `size`
/// u32 action keys, strictly ascending, beside their f64 values. Missing
/// keys read as +0.0, the dense initial value. SparseQTable rows and the
/// rows of a mapped v2 snapshot (serve::MappedPolicy) are both stored this
/// way, and both answer `Get` and `ArgmaxAction` through this one reader.
struct KeyedRow {
  const std::uint32_t* keys = nullptr;
  const double* values = nullptr;
  std::size_t size = 0;

  /// The value stored for `action` by binary search; 0.0 when absent.
  double Get(model::ItemId action) const {
    const auto key = static_cast<std::uint32_t>(action);
    const std::uint32_t* it = std::lower_bound(keys, keys + size, key);
    return it != keys + size && *it == key ? values[it - keys] : 0.0;
  }

  /// Result-identical to QTable::ArgmaxAction(state, allowed) on a dense row
  /// holding these values: the lowest allowed id at the row maximum, -1 when
  /// nothing is allowed. One keyed-kernel scan of the stored entries decides
  /// when the stored-and-allowed maximum is positive (it beats every missing
  /// 0.0) or every allowed id is stored. Otherwise the maximum is exactly
  /// 0.0, and a merge of the allowed bits against the keys stops at the
  /// first allowed id that is missing or stores +-0.0.
  model::ItemId ArgmaxAction(const util::DynamicBitset& allowed) const;
};

/// A sparse drop-in for QTable: one row per state in the KeyedRow format
/// (ascending action keys beside their values, the row layout of a v2
/// snapshot). Under the prerequisite DAG and the ActionMask most (state,
/// action) pairs are never visited, so at 10k-100k items the dense
/// O(|I|^2) payload (~80 GB at 100k) collapses to the visited set —
/// typically well under 1% of the cells.
///
/// Semantic contract: every operation is *bit-identical* to the same
/// operation on a dense QTable whose cells equal `Get()` everywhere.
/// Missing entries read as +0.0, exactly the dense initial value, and every
/// arithmetic expression (SarsaUpdate, AccumulateDelta, Scale, AddNoise)
/// evaluates with the same operations in the same order as the dense path.
/// The one deliberate divergence: AccumulateDelta skips cells untouched by
/// the round (dense adds an exact +0.0 there), which can only flip a stored
/// -0.0 to +0.0 on the dense side — invisible to `Get`, to `operator==`
/// (double ==, which treats the zeros as equal) and to every downstream
/// consumer. The dense-vs-sparse training equivalence is pinned by test at
/// paper scale.
///
/// Satisfies EpisodeRunner's QModel concept (Get/Set/SarsaUpdate) plus the
/// learner surface (ArgmaxAction/AccumulateDelta/Scale/AddNoise/
/// MaxAbsValue), so SarsaLearnerT trains on it unchanged at every worker
/// count. Not thread-safe for concurrent writers (a sharded round gives
/// every worker its own copy).
class SparseQTable {
 public:
  /// All-zero (fully empty) table over `num_items` items.
  explicit SparseQTable(std::size_t num_items);

  std::size_t num_items() const { return num_items_; }

  double Get(model::ItemId state, model::ItemId action) const {
    assert(action >= 0 && static_cast<std::size_t>(action) < num_items_);
    return View(state).Get(action);
  }

  /// Stores `value`, inserting the key in order when it is new: an append
  /// when keys arrive ascending (FromDense, the snapshot loader).
  void Set(model::ItemId state, model::ItemId action, double value) {
    Slot(state, action) = value;
  }

  /// SARSA update (Eq. 9), arithmetic identical to QTable::SarsaUpdate:
  ///   Q(s,e) += alpha * (r + gamma * Q(s', e') - Q(s,e)).
  void SarsaUpdate(model::ItemId state, model::ItemId action, double reward,
                   model::ItemId next_state, model::ItemId next_action,
                   double alpha, double gamma);

  /// Result-identical to QTable::ArgmaxAction(state, bitset); see
  /// KeyedRow::ArgmaxAction.
  model::ItemId ArgmaxAction(model::ItemId state,
                             const util::DynamicBitset& allowed) const {
    assert(allowed.size() == num_items_);
    return View(state).ArgmaxAction(allowed);
  }

  /// Adds `local - base` entrywise (the deterministic shard merge): one
  /// ascending merge per row of this row with the key union of the other
  /// two — a fixed iteration order, so (seed, K) runs stay bit-reproducible.
  /// Cells stored in neither `local` nor `base` contribute an exact dense
  /// delta of +0.0 and are skipped (see the class contract).
  void AccumulateDelta(const SparseQTable& local, const SparseQTable& base);

  /// Multiplies every stored entry by `factor`. Missing entries are 0.0 and
  /// 0.0 * factor == +0.0 for the positive decay factors the learner uses,
  /// so skipping them is exact.
  void Scale(double factor);

  /// Adds independent uniform noise in [0, magnitude) to every entry.
  /// Dense AddNoise consumes one RNG draw per cell in row-major order and
  /// leaves every cell non-zero, so the only bit-identical implementation
  /// *materializes all |I|^2 entries*: each row is rebuilt full in one
  /// ascending pass. That is fine at paper scale (the restart path only
  /// fires when a safety rollout fails); large-catalog configurations must
  /// train with policy_rounds == 1, which never calls this — enforced by
  /// RlPlanner::Train(), which rejects sparse-resolved configs above
  /// kSparseAutoThreshold items with policy_rounds > 1 (documented in
  /// DESIGN.md).
  void AddNoise(util::Rng& rng, double magnitude);

  /// Largest absolute stored entry; 0.0 for an empty table (dense rows of
  /// zeros also report 0.0).
  double MaxAbsValue() const;

  /// Fraction of non-zero cells over the full |I| x |I| space — the
  /// sparsity figure the q_table_nonzero_fraction gauge exports.
  double NonZeroFraction() const;

  /// Stored entries (including explicit zeros left by updates).
  std::size_t entry_count() const { return entry_count_; }

  /// Resident bytes of the row index plus every row's key/value arrays —
  /// the q_table_bytes gauge for sparse policies.
  std::size_t MemoryBytes() const;

  /// Invokes `fn(state, action, value)` for every stored *non-zero* entry
  /// in ascending (state, action) order — the canonical traversal the
  /// snapshot writer and equality share (QTable offers the same one). The
  /// rows are stored in that order, so this is a plain walk.
  template <typename Fn>
  void ForEachNonZeroEntrySorted(Fn&& fn) const {
    for (std::size_t s = 0; s < num_items_; ++s) {
      const Row& row = rows_[s];
      for (std::size_t i = 0; i < row.keys.size(); ++i) {
        if (row.values[i] == 0.0) continue;
        fn(static_cast<model::ItemId>(s),
           static_cast<model::ItemId>(row.keys[i]), row.values[i]);
      }
    }
  }

  /// Builds the sparse equivalent of `dense` (non-zero cells only).
  static SparseQTable FromDense(const QTable& dense);

  /// Materializes the equivalent dense table. O(|I|^2) memory — paper-scale
  /// bridging (tests) only.
  QTable ToDense() const;

 private:
  // One row: ascending keys beside their values. Rows allocate on first
  // insert, so untouched states cost two empty vectors.
  struct Row {
    std::vector<std::uint32_t> keys;
    std::vector<double> values;
  };

  // The stored value of (state, action), inserted as 0.0 when missing.
  double& Slot(model::ItemId state, model::ItemId action);

  KeyedRow View(model::ItemId state) const {
    assert(state >= 0 && static_cast<std::size_t>(state) < num_items_);
    const Row& row = rows_[static_cast<std::size_t>(state)];
    return {row.keys.data(), row.values.data(), row.keys.size()};
  }

  std::size_t num_items_;
  std::vector<Row> rows_;
  std::size_t entry_count_ = 0;
};

/// Semantic equality: same dimension and the same value (double ==, missing
/// reads as 0.0) at every cell — stored zeros compare equal to absent
/// entries, mirroring what the dense comparison would see.
bool operator==(const SparseQTable& a, const SparseQTable& b);
inline bool operator!=(const SparseQTable& a, const SparseQTable& b) {
  return !(a == b);
}

}  // namespace rlplanner::mdp

#endif  // RLPLANNER_MDP_SPARSE_Q_TABLE_H_
