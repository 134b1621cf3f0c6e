#ifndef RLPLANNER_MDP_SPARSE_Q_TABLE_H_
#define RLPLANNER_MDP_SPARSE_Q_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mdp/q_table.h"
#include "model/prereq.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace rlplanner::mdp {

/// A sparse drop-in for QTable: one open-addressing (linear-probe) hash row
/// per state over a row index, keyed by action id. Under the prerequisite
/// DAG and the ActionMask most (state, action) pairs are never visited, so
/// at 10k-100k items the dense O(|I|^2) payload (~80 GB at 100k) collapses
/// to the visited set — typically well under 1% of the cells.
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
/// MaxAbsValue), so SarsaLearnerT/ParallelSarsaLearnerT train on it
/// unchanged. Not thread-safe for concurrent writers (the sharded learner
/// gives every worker its own copy).
class SparseQTable {
 public:
  /// All-zero (fully empty) table over `num_items` items.
  explicit SparseQTable(std::size_t num_items);

  std::size_t num_items() const { return num_items_; }

  double Get(model::ItemId state, model::ItemId action) const;
  void Set(model::ItemId state, model::ItemId action, double value);

  /// SARSA update (Eq. 9), arithmetic identical to QTable::SarsaUpdate:
  ///   Q(s,e) += alpha * (r + gamma * Q(s', e') - Q(s,e)).
  void SarsaUpdate(model::ItemId state, model::ItemId action, double reward,
                   model::ItemId next_state, model::ItemId next_action,
                   double alpha, double gamma);

  /// Callback overload with QTable's exact semantics and tie-break (the
  /// first allowed action is adopted, replaced only on strictly greater
  /// value, so the lowest allowed id attaining the row max wins; missing
  /// entries read as 0.0). O(|I|) probes — parity/diagnostic path only;
  /// hot callers hold a DynamicBitset and use the overload below.
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

  /// Bitset overload, result-identical to QTable::ArgmaxAction(state,
  /// bitset). One O(row entries) scan decides when the stored-and-allowed
  /// maximum is positive (it beats every missing 0.0 entry) or every
  /// allowed id is stored. Otherwise the maximum is exactly 0.0, and an
  /// ascending walk over the allowed set probes the row only until the
  /// first id that is missing or stores +-0.0.
  model::ItemId ArgmaxAction(model::ItemId state,
                             const util::DynamicBitset& allowed) const;

  /// Adds `local - base` entrywise (the deterministic shard merge),
  /// applied over the sorted union of the two tables' stored keys row by
  /// row — a fixed iteration order, so (seed, K) runs stay
  /// bit-reproducible. Cells stored in neither table contribute an exact
  /// dense delta of +0.0 and are skipped (see the class contract).
  void AccumulateDelta(const SparseQTable& local, const SparseQTable& base);

  /// Multiplies every stored entry by `factor`. Missing entries are 0.0 and
  /// 0.0 * factor == +0.0 for the positive decay factors the learner uses,
  /// so skipping them is exact.
  void Scale(double factor);

  /// Adds independent uniform noise in [0, magnitude) to every entry.
  /// Dense AddNoise consumes one RNG draw per cell in row-major order and
  /// leaves every cell non-zero, so the only bit-identical implementation
  /// *materializes all |I|^2 entries*. That is fine at paper scale (the
  /// restart path only fires when a safety rollout fails); large-catalog
  /// configurations must train with policy_rounds == 1, which never calls
  /// this — enforced by RlPlanner::Train(), which rejects sparse-resolved
  /// configs above kSparseAutoThreshold items with policy_rounds > 1
  /// (documented in DESIGN.md).
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
  /// snapshot writer and equality share (QTable offers the same one).
  /// Sorting is per row on a scratch copy; the hash rows themselves stay
  /// unordered.
  template <typename Fn>
  void ForEachNonZeroEntrySorted(Fn&& fn) const {
    std::vector<std::pair<std::uint32_t, double>> scratch;
    for (std::size_t s = 0; s < num_items_; ++s) {
      SortedRowEntries(s, &scratch);
      for (const auto& [action, value] : scratch) {
        fn(static_cast<model::ItemId>(s), static_cast<model::ItemId>(action),
           value);
      }
    }
  }

  /// Builds the sparse equivalent of `dense` (non-zero cells only).
  static SparseQTable FromDense(const QTable& dense);

  /// Materializes the equivalent dense table. O(|I|^2) memory — paper-scale
  /// bridging (tests) only.
  QTable ToDense() const;

 private:
  // One open-addressing row: parallel key/value arrays, power-of-two
  // capacity, linear probing, kEmptyKey marking free slots. Rows allocate
  // lazily on first insert, so untouched states cost two empty vectors.
  struct Row {
    std::vector<std::uint32_t> keys;
    std::vector<double> values;
    std::size_t size = 0;
  };

  static constexpr std::uint32_t kEmptyKey = 0xFFFFFFFFu;
  static constexpr std::size_t kInitialCapacity = 8;

  // Fibonacci-hash slot for `key` in a capacity-`mask + 1` row.
  static std::size_t HomeSlot(std::uint32_t key, std::size_t mask) {
    return (static_cast<std::size_t>(key) * 0x9E3779B9u) & mask;
  }

  // Pointer to the stored value of (row, key), or nullptr when absent.
  const double* Find(const Row& row, std::uint32_t key) const;

  // Value slot of (row, key), inserting (and growing) as needed.
  double* FindOrInsert(Row& row, std::uint32_t key);

  void Grow(Row& row);

  // Fills `out` with the row's stored (key, value) pairs sorted by key,
  // including explicit zeros when `include_zeros` is set.
  void SortedRowEntries(std::size_t state,
                        std::vector<std::pair<std::uint32_t, double>>* out,
                        bool include_zeros = false) const;

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
