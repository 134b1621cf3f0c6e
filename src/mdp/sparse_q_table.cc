#include "mdp/sparse_q_table.h"

#include <cmath>
#include <numeric>
#include <utility>

#include "util/simd.h"

namespace rlplanner::mdp {

model::ItemId KeyedRow::ArgmaxAction(const util::DynamicBitset& allowed) const {
  // Pass 1: max over stored ∩ allowed; the kernel's lowest-key tie rule is
  // the dense walk's first entry at the max.
  const util::simd::KeyedArgmax stored = util::simd::Active().argmax_keyed_f64(
      keys, values, size, allowed.word_data(), allowed.size());
  const auto best = static_cast<std::size_t>(stored.index);
  // A strictly positive stored max beats every missing entry (0.0), and
  // when every allowed id is stored no missing entry takes part at all.
  if ((stored.count > 0 && values[best] > 0.0) ||
      stored.count == allowed.Count()) {
    return stored.count > 0 ? static_cast<model::ItemId>(keys[best]) : -1;
  }

  // Some allowed id is missing and no stored value is positive, so the max
  // is exactly 0.0 and the dense walk (first allowed adopted, replaced only
  // on strictly greater) ends on the lowest allowed id that is missing or
  // stores +-0.0. Merge the allowed bits against the keys and stop at the
  // first.
  std::size_t k = 0;
  for (std::size_t a = allowed.FindNext(0); a < allowed.size();
       a = allowed.FindNext(a + 1)) {
    while (k < size && keys[k] < a) ++k;
    if (k == size || keys[k] != a || values[k] == 0.0) {
      return static_cast<model::ItemId>(a);
    }
  }
  return -1;  // unreachable: a missing allowed id ends the walk
}

SparseQTable::SparseQTable(std::size_t num_items)
    : num_items_(num_items), rows_(num_items) {}

double& SparseQTable::Slot(model::ItemId state, model::ItemId action) {
  assert(state >= 0 && static_cast<std::size_t>(state) < num_items_);
  assert(action >= 0 && static_cast<std::size_t>(action) < num_items_);
  Row& row = rows_[static_cast<std::size_t>(state)];
  const auto key = static_cast<std::uint32_t>(action);
  const auto it = std::lower_bound(row.keys.begin(), row.keys.end(), key);
  const auto i = static_cast<std::size_t>(it - row.keys.begin());
  if (it == row.keys.end() || *it != key) {
    row.keys.insert(it, key);
    row.values.insert(row.values.begin() + static_cast<std::ptrdiff_t>(i),
                      0.0);
    ++entry_count_;
  }
  return row.values[i];
}

void SparseQTable::SarsaUpdate(model::ItemId state, model::ItemId action,
                               double reward, model::ItemId next_state,
                               model::ItemId next_action, double alpha,
                               double gamma) {
  const double next_q = (next_state >= 0 && next_action >= 0)
                            ? Get(next_state, next_action)
                            : 0.0;
  double& current = Slot(state, action);
  current = current + alpha * (reward + gamma * next_q - current);
}

void SparseQTable::AccumulateDelta(const SparseQTable& local,
                                   const SparseQTable& base) {
  assert(num_items_ == local.num_items_ && num_items_ == base.num_items_);
  // The dense kernel computes q[i] += (local[i] - base[i]) cell by cell.
  // Replaying that expression over the ascending key union of local and
  // base, merged into this row in the same pass, keeps the merge
  // bit-identical and its order fixed, so (seed, K) parallel runs remain
  // bit-reproducible.
  Row merged;
  for (std::size_t s = 0; s < num_items_; ++s) {
    const Row& l = local.rows_[s];
    const Row& b = base.rows_[s];
    if (l.keys.empty() && b.keys.empty()) continue;
    Row& row = rows_[s];
    merged.keys.clear();
    merged.values.clear();
    std::size_t ti = 0;
    std::size_t li = 0;
    std::size_t bi = 0;
    while (li < l.keys.size() || bi < b.keys.size()) {
      const bool from_local = bi == b.keys.size() ||
                              (li < l.keys.size() && l.keys[li] <= b.keys[bi]);
      const bool from_base = li == l.keys.size() ||
                             (bi < b.keys.size() && b.keys[bi] <= l.keys[li]);
      const std::uint32_t key = from_local ? l.keys[li] : b.keys[bi];
      const double local_v = from_local ? l.values[li++] : 0.0;
      const double base_v = from_base ? b.values[bi++] : 0.0;
      // This row's keys below `key` pass through unchanged.
      for (; ti < row.keys.size() && row.keys[ti] < key; ++ti) {
        merged.keys.push_back(row.keys[ti]);
        merged.values.push_back(row.values[ti]);
      }
      double current = 0.0;
      if (ti < row.keys.size() && row.keys[ti] == key) {
        current = row.values[ti++];
      }
      const double delta = local_v - base_v;
      merged.keys.push_back(key);
      merged.values.push_back(current + delta);
    }
    merged.keys.insert(merged.keys.end(), row.keys.begin() + ti,
                       row.keys.end());
    merged.values.insert(merged.values.end(), row.values.begin() + ti,
                         row.values.end());
    entry_count_ += merged.keys.size() - row.keys.size();
    std::swap(row, merged);
  }
}

void SparseQTable::Scale(double factor) {
  for (Row& row : rows_) {
    for (double& value : row.values) value *= factor;
  }
}

void SparseQTable::AddNoise(util::Rng& rng, double magnitude) {
  // Row-major draw order, one draw per cell — see the header contract.
  for (Row& row : rows_) {
    Row full;
    full.keys.resize(num_items_);
    std::iota(full.keys.begin(), full.keys.end(), 0u);
    full.values.resize(num_items_);
    std::size_t k = 0;
    for (std::size_t a = 0; a < num_items_; ++a) {
      const bool stored = k < row.keys.size() && row.keys[k] == a;
      const double current = stored ? row.values[k++] : 0.0;
      full.values[a] = current + rng.NextDouble() * magnitude;
    }
    entry_count_ += num_items_ - row.keys.size();
    row = std::move(full);
  }
}

double SparseQTable::MaxAbsValue() const {
  double max_abs = 0.0;
  for (const Row& row : rows_) {
    for (double value : row.values) {
      const double a = std::fabs(value);
      if (a > max_abs) max_abs = a;
    }
  }
  return max_abs;
}

double SparseQTable::NonZeroFraction() const {
  if (num_items_ == 0) return 0.0;
  std::size_t non_zero = 0;
  for (const Row& row : rows_) {
    for (double value : row.values) {
      if (value != 0.0) ++non_zero;
    }
  }
  return static_cast<double>(non_zero) /
         (static_cast<double>(num_items_) * static_cast<double>(num_items_));
}

std::size_t SparseQTable::MemoryBytes() const {
  std::size_t bytes = sizeof(SparseQTable) + rows_.capacity() * sizeof(Row);
  for (const Row& row : rows_) {
    bytes += row.keys.capacity() * sizeof(std::uint32_t) +
             row.values.capacity() * sizeof(double);
  }
  return bytes;
}

SparseQTable SparseQTable::FromDense(const QTable& dense) {
  SparseQTable table(dense.num_items());
  dense.ForEachNonZeroEntrySorted(
      [&](model::ItemId s, model::ItemId a, double v) { table.Set(s, a, v); });
  return table;
}

QTable SparseQTable::ToDense() const {
  QTable dense(num_items_);
  ForEachNonZeroEntrySorted([&](model::ItemId s, model::ItemId a, double v) {
    dense.Set(s, a, v);
  });
  return dense;
}

bool operator==(const SparseQTable& a, const SparseQTable& b) {
  if (a.num_items() != b.num_items()) return false;
  bool equal = true;
  a.ForEachNonZeroEntrySorted(
      [&](model::ItemId s, model::ItemId act, double v) {
        if (b.Get(s, act) != v) equal = false;
      });
  if (!equal) return false;
  b.ForEachNonZeroEntrySorted(
      [&](model::ItemId s, model::ItemId act, double v) {
        if (a.Get(s, act) != v) equal = false;
      });
  return equal;
}

}  // namespace rlplanner::mdp
