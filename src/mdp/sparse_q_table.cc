#include "mdp/sparse_q_table.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace rlplanner::mdp {

SparseQTable::SparseQTable(std::size_t num_items)
    : num_items_(num_items), rows_(num_items) {}

const double* SparseQTable::Find(const Row& row, std::uint32_t key) const {
  if (row.keys.empty()) return nullptr;
  const std::size_t mask = row.keys.size() - 1;
  std::size_t slot = HomeSlot(key, mask);
  while (true) {
    const std::uint32_t stored = row.keys[slot];
    if (stored == key) return &row.values[slot];
    if (stored == kEmptyKey) return nullptr;
    slot = (slot + 1) & mask;
  }
}

double* SparseQTable::FindOrInsert(Row& row, std::uint32_t key) {
  if (row.keys.empty()) {
    row.keys.assign(kInitialCapacity, kEmptyKey);
    row.values.assign(kInitialCapacity, 0.0);
  } else if ((row.size + 1) * 10 > row.keys.size() * 7) {
    Grow(row);
  }
  const std::size_t mask = row.keys.size() - 1;
  std::size_t slot = HomeSlot(key, mask);
  while (true) {
    const std::uint32_t stored = row.keys[slot];
    if (stored == key) return &row.values[slot];
    if (stored == kEmptyKey) {
      row.keys[slot] = key;
      row.values[slot] = 0.0;
      ++row.size;
      ++entry_count_;
      return &row.values[slot];
    }
    slot = (slot + 1) & mask;
  }
}

void SparseQTable::Grow(Row& row) {
  std::vector<std::uint32_t> old_keys = std::move(row.keys);
  std::vector<double> old_values = std::move(row.values);
  const std::size_t new_capacity = old_keys.size() * 2;
  row.keys.assign(new_capacity, kEmptyKey);
  row.values.assign(new_capacity, 0.0);
  const std::size_t mask = new_capacity - 1;
  for (std::size_t i = 0; i < old_keys.size(); ++i) {
    const std::uint32_t key = old_keys[i];
    if (key == kEmptyKey) continue;
    std::size_t slot = HomeSlot(key, mask);
    while (row.keys[slot] != kEmptyKey) slot = (slot + 1) & mask;
    row.keys[slot] = key;
    row.values[slot] = old_values[i];
  }
}

double SparseQTable::Get(model::ItemId state, model::ItemId action) const {
  assert(state >= 0 && static_cast<std::size_t>(state) < num_items_);
  assert(action >= 0 && static_cast<std::size_t>(action) < num_items_);
  const double* v = Find(rows_[static_cast<std::size_t>(state)],
                         static_cast<std::uint32_t>(action));
  return v != nullptr ? *v : 0.0;
}

void SparseQTable::Set(model::ItemId state, model::ItemId action,
                       double value) {
  assert(state >= 0 && static_cast<std::size_t>(state) < num_items_);
  assert(action >= 0 && static_cast<std::size_t>(action) < num_items_);
  *FindOrInsert(rows_[static_cast<std::size_t>(state)],
                static_cast<std::uint32_t>(action)) = value;
}

void SparseQTable::SarsaUpdate(model::ItemId state, model::ItemId action,
                               double reward, model::ItemId next_state,
                               model::ItemId next_action, double alpha,
                               double gamma) {
  const double next_q = (next_state >= 0 && next_action >= 0)
                            ? Get(next_state, next_action)
                            : 0.0;
  const double current = Get(state, action);
  Set(state, action, current + alpha * (reward + gamma * next_q - current));
}

model::ItemId SparseQTable::ArgmaxAction(
    model::ItemId state, const util::DynamicBitset& allowed) const {
  assert(allowed.size() == num_items_);
  const Row& row = rows_[static_cast<std::size_t>(state)];

  // Pass 1: max over stored ∩ allowed, lowest id on ties. The hash row is
  // unordered, so the lowest winning id needs an explicit comparison.
  std::uint32_t best_stored = kEmptyKey;
  double best_value = 0.0;
  std::size_t stored_allowed = 0;
  for (std::size_t i = 0; i < row.keys.size(); ++i) {
    const std::uint32_t key = row.keys[i];
    if (key == kEmptyKey || !allowed.Test(key)) continue;
    const double value = row.values[i];
    if (stored_allowed++ == 0 || value > best_value ||
        (value == best_value && key < best_stored)) {
      best_stored = key;
      best_value = value;
    }
  }
  // A strictly positive stored max beats every missing entry (0.0), and
  // when every allowed id is stored no missing entry takes part at all.
  if ((stored_allowed > 0 && best_value > 0.0) ||
      stored_allowed == allowed.Count()) {
    return stored_allowed > 0 ? static_cast<model::ItemId>(best_stored) : -1;
  }

  // Some allowed id is missing and no stored value is positive, so the max
  // is exactly 0.0 and the dense walk (first allowed adopted, replaced only
  // on strictly greater) ends on the lowest allowed id that is missing or
  // stores +-0.0. Probe ascending and stop at the first.
  for (std::size_t a = allowed.FindNext(0); a < num_items_;
       a = allowed.FindNext(a + 1)) {
    const double* v = Find(row, static_cast<std::uint32_t>(a));
    if (v == nullptr || *v == 0.0) return static_cast<model::ItemId>(a);
  }
  return -1;  // unreachable: a missing allowed id ends the walk
}

void SparseQTable::AccumulateDelta(const SparseQTable& local,
                                   const SparseQTable& base) {
  assert(num_items_ == local.num_items_ && num_items_ == base.num_items_);
  // The dense kernel computes q[i] += (local[i] - base[i]) cell by cell.
  // Replaying that expression over the sorted key-union of each row keeps
  // the merge bit-identical and the iteration order fixed, so (seed, K)
  // parallel runs remain bit-reproducible regardless of hash-row layout.
  std::vector<std::pair<std::uint32_t, double>> local_row;
  std::vector<std::pair<std::uint32_t, double>> base_row;
  for (std::size_t s = 0; s < num_items_; ++s) {
    local.SortedRowEntries(s, &local_row, /*include_zeros=*/true);
    base.SortedRowEntries(s, &base_row, /*include_zeros=*/true);
    std::size_t li = 0;
    std::size_t bi = 0;
    const auto state = static_cast<model::ItemId>(s);
    while (li < local_row.size() || bi < base_row.size()) {
      std::uint32_t key;
      double local_v = 0.0;
      double base_v = 0.0;
      if (bi >= base_row.size() ||
          (li < local_row.size() && local_row[li].first < base_row[bi].first)) {
        key = local_row[li].first;
        local_v = local_row[li].second;
        ++li;
      } else if (li >= local_row.size() ||
                 base_row[bi].first < local_row[li].first) {
        key = base_row[bi].first;
        base_v = base_row[bi].second;
        ++bi;
      } else {
        key = local_row[li].first;
        local_v = local_row[li].second;
        base_v = base_row[bi].second;
        ++li;
        ++bi;
      }
      const auto action = static_cast<model::ItemId>(key);
      const double delta = local_v - base_v;
      Set(state, action, Get(state, action) + delta);
    }
  }
}

void SparseQTable::Scale(double factor) {
  for (Row& row : rows_) {
    for (std::size_t i = 0; i < row.keys.size(); ++i) {
      if (row.keys[i] != kEmptyKey) row.values[i] *= factor;
    }
  }
}

void SparseQTable::AddNoise(util::Rng& rng, double magnitude) {
  // Row-major draw order, one draw per cell — see the header contract.
  for (std::size_t s = 0; s < num_items_; ++s) {
    const auto state = static_cast<model::ItemId>(s);
    for (std::size_t a = 0; a < num_items_; ++a) {
      const auto action = static_cast<model::ItemId>(a);
      Set(state, action, Get(state, action) + rng.NextDouble() * magnitude);
    }
  }
}

double SparseQTable::MaxAbsValue() const {
  double max_abs = 0.0;
  for (const Row& row : rows_) {
    for (std::size_t i = 0; i < row.keys.size(); ++i) {
      if (row.keys[i] == kEmptyKey) continue;
      const double a = std::fabs(row.values[i]);
      if (a > max_abs) max_abs = a;
    }
  }
  return max_abs;
}

double SparseQTable::NonZeroFraction() const {
  if (num_items_ == 0) return 0.0;
  std::size_t non_zero = 0;
  for (const Row& row : rows_) {
    for (std::size_t i = 0; i < row.keys.size(); ++i) {
      if (row.keys[i] != kEmptyKey && row.values[i] != 0.0) ++non_zero;
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

void SparseQTable::SortedRowEntries(
    std::size_t state, std::vector<std::pair<std::uint32_t, double>>* out,
    bool include_zeros) const {
  out->clear();
  const Row& row = rows_[state];
  for (std::size_t i = 0; i < row.keys.size(); ++i) {
    if (row.keys[i] == kEmptyKey) continue;
    if (!include_zeros && row.values[i] == 0.0) continue;
    out->emplace_back(row.keys[i], row.values[i]);
  }
  std::sort(out->begin(), out->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
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
