#include "mdp/q_table.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rlplanner::mdp {

QTable::QTable(std::size_t num_items)
    : num_items_(num_items), values_(num_items * num_items, 0.0) {}

double QTable::Get(model::ItemId state, model::ItemId action) const {
  assert(state >= 0 && static_cast<std::size_t>(state) < num_items_);
  assert(action >= 0 && static_cast<std::size_t>(action) < num_items_);
  return values_[static_cast<std::size_t>(state) * num_items_ +
                 static_cast<std::size_t>(action)];
}

void QTable::Set(model::ItemId state, model::ItemId action, double value) {
  assert(state >= 0 && static_cast<std::size_t>(state) < num_items_);
  assert(action >= 0 && static_cast<std::size_t>(action) < num_items_);
  values_[static_cast<std::size_t>(state) * num_items_ +
          static_cast<std::size_t>(action)] = value;
}

void QTable::SarsaUpdate(model::ItemId state, model::ItemId action,
                         double reward, model::ItemId next_state,
                         model::ItemId next_action, double alpha,
                         double gamma) {
  const double next_q = (next_state >= 0 && next_action >= 0)
                            ? Get(next_state, next_action)
                            : 0.0;
  const double current = Get(state, action);
  Set(state, action, current + alpha * (reward + gamma * next_q - current));
}

model::ItemId QTable::ArgmaxAction(model::ItemId state,
                                   const util::DynamicBitset& allowed) const {
  assert(allowed.size() == num_items_);
  const double* row =
      values_.data() + static_cast<std::size_t>(state) * num_items_;
  model::ItemId best = -1;
  double best_value = 0.0;
  allowed.ForEachSetBit([&](std::size_t action) {
    if (best < 0 || row[action] > best_value) {
      best = static_cast<model::ItemId>(action);
      best_value = row[action];
    }
  });
  return best;
}

void QTable::AccumulateDelta(const QTable& local, const QTable& base) {
  assert(num_items_ == local.num_items_ && num_items_ == base.num_items_);
  for (std::size_t i = 0; i < values_.size(); ++i) {
    values_[i] += local.values_[i] - base.values_[i];
  }
}

void QTable::Scale(double factor) {
  for (double& v : values_) v *= factor;
}

void QTable::AddNoise(util::Rng& rng, double magnitude) {
  // Sequential by construction: each entry consumes the next RNG draw.
  for (double& v : values_) v += rng.NextDouble() * magnitude;
}

double QTable::MaxAbsValue() const {
  double best = 0.0;
  for (double v : values_) best = std::max(best, std::abs(v));
  return best;
}

double QTable::NonZeroFraction() const {
  if (values_.empty()) return 0.0;
  const auto non_zero = static_cast<std::size_t>(std::count_if(
      values_.begin(), values_.end(), [](double v) { return v != 0.0; }));
  return static_cast<double>(non_zero) / static_cast<double>(values_.size());
}

bool operator==(const QTable& a, const QTable& b) {
  return a.num_items() == b.num_items() && a.values() == b.values();
}

}  // namespace rlplanner::mdp
