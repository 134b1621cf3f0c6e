#include "model/plan.h"

#include <algorithm>

#include "geo/latlng.h"

namespace rlplanner::model {

bool Plan::Contains(ItemId item) const {
  return std::find(items_.begin(), items_.end(), item) != items_.end();
}

int Plan::PositionOf(ItemId item) const {
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (items_[i] == item) return static_cast<int>(i);
  }
  return -1;
}

int Plan::LastPositionOf(ItemId item) const {
  for (std::size_t i = items_.size(); i-- > 0;) {
    if (items_[i] == item) return static_cast<int>(i);
  }
  return -1;
}

double Plan::TotalCredits(const Catalog& catalog) const {
  double total = 0.0;
  for (ItemId id : items_) total += catalog.item(id).credits;
  return total;
}

int Plan::CountByType(const Catalog& catalog, ItemType type) const {
  int count = 0;
  for (ItemId id : items_) {
    if (catalog.item(id).type == type) ++count;
  }
  return count;
}

int Plan::CountByCategory(const Catalog& catalog, int category) const {
  int count = 0;
  for (ItemId id : items_) {
    if (catalog.item(id).category == category) ++count;
  }
  return count;
}

TypeSequence Plan::ToTypeSequence(const Catalog& catalog) const {
  TypeSequence out;
  out.reserve(items_.size());
  for (ItemId id : items_) out.push_back(catalog.item(id).type);
  return out;
}

TopicVector Plan::CoveredTopics(const Catalog& catalog) const {
  TopicVector covered(catalog.vocabulary_size());
  for (ItemId id : items_) covered |= catalog.item(id).topics;
  return covered;
}

double Plan::TotalDistanceKm(const Catalog& catalog) const {
  double total = 0.0;
  for (std::size_t i = 1; i < items_.size(); ++i) {
    total += geo::HaversineKm(catalog.item(items_[i - 1]).location,
                              catalog.item(items_[i]).location);
  }
  return total;
}

double Plan::MeanPopularity(const Catalog& catalog) const {
  if (items_.empty()) return 0.0;
  double total = 0.0;
  for (ItemId id : items_) total += catalog.item(id).popularity;
  return total / static_cast<double>(items_.size());
}

std::string Plan::ToString(const Catalog& catalog) const {
  std::string out;
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i != 0) out += " -> ";
    const Item& item = catalog.item(items_[i]);
    out += item.code;
    out += " : ";
    out += ItemTypeName(item.type);
  }
  return out;
}

bool operator==(const Plan& a, const Plan& b) { return a.items() == b.items(); }

}  // namespace rlplanner::model
