#include "model/catalog.h"

#include <sstream>

namespace rlplanner::model {

Catalog::Catalog(Domain domain, std::vector<std::string> vocabulary)
    : domain_(domain),
      vocabulary_(std::move(vocabulary)),
      items_with_topic_(vocabulary_.size()) {
  for (std::size_t i = 0; i < vocabulary_.size(); ++i) {
    topic_index_.emplace(vocabulary_[i], static_cast<int>(i));
  }
}

util::Result<ItemId> Catalog::AddItem(Item item) {
  if (code_index_.contains(item.code)) {
    return util::Status::AlreadyExists("duplicate item code: " + item.code);
  }
  if (item.topics.size() != vocabulary_.size()) {
    std::ostringstream msg;
    msg << "item " << item.code << " topic vector size " << item.topics.size()
        << " != vocabulary size " << vocabulary_.size();
    return util::Status::InvalidArgument(msg.str());
  }
  const ItemId id = static_cast<ItemId>(items_.size());
  item.id = id;
  item.topics.ForEachSetBit(
      [&](std::size_t topic) { items_with_topic_[topic].push_back(id); });
  code_index_.emplace(item.code, id);
  items_.push_back(std::move(item));
  return id;
}

util::Result<ItemId> Catalog::FindByCode(std::string_view code) const {
  auto it = code_index_.find(std::string(code));
  if (it == code_index_.end()) {
    return util::Status::NotFound("no item with code: " + std::string(code));
  }
  return it->second;
}

int Catalog::TopicId(std::string_view topic) const {
  auto it = topic_index_.find(std::string(topic));
  return it == topic_index_.end() ? -1 : it->second;
}

util::Result<TopicVector> Catalog::MakeTopicVector(
    const std::vector<std::string>& topics) const {
  TopicVector bits(vocabulary_.size());
  for (const std::string& topic : topics) {
    const int id = TopicId(topic);
    if (id < 0) {
      return util::Status::InvalidArgument("unknown topic: " + topic);
    }
    bits.Set(static_cast<std::size_t>(id));
  }
  return bits;
}

int Catalog::CountByType(ItemType type) const {
  int count = 0;
  for (const Item& item : items_) {
    if (item.type == type) ++count;
  }
  return count;
}

int Catalog::CountByCategory(int category) const {
  int count = 0;
  for (const Item& item : items_) {
    if (item.category == category) ++count;
  }
  return count;
}

util::Status Catalog::Validate() const {
  for (const Item& item : items_) {
    if (item.topics.size() != vocabulary_.size()) {
      return util::Status::Internal("topic vector size mismatch for " +
                                    item.code);
    }
    if (item.category < 0 ||
        static_cast<std::size_t>(item.category) >= category_names_.size()) {
      return util::Status::Internal("category out of range for " + item.code);
    }
    for (const auto& group : item.prereqs.groups()) {
      for (ItemId member : group) {
        if (member < 0 || static_cast<std::size_t>(member) >= items_.size()) {
          return util::Status::Internal("prereq id out of range for " +
                                        item.code);
        }
        if (member == item.id) {
          return util::Status::Internal("item is its own prerequisite: " +
                                        item.code);
        }
      }
    }
    if (item.credits < 0) {
      return util::Status::Internal("negative credits for " + item.code);
    }
  }
  return util::Status::Ok();
}

}  // namespace rlplanner::model
