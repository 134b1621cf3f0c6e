#ifndef RLPLANNER_MODEL_CATALOG_H_
#define RLPLANNER_MODEL_CATALOG_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "model/item.h"
#include "util/status.h"

namespace rlplanner::model {

/// Which paper domain a catalog instantiates; drives domain-specific rules
/// (trip catalogs use time/distance budgets and the consecutive-theme gap).
enum class Domain {
  kCourse = 0,
  kTrip = 1,
};

/// The item universe `I` of one dataset plus its topic vocabulary `T`.
/// Items are stored densely; `ItemId` is the index. Alongside the items the
/// catalog keeps one posting list per topic (ItemsWithTopic), appended by
/// AddItem, so code that reacts to a topic — incremental theta's coverage
/// update — walks that topic's items instead of every item's topic vector.
class Catalog {
 public:
  /// Creates an empty catalog for `domain` whose topic vectors have
  /// `vocabulary` entries.
  Catalog(Domain domain, std::vector<std::string> vocabulary);

  /// Adds `item`; its `id` is assigned (and its `topics` must match the
  /// vocabulary size) and appended to the posting list of each of its
  /// topics. Fails when the code is duplicated.
  util::Result<ItemId> AddItem(Item item);

  Domain domain() const { return domain_; }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  const Item& item(ItemId id) const { return items_.at(id); }
  const std::vector<Item>& items() const { return items_; }

  /// Item with code `code`, or NotFound.
  util::Result<ItemId> FindByCode(std::string_view code) const;

  /// Topic vocabulary `T`, id order.
  const std::vector<std::string>& vocabulary() const { return vocabulary_; }
  std::size_t vocabulary_size() const { return vocabulary_.size(); }

  /// Index of `topic` in the vocabulary, or -1.
  int TopicId(std::string_view topic) const;

  /// Ids of the items whose topic vector holds topic `topic`, ascending.
  /// Independent of any T_ideal, so every reward function over this
  /// catalog shares the lists.
  const std::vector<ItemId>& ItemsWithTopic(std::size_t topic) const {
    return items_with_topic_[topic];
  }

  /// Builds a TopicVector with 1-bits at the given topic names; unknown
  /// names produce InvalidArgument.
  util::Result<TopicVector> MakeTopicVector(
      const std::vector<std::string>& topics) const;

  /// Number of items of each type.
  int CountByType(ItemType type) const;

  /// Number of items in weight-category `category`.
  int CountByCategory(int category) const;

  /// Human-readable names for the weight categories; defaults to
  /// {"primary", "secondary"}.
  const std::vector<std::string>& category_names() const {
    return category_names_;
  }
  void set_category_names(std::vector<std::string> names) {
    category_names_ = std::move(names);
  }

  /// Validates internal consistency: prereq references in range, no
  /// self-prerequisites, topic vector sizes match, categories within the
  /// declared names.
  util::Status Validate() const;

 private:
  Domain domain_;
  std::vector<std::string> vocabulary_;
  std::unordered_map<std::string, int> topic_index_;
  std::vector<Item> items_;
  // Topic -> ascending ids of the items holding it.
  std::vector<std::vector<ItemId>> items_with_topic_;
  std::unordered_map<std::string, ItemId> code_index_;
  std::vector<std::string> category_names_ = {"primary", "secondary"};
};

}  // namespace rlplanner::model

#endif  // RLPLANNER_MODEL_CATALOG_H_
