// Tests for the data model: topic vectors, prerequisite expressions,
// catalogs, constraints, interleaving templates, and plans.

#include <gtest/gtest.h>

#include <vector>

#include "datagen/course_data.h"
#include "datagen/trip_data.h"
#include "geo/latlng.h"
#include "model/catalog.h"
#include "model/constraints.h"
#include "model/interleaving_template.h"
#include "model/plan.h"
#include "model/prereq.h"
#include "model/topic_vector.h"

namespace rlplanner::model {
namespace {

using util::DynamicBitset;

// ---------------------------------------------------------------- topics --

TEST(TopicVectorTest, NewlyCoveredIdealTopics) {
  const TopicVector current = DynamicBitset::FromBits({1, 0, 0, 0});
  const TopicVector item = DynamicBitset::FromBits({1, 1, 1, 0});
  const TopicVector ideal = DynamicBitset::FromBits({0, 1, 0, 1});
  // Item newly covers topics 1 and 2; only topic 1 is ideal.
  EXPECT_EQ(NewlyCoveredIdealTopics(current, item, ideal), 1u);
}

TEST(TopicVectorTest, NewCoverageIgnoresAlreadyCovered) {
  const TopicVector current = DynamicBitset::FromBits({1, 1, 0});
  const TopicVector item = DynamicBitset::FromBits({1, 1, 0});
  const TopicVector ideal = DynamicBitset::FromBits({1, 1, 1});
  EXPECT_EQ(NewlyCoveredIdealTopics(current, item, ideal), 0u);
}

TEST(TopicVectorTest, CoverageFraction) {
  const TopicVector ideal = DynamicBitset::FromBits({1, 1, 1, 1});
  EXPECT_DOUBLE_EQ(
      CoverageFraction(DynamicBitset::FromBits({1, 1, 0, 0}), ideal), 0.5);
  EXPECT_DOUBLE_EQ(
      CoverageFraction(DynamicBitset::FromBits({0, 0, 0, 0}), ideal), 0.0);
  // Empty ideal is vacuously covered.
  EXPECT_DOUBLE_EQ(CoverageFraction(DynamicBitset::FromBits({1, 0, 0, 0}),
                                    DynamicBitset(4)),
                   1.0);
}

TEST(TopicVectorTest, JaccardSimilarity) {
  const TopicVector a = DynamicBitset::FromBits({1, 1, 0, 0});
  const TopicVector b = DynamicBitset::FromBits({0, 1, 1, 0});
  EXPECT_DOUBLE_EQ(JaccardSimilarity(a, b), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(a, a), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(DynamicBitset(4), DynamicBitset(4)),
                   1.0);
}

// --------------------------------------------------------------- prereqs --

TEST(PrereqTest, EmptyAlwaysSatisfied) {
  PrereqExpr expr;
  EXPECT_TRUE(expr.SatisfiedAt({-1, -1, -1}, 0, 3));
}

TEST(PrereqTest, AndRequiresAllGroups) {
  // (0) AND (1), gap 1. Candidate at position 2.
  const PrereqExpr expr = PrereqExpr::All({0, 1});
  EXPECT_TRUE(expr.SatisfiedAt({0, 1, -1}, 2, 1));
  EXPECT_FALSE(expr.SatisfiedAt({0, -1, -1}, 2, 1));  // item 1 missing
}

TEST(PrereqTest, OrRequiresAnyMember) {
  const PrereqExpr expr = PrereqExpr::AnyOf({0, 1});
  EXPECT_TRUE(expr.SatisfiedAt({-1, 0, -1}, 2, 1));
  EXPECT_TRUE(expr.SatisfiedAt({0, -1, -1}, 2, 1));
  EXPECT_FALSE(expr.SatisfiedAt({-1, -1, -1}, 2, 1));
}

TEST(PrereqTest, GapMustBeMet) {
  // Prerequisite at position 1, candidate at 3: distance 2.
  const PrereqExpr expr = PrereqExpr::All({0});
  EXPECT_TRUE(expr.SatisfiedAt({1}, 3, 2));
  EXPECT_FALSE(expr.SatisfiedAt({1}, 3, 3));
  EXPECT_TRUE(expr.SatisfiedAt({0}, 3, 3));
}

TEST(PrereqTest, PaperCoursePlanningGapExample) {
  // "r2 = 1 if m2 or m3 is taken 1 semester (gap of 3) before m5".
  // Items: 0=m2, 1=m3 (positions); candidate m5.
  const PrereqExpr expr = PrereqExpr::AnyOf({0, 1});
  // m2 at position 0, m5 would be at position 3: distance 3 >= gap 3.
  EXPECT_TRUE(expr.SatisfiedAt({0, -1}, 3, 3));
  // m2 at position 1, m5 at position 3: distance 2 < 3.
  EXPECT_FALSE(expr.SatisfiedAt({1, -1}, 3, 3));
}

TEST(PrereqTest, ReferencedItemsDeduplicates) {
  PrereqExpr expr;
  expr.AddGroup({3, 1});
  expr.AddGroup({1, 2});
  EXPECT_EQ(expr.ReferencedItems(), (std::vector<ItemId>{1, 2, 3}));
}

TEST(PrereqTest, ToStringRendersCnf) {
  PrereqExpr expr;
  expr.AddGroup({3});
  expr.AddGroup({1, 2});
  EXPECT_EQ(expr.ToString(), "(3) AND (1 OR 2)");
}

TEST(PrereqTest, EmptyGroupsIgnored) {
  PrereqExpr expr;
  expr.AddGroup({});
  EXPECT_TRUE(expr.empty());
}

// --------------------------------------------------------------- catalog --

Catalog TwoItemCatalog() {
  Catalog catalog(Domain::kCourse, {"alpha", "beta"});
  Item a;
  a.code = "A";
  a.name = "Item A";
  a.type = ItemType::kPrimary;
  a.category = 0;
  a.credits = 3.0;
  a.topics = DynamicBitset::FromBits({1, 0});
  EXPECT_TRUE(catalog.AddItem(std::move(a)).ok());
  Item b;
  b.code = "B";
  b.name = "Item B";
  b.type = ItemType::kSecondary;
  b.category = 1;
  b.credits = 3.0;
  b.topics = DynamicBitset::FromBits({0, 1});
  b.prereqs = PrereqExpr::All({0});
  EXPECT_TRUE(catalog.AddItem(std::move(b)).ok());
  return catalog;
}

TEST(CatalogTest, AddAssignsDenseIds) {
  const Catalog catalog = TwoItemCatalog();
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog.item(0).code, "A");
  EXPECT_EQ(catalog.item(1).code, "B");
  EXPECT_EQ(catalog.item(1).id, 1);
}

TEST(CatalogTest, DuplicateCodeRejected) {
  Catalog catalog = TwoItemCatalog();
  Item dup;
  dup.code = "A";
  dup.topics = DynamicBitset(2);
  auto added = catalog.AddItem(std::move(dup));
  EXPECT_FALSE(added.ok());
  EXPECT_EQ(added.status().code(), util::StatusCode::kAlreadyExists);
}

TEST(CatalogTest, TopicVectorSizeMismatchRejected) {
  Catalog catalog = TwoItemCatalog();
  Item bad;
  bad.code = "C";
  bad.topics = DynamicBitset(5);
  EXPECT_FALSE(catalog.AddItem(std::move(bad)).ok());
}

TEST(CatalogTest, FindByCode) {
  const Catalog catalog = TwoItemCatalog();
  EXPECT_EQ(catalog.FindByCode("B").value(), 1);
  EXPECT_FALSE(catalog.FindByCode("missing").ok());
}

TEST(CatalogTest, TopicLookupAndMakeVector) {
  const Catalog catalog = TwoItemCatalog();
  EXPECT_EQ(catalog.TopicId("alpha"), 0);
  EXPECT_EQ(catalog.TopicId("nope"), -1);
  auto bits = catalog.MakeTopicVector({"beta"});
  ASSERT_TRUE(bits.ok());
  EXPECT_TRUE(bits.value().Test(1));
  EXPECT_FALSE(catalog.MakeTopicVector({"nope"}).ok());
}

TEST(CatalogTest, CountsAndTypeQueries) {
  const Catalog catalog = TwoItemCatalog();
  EXPECT_EQ(catalog.CountByType(ItemType::kPrimary), 1);
  EXPECT_EQ(catalog.CountByType(ItemType::kSecondary), 1);
  EXPECT_EQ(catalog.CountByCategory(0), 1);
}

// The topic postings AddItem maintains equal a scan of every item's topic
// vector, ascending, on every built-in dataset.
TEST(CatalogTest, ItemsWithTopicMatchesScan) {
  for (const datagen::Dataset& dataset :
       {datagen::MakeUniv1DsCt(), datagen::MakeUniv1Cybersecurity(),
        datagen::MakeUniv1Cs(), datagen::MakeUniv2Ds(),
        datagen::MakeTableIIToy(), datagen::MakeNycTrip(),
        datagen::MakeParisTrip()}) {
    SCOPED_TRACE(dataset.name);
    const Catalog& catalog = dataset.catalog;
    for (std::size_t topic = 0; topic < catalog.vocabulary_size(); ++topic) {
      std::vector<ItemId> scan;
      for (const Item& item : catalog.items()) {
        if (item.topics.Test(topic)) scan.push_back(item.id);
      }
      EXPECT_EQ(catalog.ItemsWithTopic(topic), scan) << "topic " << topic;
    }
  }
}

TEST(CatalogTest, ValidatePassesOnConsistentCatalog) {
  EXPECT_TRUE(TwoItemCatalog().Validate().ok());
}

TEST(CatalogTest, ValidateCatchesSelfPrereq) {
  Catalog catalog(Domain::kCourse, {"t"});
  Item item;
  item.code = "X";
  item.topics = DynamicBitset(1);
  item.category = 0;
  item.prereqs = PrereqExpr::All({0});  // itself
  EXPECT_TRUE(catalog.AddItem(std::move(item)).ok());
  EXPECT_FALSE(catalog.Validate().ok());
}

// ------------------------------------------------------------- templates --

TEST(TemplateTest, FromStringsParses) {
  auto parsed = InterleavingTemplate::FromStrings({"PPS", "pss"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value().length(), 3u);
  EXPECT_EQ(parsed.value().permutation(0)[0], ItemType::kPrimary);
  EXPECT_EQ(parsed.value().permutation(1)[1], ItemType::kSecondary);
}

TEST(TemplateTest, RejectsUnknownCharacters) {
  EXPECT_FALSE(InterleavingTemplate::FromStrings({"PXS"}).ok());
}

TEST(TemplateTest, ValidateCountsEnforcesSplit) {
  auto parsed = InterleavingTemplate::FromStrings({"PPSS"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().ValidateCounts(2, 2).ok());
  EXPECT_FALSE(parsed.value().ValidateCounts(3, 1).ok());
}

TEST(TemplateTest, CompactStringRoundTrip) {
  auto parsed = InterleavingTemplate::FromStrings({"PSPS"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(InterleavingTemplate::ToCompactString(
                parsed.value().permutation(0)),
            "PSPS");
}

// ------------------------------------------------------------ constraints --

TEST(HardConstraintsTest, HorizonFromUniformCredits) {
  HardConstraints hard;
  hard.min_credits = 30.0;
  hard.num_primary = 5;
  hard.num_secondary = 5;
  EXPECT_EQ(hard.HorizonForUniformCredits(3.0), 10);
  EXPECT_EQ(hard.TotalItems(), 10);
}

TEST(HardConstraintsTest, ValidateRejectsBadValues) {
  HardConstraints hard;
  hard.gap = 0;
  EXPECT_FALSE(hard.Validate().ok());
  hard.gap = 1;
  hard.num_primary = -1;
  EXPECT_FALSE(hard.Validate().ok());
  hard.num_primary = 2;
  hard.category_min_counts = {5, 5};  // sums beyond total items (2)
  EXPECT_FALSE(hard.Validate().ok());
}

TEST(TaskInstanceTest, ValidateChecksCrossFieldConsistency) {
  Catalog catalog = TwoItemCatalog();
  TaskInstance instance;
  instance.catalog = &catalog;
  instance.hard.min_credits = 6.0;
  instance.hard.num_primary = 1;
  instance.hard.num_secondary = 1;
  instance.hard.gap = 1;
  instance.soft.ideal_topics = DynamicBitset(2);
  EXPECT_TRUE(instance.Validate().ok());

  // Wrong ideal vector size.
  instance.soft.ideal_topics = DynamicBitset(3);
  EXPECT_FALSE(instance.Validate().ok());
  instance.soft.ideal_topics = DynamicBitset(2);

  // More primaries required than the catalog has.
  instance.hard.num_primary = 2;
  EXPECT_FALSE(instance.Validate().ok());
}

TEST(TaskInstanceTest, ValidateRequiresCatalog) {
  TaskInstance instance;
  EXPECT_FALSE(instance.Validate().ok());
}

// ------------------------------------------------------------------ plan --

TEST(PlanTest, BasicAccessors) {
  const Catalog catalog = TwoItemCatalog();
  Plan plan({1, 0});
  EXPECT_EQ(plan.size(), 2u);
  EXPECT_TRUE(plan.Contains(0));
  EXPECT_EQ(plan.PositionOf(1), 0);
  EXPECT_EQ(plan.PositionOf(0), 1);
  EXPECT_EQ(plan.PositionOf(99), -1);
  EXPECT_DOUBLE_EQ(plan.TotalCredits(catalog), 6.0);
  EXPECT_EQ(plan.CountByType(catalog, ItemType::kPrimary), 1);
  EXPECT_EQ(plan.CountByCategory(catalog, 1), 1);
}

TEST(PlanTest, PositionTable) {
  Plan plan({1});
  const auto table = plan.PositionTable(3);
  EXPECT_EQ(table, (std::vector<int>{-1, 0, -1}));
}

TEST(PlanTest, TypeSequenceAndCoveredTopics) {
  const Catalog catalog = TwoItemCatalog();
  Plan plan({0, 1});
  const TypeSequence types = plan.ToTypeSequence(catalog);
  ASSERT_EQ(types.size(), 2u);
  EXPECT_EQ(types[0], ItemType::kPrimary);
  EXPECT_EQ(types[1], ItemType::kSecondary);
  EXPECT_EQ(plan.CoveredTopics(catalog).Count(), 2u);
}

TEST(PlanTest, ToStringRendering) {
  const Catalog catalog = TwoItemCatalog();
  Plan plan({0, 1});
  EXPECT_EQ(plan.ToString(catalog), "A : primary -> B : secondary");
}

TEST(PlanTest, EqualityByItems) {
  EXPECT_EQ(Plan({1, 2}), Plan({1, 2}));
  EXPECT_FALSE(Plan({1, 2}) == Plan({2, 1}));
}

TEST(PlanTest, TotalDistanceOverLocations) {
  Catalog catalog(Domain::kTrip, {"t"});
  auto add = [&catalog](const char* code, double lat, double lng) {
    Item item;
    item.code = code;
    item.topics = DynamicBitset::FromBits({1});
    item.category = 0;
    item.location = {lat, lng};
    EXPECT_TRUE(catalog.AddItem(std::move(item)).ok());
  };
  add("a", 40.0, -74.0);
  add("b", 40.1, -74.0);
  add("c", 40.1, -74.1);
  const Plan plan({0, 1, 2});
  const double leg1 = geo::HaversineKm(catalog.item(0).location,
                                       catalog.item(1).location);
  const double leg2 = geo::HaversineKm(catalog.item(1).location,
                                       catalog.item(2).location);
  EXPECT_NEAR(plan.TotalDistanceKm(catalog), leg1 + leg2, 1e-9);
  EXPECT_DOUBLE_EQ(Plan({0}).TotalDistanceKm(catalog), 0.0);
}

TEST(PlanTest, MeanPopularity) {
  Catalog catalog(Domain::kTrip, {"t"});
  for (double pop : {2.0, 4.0, 5.0}) {
    Item item;
    item.code = "p" + std::to_string(static_cast<int>(pop));
    item.topics = DynamicBitset::FromBits({1});
    item.category = 0;
    item.popularity = pop;
    EXPECT_TRUE(catalog.AddItem(std::move(item)).ok());
  }
  EXPECT_DOUBLE_EQ(Plan({0, 1, 2}).MeanPopularity(catalog), 11.0 / 3.0);
  EXPECT_DOUBLE_EQ(Plan().MeanPopularity(catalog), 0.0);
}

TEST(CatalogTest, ValidateCatchesOutOfRangePrereqAndCategory) {
  Catalog catalog(Domain::kCourse, {"t"});
  Item item;
  item.code = "X";
  item.topics = DynamicBitset(1);
  item.category = 7;  // only {primary, secondary} names exist
  EXPECT_TRUE(catalog.AddItem(std::move(item)).ok());
  EXPECT_FALSE(catalog.Validate().ok());

  Catalog catalog2(Domain::kCourse, {"t"});
  Item bad_pre;
  bad_pre.code = "Y";
  bad_pre.topics = DynamicBitset(1);
  bad_pre.category = 0;
  bad_pre.prereqs = PrereqExpr::All({42});  // out of range
  EXPECT_TRUE(catalog2.AddItem(std::move(bad_pre)).ok());
  EXPECT_FALSE(catalog2.Validate().ok());

  Catalog catalog3(Domain::kCourse, {"t"});
  Item negative;
  negative.code = "Z";
  negative.topics = DynamicBitset(1);
  negative.category = 0;
  negative.credits = -3.0;
  EXPECT_TRUE(catalog3.AddItem(std::move(negative)).ok());
  EXPECT_FALSE(catalog3.Validate().ok());
}

TEST(TemplateTest, EmptyTemplateBehaviour) {
  InterleavingTemplate empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.length(), 0u);
  // Validating counts on an empty template is vacuous.
  EXPECT_TRUE(empty.ValidateCounts(3, 3).ok());
}

TEST(HardConstraintsTest, HorizonFallsBackToSplitForZeroCredits) {
  HardConstraints hard;
  hard.num_primary = 2;
  hard.num_secondary = 3;
  EXPECT_EQ(hard.HorizonForUniformCredits(0.0), 5);
}

TEST(ItemTypeTest, Names) {
  EXPECT_STREQ(ItemTypeName(ItemType::kPrimary), "primary");
  EXPECT_STREQ(ItemTypeName(ItemType::kSecondary), "secondary");
}

}  // namespace
}  // namespace rlplanner::model
