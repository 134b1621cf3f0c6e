// Tests for dataset CSV persistence: serialize -> parse round trips for
// all built-in catalogs, plus failure modes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "datagen/course_data.h"
#include "datagen/io.h"
#include "datagen/trip_data.h"

namespace rlplanner::datagen {
namespace {

void ExpectCatalogsEqual(const model::Catalog& a, const model::Catalog& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.vocabulary(), b.vocabulary());
  EXPECT_EQ(a.category_names(), b.category_names());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const model::Item& x = a.item(static_cast<model::ItemId>(i));
    const model::Item& y = b.item(static_cast<model::ItemId>(i));
    EXPECT_EQ(x.code, y.code);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.type, y.type);
    EXPECT_EQ(x.category, y.category);
    EXPECT_NEAR(x.credits, y.credits, 1e-6);
    EXPECT_EQ(x.topics.ToString(), y.topics.ToString());
    EXPECT_NEAR(x.location.lat, y.location.lat, 1e-4);
    EXPECT_NEAR(x.location.lng, y.location.lng, 1e-4);
    EXPECT_NEAR(x.popularity, y.popularity, 1e-6);
    EXPECT_EQ(x.primary_theme, y.primary_theme);
    EXPECT_EQ(x.prereqs.ToString(), y.prereqs.ToString());
  }
}

TEST(IoTest, ToyRoundTrips) {
  const Dataset toy = MakeTableIIToy();
  auto parsed =
      ParseCatalog(model::Domain::kCourse, SerializeCatalog(toy.catalog));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectCatalogsEqual(toy.catalog, parsed.value());
}

TEST(IoTest, AllBuiltinCatalogsRoundTrip) {
  const Dataset datasets[] = {MakeUniv1DsCt(), MakeUniv1Cybersecurity(),
                              MakeUniv1Cs(), MakeUniv2Ds()};
  for (const Dataset& dataset : datasets) {
    auto parsed = ParseCatalog(model::Domain::kCourse,
                               SerializeCatalog(dataset.catalog));
    ASSERT_TRUE(parsed.ok()) << dataset.name;
    ExpectCatalogsEqual(dataset.catalog, parsed.value());
  }
}

TEST(IoTest, TripCatalogsRoundTripWithGeoAndPopularity) {
  for (const Dataset& dataset : {MakeNycTrip(), MakeParisTrip()}) {
    auto parsed = ParseCatalog(model::Domain::kTrip,
                               SerializeCatalog(dataset.catalog));
    ASSERT_TRUE(parsed.ok()) << dataset.name;
    ExpectCatalogsEqual(dataset.catalog, parsed.value());
  }
}

TEST(IoTest, FileRoundTrip) {
  const Dataset toy = MakeTableIIToy();
  const std::string path = "/tmp/rlplanner_io_test_catalog.csv";
  ASSERT_TRUE(SaveCatalogCsv(toy.catalog, path).ok());
  auto loaded = LoadCatalogCsv(model::Domain::kCourse, path);
  ASSERT_TRUE(loaded.ok());
  ExpectCatalogsEqual(toy.catalog, loaded.value());
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileFails) {
  auto loaded =
      LoadCatalogCsv(model::Domain::kCourse, "/tmp/does_not_exist_1234.csv");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

TEST(IoTest, RejectsMissingReservedRows) {
  auto parsed = ParseCatalog(model::Domain::kCourse,
                             "code,name,type,category,credits,prereqs,"
                             "topics,lat,lng,popularity,theme\n");
  EXPECT_FALSE(parsed.ok());
}

TEST(IoTest, RejectsNarrowHeader) {
  // Rows as wide as their header pass util::ParseCsv; the parser indexes
  // columns up to `theme`, so a narrower header must fail before any read.
  auto parsed = ParseCatalog(model::Domain::kCourse,
                             "code,name,type\n__vocabulary__,,\n"
                             "__categories__,,\nm1,M1,primary\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(IoTest, RejectsUnknownTopic) {
  const Dataset toy = MakeTableIIToy();
  std::string csv = SerializeCatalog(toy.catalog);
  // Corrupt a topic name.
  const std::string needle = "clustering";
  const auto pos = csv.find(needle, csv.find("\n", csv.find("\n") + 1) + 1);
  ASSERT_NE(pos, std::string::npos);
  csv.replace(pos, needle.size(), "clusterinX");
  EXPECT_FALSE(ParseCatalog(model::Domain::kCourse, csv).ok());
}

TEST(IoTest, RejectsBadType) {
  const Dataset toy = MakeTableIIToy();
  std::string csv = SerializeCatalog(toy.catalog);
  // The first bare "primary" is the category-names row; corrupt an item's
  // *type* column instead (comma-delimited).
  const auto pos = csv.find(",primary,");
  ASSERT_NE(pos, std::string::npos);
  csv.replace(pos + 1, 7, "priZZZZ");
  EXPECT_FALSE(ParseCatalog(model::Domain::kCourse, csv).ok());
}

TEST(DatasetIoTest, FullDatasetRoundTrip) {
  for (const Dataset& dataset :
       {MakeTableIIToy(), MakeUniv2Ds(), MakeParisTrip()}) {
    auto parsed = ParseDataset(SerializeDataset(dataset));
    ASSERT_TRUE(parsed.ok()) << dataset.name << ": "
                             << parsed.status().ToString();
    const Dataset& restored = parsed.value();
    EXPECT_EQ(restored.name, dataset.name);
    EXPECT_EQ(restored.catalog.domain(), dataset.catalog.domain());
    EXPECT_EQ(restored.default_start, dataset.default_start);
    EXPECT_NEAR(restored.hard.min_credits, dataset.hard.min_credits, 1e-6);
    EXPECT_EQ(restored.hard.num_primary, dataset.hard.num_primary);
    EXPECT_EQ(restored.hard.num_secondary, dataset.hard.num_secondary);
    EXPECT_EQ(restored.hard.gap, dataset.hard.gap);
    EXPECT_EQ(restored.hard.category_min_counts,
              dataset.hard.category_min_counts);
    EXPECT_EQ(restored.hard.no_consecutive_same_theme,
              dataset.hard.no_consecutive_same_theme);
    if (std::isfinite(dataset.hard.distance_threshold_km)) {
      EXPECT_NEAR(restored.hard.distance_threshold_km,
                  dataset.hard.distance_threshold_km, 1e-6);
    } else {
      EXPECT_FALSE(std::isfinite(restored.hard.distance_threshold_km));
    }
    EXPECT_EQ(restored.soft.ideal_topics.ToString(),
              dataset.soft.ideal_topics.ToString());
    ASSERT_EQ(restored.soft.interleaving.size(),
              dataset.soft.interleaving.size());
    for (std::size_t i = 0; i < dataset.soft.interleaving.size(); ++i) {
      EXPECT_EQ(model::InterleavingTemplate::ToCompactString(
                    restored.soft.interleaving.permutation(i)),
                model::InterleavingTemplate::ToCompactString(
                    dataset.soft.interleaving.permutation(i)));
    }
    ExpectCatalogsEqual(dataset.catalog, restored.catalog);
    // The restored dataset is directly plannable.
    EXPECT_TRUE(restored.Instance().Validate().ok()) << dataset.name;
  }
}

TEST(DatasetIoTest, FileRoundTrip) {
  const Dataset toy = MakeTableIIToy();
  const std::string path = "/tmp/rlplanner_io_test_dataset.csv";
  ASSERT_TRUE(SaveDatasetCsv(toy, path).ok());
  auto loaded = LoadDatasetCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().name, toy.name);
  std::remove(path.c_str());
}

TEST(DatasetIoTest, RejectsMissingMetaRows) {
  const Dataset toy = MakeTableIIToy();
  // A bare catalog document is not a dataset document.
  EXPECT_FALSE(ParseDataset(SerializeCatalog(toy.catalog)).ok());
  EXPECT_FALSE(ParseDataset("a,b\n1,2\n").ok());
}

TEST(DatasetIoTest, RejectsNarrowHeader) {
  auto parsed = ParseDataset(
      "code,name,type\n__meta__,x,course\n__hard__,1,1\n__soft__,PS,\n"
      "__vocabulary__,,\n__categories__,,\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(DatasetIoTest, RejectsUnknownDomain) {
  const Dataset toy = MakeTableIIToy();
  std::string csv = SerializeDataset(toy);
  const auto pos = csv.find("course");
  ASSERT_NE(pos, std::string::npos);
  csv.replace(pos, 6, "moonxx");
  EXPECT_FALSE(ParseDataset(csv).ok());
}

TEST(IoTest, PrereqCnfRendering) {
  // The toy's m6 = (m4) AND (m2); serialized via course codes.
  const Dataset toy = MakeTableIIToy();
  const std::string csv = SerializeCatalog(toy.catalog);
  EXPECT_NE(csv.find("m4 AND m2"), std::string::npos);
  EXPECT_NE(csv.find("m2 OR m3"), std::string::npos);
}

}  // namespace
}  // namespace rlplanner::datagen
