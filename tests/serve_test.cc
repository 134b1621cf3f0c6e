// Tests for the serving layer: snapshot round-tripping (bit-exact),
// corruption/fingerprint rejection, registry hot-swap semantics under
// concurrency, admission control, deadlines, and the stats block.
//
// The concurrency tests here are the ones tools/check.sh runs under
// ThreadSanitizer (RLPLANNER_SANITIZE=thread).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/planner.h"
#include "core/scoring.h"
#include "datagen/course_data.h"
#include "datagen/synthetic.h"
#include "datagen/trip_data.h"
#include "mdp/q_table.h"
#include "mdp/reward.h"
#include "obs/debugz.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "rl/recommender.h"
#include "serve/plan_service.h"
#include "serve/policy_registry.h"
#include "serve/policy_snapshot.h"
#include "serve/stats.h"
#include "util/json.h"
#include "util/status.h"

namespace rlplanner::serve {
namespace {

using datagen::Dataset;

core::PlannerConfig ToyConfig(const Dataset& dataset, std::uint64_t seed = 17,
                              int episodes = 60) {
  core::PlannerConfig config = core::DefaultUniv1Config();
  config.sarsa.num_episodes = episodes;
  config.sarsa.start_item = dataset.default_start;
  config.seed = seed;
  return config;
}

// A quickly trained planner on the Table II toy program (6 items).
std::unique_ptr<core::RlPlanner> MakeTrainedPlanner(
    const Dataset& dataset, const model::TaskInstance& instance,
    std::uint64_t seed = 17) {
  auto planner =
      std::make_unique<core::RlPlanner>(instance, ToyConfig(dataset, seed));
  EXPECT_TRUE(planner->Train().ok());
  return planner;
}

// The dense-alias snapshot of a dense-trained planner.
PolicySnapshot DenseSnapshot(const core::RlPlanner& planner) {
  PolicySnapshot snapshot;
  snapshot.catalog_fingerprint =
      CatalogFingerprint(*planner.instance().catalog);
  snapshot.provenance = planner.config().sarsa;
  snapshot.seed = planner.config().seed;
  snapshot.table = planner.q_table();
  return snapshot;
}

TEST(PolicySnapshotTest, RoundTripIsBitExact) {
  const Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const auto planner = MakeTrainedPlanner(dataset, instance);

  const std::string bytes = DenseSnapshot(*planner).Serialize();
  EXPECT_EQ(bytes.compare(0, 8, "RLPSNAP2"), 0);  // the one file format
  auto restored = PolicySnapshot::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  // Bit-exact table, exact provenance.
  EXPECT_TRUE(restored.value().table == planner->q_table());
  EXPECT_EQ(restored.value().catalog_fingerprint,
            CatalogFingerprint(dataset.catalog));
  EXPECT_EQ(restored.value().seed, planner->config().seed);
  EXPECT_EQ(restored.value().provenance.num_episodes,
            planner->config().sarsa.num_episodes);
  EXPECT_EQ(restored.value().provenance.alpha, planner->config().sarsa.alpha);
  EXPECT_EQ(restored.value().provenance.gamma, planner->config().sarsa.gamma);

  // Greedy rollout from the restored policy is byte-identical to the
  // in-memory policy's rollout.
  core::RlPlanner loaded(instance, ToyConfig(dataset));
  ASSERT_TRUE(loaded.AdoptPolicy(restored.value().table).ok());
  auto original = planner->Recommend(dataset.default_start);
  auto roundtrip = loaded.Recommend(dataset.default_start);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(roundtrip.ok());
  EXPECT_TRUE(original.value() == roundtrip.value());
}

TEST(PolicySnapshotTest, FileRoundTrip) {
  const Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const auto planner = MakeTrainedPlanner(dataset, instance);
  const PolicySnapshot snapshot = DenseSnapshot(*planner);

  const std::string path = testing::TempDir() + "/toy_policy.snap";
  ASSERT_TRUE(snapshot.SaveToFile(path).ok());
  auto loaded = PolicySnapshot::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().table == planner->q_table());
}

TEST(PolicySnapshotTest, RejectsCorruptedPayload) {
  const Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const auto planner = MakeTrainedPlanner(dataset, instance);
  const std::string bytes = DenseSnapshot(*planner).Serialize();

  // Flip one payload byte: the checksum must catch it.
  std::string corrupted = bytes;
  corrupted[bytes.size() / 2] =
      static_cast<char>(corrupted[bytes.size() / 2] ^ 0x40);
  auto result = PolicySnapshot::Deserialize(corrupted);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos);

  // Truncation is also rejected.
  auto truncated =
      PolicySnapshot::Deserialize(bytes.substr(0, bytes.size() - 9));
  EXPECT_FALSE(truncated.ok());

  // Bad magic is rejected with a descriptive message.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  auto magic_result = PolicySnapshot::Deserialize(bad_magic);
  ASSERT_FALSE(magic_result.ok());
  EXPECT_NE(magic_result.status().message().find("magic"), std::string::npos);
}

TEST(PolicySnapshotTest, MakeSnapshotRequiresTrainedPlanner) {
  const Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  core::RlPlanner planner(instance, ToyConfig(dataset));
  auto snapshot = MakeSnapshotV2(planner);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(CatalogFingerprintTest, SensitiveToCatalogContent) {
  const Dataset toy = datagen::MakeTableIIToy();
  const Dataset univ1 = datagen::MakeUniv1DsCt();
  EXPECT_NE(CatalogFingerprint(toy.catalog),
            CatalogFingerprint(univ1.catalog));
  // Deterministic across calls.
  EXPECT_EQ(CatalogFingerprint(toy.catalog), CatalogFingerprint(toy.catalog));
}

// Every snapshot header stores the fingerprint and every install checks it,
// so a change to the hash would orphan every policy file on disk. These
// constants pin the value per catalog shape: two course catalogs, a trip
// catalog (locations, popularity, themes) and the 10k-item synthetic
// catalog the scale benchmark serves.
TEST(CatalogFingerprintTest, GoldenValues) {
  EXPECT_EQ(CatalogFingerprint(datagen::MakeTableIIToy().catalog),
            0x0a683ca8968390e3ull);
  EXPECT_EQ(CatalogFingerprint(datagen::MakeUniv1DsCt().catalog),
            0xb5896e9321b9a7e2ull);
  EXPECT_EQ(CatalogFingerprint(datagen::MakeNycTrip().catalog),
            0xfdcf32c3fddf4103ull);
  datagen::SyntheticSpec spec;
  spec.num_items = 10000;
  spec.vocab_size = 512;
  spec.seed = 7;
  EXPECT_EQ(CatalogFingerprint(datagen::GenerateSynthetic(spec).catalog),
            0x6b92ec10bdaa1736ull);
}

TEST(PolicyRegistryTest, InstallValidatesFingerprintAndDimension) {
  const Dataset toy = datagen::MakeTableIIToy();
  const model::TaskInstance instance = toy.Instance();
  const auto planner = MakeTrainedPlanner(toy, instance);
  const PolicySnapshot snapshot = DenseSnapshot(*planner);

  PolicyRegistry registry(CatalogFingerprint(toy.catalog), toy.catalog.size());
  auto installed = registry.InstallSnapshot("default", snapshot);
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  EXPECT_EQ(installed.value(), 1u);

  // A snapshot with a drifted fingerprint is refused.
  PolicySnapshot drifted = snapshot;
  drifted.catalog_fingerprint ^= 1;
  auto refused = registry.InstallSnapshot("default", drifted);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("fingerprint"), std::string::npos);

  // A wrong-dimension table is refused.
  auto wrong_dim = registry.Install("default", mdp::QTable(3), {});
  ASSERT_FALSE(wrong_dim.ok());
  EXPECT_EQ(wrong_dim.status().code(), util::StatusCode::kInvalidArgument);

  // The refused installs left the slot intact at version 1.
  auto current = registry.Current("default");
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->version, 1u);
}

TEST(PolicyRegistryTest, HotSwapPreservesOldPolicyForHolders) {
  const Dataset toy = datagen::MakeTableIIToy();
  PolicyRegistry registry(CatalogFingerprint(toy.catalog), toy.catalog.size());

  mdp::QTable a(toy.catalog.size());
  a.Set(0, 1, 1.0);
  mdp::QTable b(toy.catalog.size());
  b.Set(0, 2, 2.0);
  ASSERT_TRUE(registry.Install("default", a, {}).ok());
  auto held = registry.Current("default");
  ASSERT_TRUE(registry.Install("default", b, {}).ok());

  // The holder still sees version 1 / table a; new readers see version 2.
  EXPECT_EQ(held->version, 1u);
  ASSERT_TRUE(held->dense.has_value());
  EXPECT_TRUE(*held->dense == a);
  auto fresh = registry.Current("default");
  EXPECT_EQ(fresh->version, 2u);
  ASSERT_TRUE(fresh->dense.has_value());
  EXPECT_TRUE(*fresh->dense == b);
  EXPECT_EQ(registry.install_count(), 2u);
  EXPECT_EQ(registry.Current("missing"), nullptr);
}

// --- Canary pipeline ------------------------------------------------------

// Two distinguishable single-entry tables for canary tests.
struct CanaryFixture {
  Dataset dataset = datagen::MakeTableIIToy();
  PolicyRegistry registry{CatalogFingerprint(dataset.catalog),
                          dataset.catalog.size()};
  mdp::QTable a{dataset.catalog.size()};
  mdp::QTable b{dataset.catalog.size()};
  mdp::QTable c{dataset.catalog.size()};

  CanaryFixture() {
    a.Set(0, 1, 1.0);
    b.Set(0, 2, 2.0);
    c.Set(0, 3, 3.0);
  }
};

TEST(PolicyRegistryCanaryTest, RouteSplitsTrafficByPermilleAndIsSticky) {
  CanaryFixture fix;
  ASSERT_TRUE(fix.registry.Install("default", fix.a, {}).ok());
  auto staged = fix.registry.InstallCanary("default", fix.b, 250, {});
  ASSERT_TRUE(staged.ok());
  EXPECT_EQ(staged.value(), 2u);

  // Current() keeps answering the incumbent while the canary is staged.
  EXPECT_EQ(fix.registry.Current("default")->version, 1u);
  ASSERT_NE(fix.registry.Canary("default"), nullptr);
  EXPECT_EQ(fix.registry.Canary("default")->version, 2u);

  // Route() agrees with RouteBucket key by key — sticky assignment by
  // construction — and both sides of the split actually receive traffic.
  std::uint64_t canary_hits = 0;
  for (std::uint64_t key = 1; key <= 2000; ++key) {
    const auto routed = fix.registry.Route("default", key);
    ASSERT_NE(routed, nullptr);
    const bool expect_canary = PolicyRegistry::RouteBucket(key) < 250;
    EXPECT_EQ(routed->version, expect_canary ? 2u : 1u) << "key " << key;
    canary_hits += expect_canary ? 1 : 0;
    EXPECT_EQ(fix.registry.Route("default", key)->version, routed->version);
  }
  EXPECT_GT(canary_hits, 0u);
  EXPECT_LT(canary_hits, 2000u);
  // A 250/1000 split over SplitMix64-mixed buckets lands near a quarter.
  EXPECT_NEAR(static_cast<double>(canary_hits) / 2000.0, 0.25, 0.05);
}

TEST(PolicyRegistryCanaryTest, PermilleExtremesRouteEverythingOneWay) {
  CanaryFixture fix;
  ASSERT_TRUE(fix.registry.Install("none", fix.a, {}).ok());
  ASSERT_TRUE(fix.registry.Install("all", fix.a, {}).ok());
  ASSERT_TRUE(fix.registry.InstallCanary("none", fix.b, 0, {}).ok());
  ASSERT_TRUE(fix.registry.InstallCanary("all", fix.b, 1000, {}).ok());
  const std::uint64_t none_incumbent = fix.registry.Current("none")->version;
  const std::uint64_t all_canary = fix.registry.Canary("all")->version;
  for (std::uint64_t key = 1; key <= 500; ++key) {
    EXPECT_EQ(fix.registry.Route("none", key)->version, none_incumbent);
    EXPECT_EQ(fix.registry.Route("all", key)->version, all_canary);
  }
}

TEST(PolicyRegistryCanaryTest, RouteBucketIsDeterministicAndInRange) {
  std::uint64_t low = 0;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    const std::uint32_t bucket = PolicyRegistry::RouteBucket(key);
    EXPECT_LT(bucket, 1000u);
    EXPECT_EQ(bucket, PolicyRegistry::RouteBucket(key));
    low += bucket < 500 ? 1 : 0;
  }
  // SplitMix64 mixing spreads sequential keys across the bucket space.
  EXPECT_GT(low, 350u);
  EXPECT_LT(low, 650u);
}

TEST(PolicyRegistryCanaryTest, CanaryRequiresAnIncumbent) {
  CanaryFixture fix;
  auto refused = fix.registry.InstallCanary("empty", fix.b, 200, {});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(fix.registry.Current("empty"), nullptr);
  EXPECT_EQ(fix.registry.install_count(), 0u);
}

TEST(PolicyRegistryCanaryTest, CanarySnapshotValidatesFingerprint) {
  CanaryFixture fix;
  ASSERT_TRUE(fix.registry.Install("default", fix.a, {}).ok());
  PolicySnapshot snapshot;
  snapshot.catalog_fingerprint = fix.registry.catalog_fingerprint() ^ 1;
  snapshot.table = fix.b;
  auto refused = fix.registry.InstallCanarySnapshot("default", snapshot, 200);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(fix.registry.Canary("default"), nullptr);
}

TEST(PolicyRegistryCanaryTest, PromoteKeepsVersionAndRetainsPrevious) {
  CanaryFixture fix;
  ASSERT_TRUE(fix.registry.Install("default", fix.a, {}).ok());
  auto staged = fix.registry.InstallCanary("default", fix.b, 200, {});
  ASSERT_TRUE(staged.ok());
  ASSERT_TRUE(fix.registry.PromoteCanary("default").ok());

  // The canary became the incumbent under the version it was installed
  // with; the old incumbent is retained for Rollback.
  auto current = fix.registry.Current("default");
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->version, staged.value());
  ASSERT_TRUE(current->dense.has_value());
  EXPECT_TRUE(*current->dense == fix.b);
  EXPECT_EQ(fix.registry.Canary("default"), nullptr);
  auto info = fix.registry.Info("default");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->incumbent_version, 2u);
  EXPECT_EQ(info->canary_version, 0u);
  EXPECT_EQ(info->previous_version, 1u);
  // Promotion reuses the staged policy: no new install.
  EXPECT_EQ(fix.registry.install_count(), 2u);

  // With no canary staged, promotion has nothing to act on.
  const util::Status refused = fix.registry.PromoteCanary("default");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), util::StatusCode::kFailedPrecondition);
}

TEST(PolicyRegistryCanaryTest, RollbackDropsStagedCanary) {
  CanaryFixture fix;
  ASSERT_TRUE(fix.registry.Install("default", fix.a, {}).ok());
  ASSERT_TRUE(fix.registry.InstallCanary("default", fix.b, 200, {}).ok());
  ASSERT_TRUE(fix.registry.Rollback("default").ok());
  EXPECT_EQ(fix.registry.Canary("default"), nullptr);
  EXPECT_EQ(fix.registry.Current("default")->version, 1u);
  for (std::uint64_t key = 1; key <= 100; ++key) {
    EXPECT_EQ(fix.registry.Route("default", key)->version, 1u);
  }
}

TEST(PolicyRegistryCanaryTest, RollbackRestoresExactPreviousObject) {
  CanaryFixture fix;
  ASSERT_TRUE(fix.registry.Install("default", fix.a, {}).ok());
  const auto original = fix.registry.Current("default");
  ASSERT_TRUE(fix.registry.Install("default", fix.b, {}).ok());
  ASSERT_TRUE(fix.registry.Rollback("default").ok());

  // The same ServablePolicy object, original version number included — not
  // a re-publication.
  const auto restored = fix.registry.Current("default");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored.get(), original.get());
  EXPECT_EQ(restored->version, 1u);
  // The restore consumed the retained previous: a second rollback has
  // nothing left to restore.
  const util::Status refused = fix.registry.Rollback("default");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), util::StatusCode::kFailedPrecondition);
  // Unknown slots are NotFound, not FailedPrecondition.
  EXPECT_EQ(fix.registry.Rollback("missing").code(),
            util::StatusCode::kNotFound);
}

TEST(PolicyRegistryCanaryTest, DirectInstallSupersedesStagedCanary) {
  CanaryFixture fix;
  ASSERT_TRUE(fix.registry.Install("default", fix.a, {}).ok());
  ASSERT_TRUE(fix.registry.InstallCanary("default", fix.b, 200, {}).ok());
  auto direct = fix.registry.Install("default", fix.c, {});
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct.value(), 3u);

  // The staged canary is gone; the old incumbent (not the canary) is the
  // rollback target.
  EXPECT_EQ(fix.registry.Canary("default"), nullptr);
  EXPECT_EQ(fix.registry.Current("default")->version, 3u);
  auto info = fix.registry.Info("default");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->previous_version, 1u);
  ASSERT_TRUE(fix.registry.Rollback("default").ok());
  EXPECT_EQ(fix.registry.Current("default")->version, 1u);
}

// --- PlanService ----------------------------------------------------------

struct ServingFixture {
  // The Table II toy program by default; trip datasets pass the trip
  // reward weights.
  explicit ServingFixture(
      Dataset source = datagen::MakeTableIIToy(),
      mdp::RewardWeights reward = core::DefaultUniv1Config().reward)
      : dataset(std::move(source)),
        instance(dataset.Instance()),
        config(ToyConfig(dataset)),
        registry(CatalogFingerprint(dataset.catalog), dataset.catalog.size()) {
    config.reward = std::move(reward);
  }

  // Trains with `seed` and installs the policy under `name`.
  std::uint64_t InstallTrained(const std::string& name, std::uint64_t seed) {
    config.seed = seed;
    core::RlPlanner planner(instance, config);
    EXPECT_TRUE(planner.Train().ok());
    auto installed =
        registry.Install(name, planner.q_table(), config.sarsa, seed);
    EXPECT_TRUE(installed.ok());
    return installed.value();
  }

  // The response Execute owes `request`: the greedy rollout under its
  // policy over a reward built from scratch for the request's instance,
  // T_ideal override applied, and that plan's score and validity report.
  PlanResponse Oracle(const PlanRequest& request) const {
    const auto policy = registry.Current(request.policy_name);
    model::TaskInstance local = instance;
    if (request.ideal_topics.has_value()) {
      local.soft.ideal_topics =
          dataset.catalog.MakeTopicVector(*request.ideal_topics).value();
    }
    const mdp::RewardFunction reward(local, config.reward);
    rl::RecommendConfig recommend;
    recommend.start_item = request.start_item;
    recommend.excluded = request.excluded;
    recommend.mask_type_overflow = policy->provenance.mask_type_overflow;
    PlanResponse response;
    response.policy_version = policy->version;
    response.plan = policy->VisitQ([&](const auto& q) {
      return rl::RecommendPlan(q, local, reward, recommend);
    });
    response.score = core::ScorePlan(local, response.plan);
    core::ValidationReport report = core::ValidatePlan(local, response.plan);
    response.valid = report.valid;
    response.violations = std::move(report.violations);
    return response;
  }

  Dataset dataset;
  model::TaskInstance instance;
  core::PlannerConfig config;
  PolicyRegistry registry;
};

// Distinct ideal-topic profiles over `catalog`'s vocabulary (which must
// hold at least `count` topics): profile k holds every (k + 2)-th topic
// from topic k on.
std::vector<std::vector<std::string>> IdealTopicProfiles(
    const model::Catalog& catalog, std::size_t count) {
  const std::vector<std::string>& vocabulary = catalog.vocabulary();
  EXPECT_GE(vocabulary.size(), count);
  std::vector<std::vector<std::string>> profiles(count);
  for (std::size_t k = 0; k < count; ++k) {
    for (std::size_t t = k; t < vocabulary.size(); t += k + 2) {
      profiles[k].push_back(vocabulary[t]);
    }
  }
  return profiles;
}

void ExpectOracleResponse(const PlanResponse& served,
                          const PlanResponse& oracle) {
  EXPECT_TRUE(served.plan == oracle.plan);
  EXPECT_EQ(served.score, oracle.score);
  EXPECT_EQ(served.valid, oracle.valid);
  EXPECT_EQ(served.violations, oracle.violations);
  EXPECT_EQ(served.policy_version, oracle.policy_version);
}

TEST(PlanServiceTest, ServesValidatedPlansWithMetadata) {
  ServingFixture fix;
  fix.InstallTrained("default", 17);
  PlanServiceConfig service_config;
  service_config.num_workers = 2;
  PlanService service(fix.instance, fix.config.reward, fix.registry,
                      service_config);
  service.Start();

  PlanRequest request;
  request.start_item = fix.dataset.default_start;
  auto submitted = service.Submit(request);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  auto result = std::move(submitted).value().get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().plan.empty());
  EXPECT_EQ(result.value().policy_version, 1u);
  EXPECT_GE(result.value().exec_ms, 0.0);
  EXPECT_GE(result.value().queue_ms, 0.0);
  service.Stop();

  const ServeStatsSnapshot stats = service.stats().Collect();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(PlanServiceTest, ExecuteMatchesPlannerRecommend) {
  ServingFixture fix;
  core::RlPlanner planner(fix.instance, fix.config);
  ASSERT_TRUE(planner.Train().ok());
  ASSERT_TRUE(
      fix.registry.Install("default", planner.q_table(), fix.config.sarsa, 17)
          .ok());
  PlanService service(fix.instance, fix.config.reward, fix.registry, {});

  PlanRequest request;
  request.start_item = fix.dataset.default_start;
  auto served = service.Execute(request);
  ASSERT_TRUE(served.ok());
  auto direct = planner.Recommend(fix.dataset.default_start);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(served.value().plan == direct.value());
}

TEST(PlanServiceTest, PerRequestOverridesChangeTheRollout) {
  ServingFixture fix;
  fix.InstallTrained("default", 17);
  PlanService service(fix.instance, fix.config.reward, fix.registry, {});

  PlanRequest base;
  base.start_item = fix.dataset.default_start;
  auto base_result = service.Execute(base);
  ASSERT_TRUE(base_result.ok());

  // Excluding the base plan's second item forces a different rollout.
  ASSERT_GE(base_result.value().plan.size(), 2u);
  PlanRequest excluded = base;
  excluded.excluded = {base_result.value().plan.at(1)};
  auto excluded_result = service.Execute(excluded);
  ASSERT_TRUE(excluded_result.ok());
  EXPECT_FALSE(
      excluded_result.value().plan.Contains(base_result.value().plan.at(1)));

  // An ideal-topic override resolves names against the vocabulary.
  PlanRequest override_request = base;
  override_request.ideal_topics =
      std::vector<std::string>{fix.dataset.catalog.vocabulary().front()};
  auto override_result = service.Execute(override_request);
  ASSERT_TRUE(override_result.ok()) << override_result.status().ToString();
  ExpectOracleResponse(override_result.value(), fix.Oracle(override_request));

  // Unknown topic names and out-of-range items are rejected.
  PlanRequest bad_topic = base;
  bad_topic.ideal_topics = std::vector<std::string>{"no-such-topic"};
  EXPECT_FALSE(service.Execute(bad_topic).ok());
  PlanRequest bad_start = base;
  bad_start.start_item = 999;
  EXPECT_EQ(service.Execute(bad_start).status().code(),
            util::StatusCode::kOutOfRange);
  PlanRequest bad_excluded = base;
  bad_excluded.excluded = {-3};
  EXPECT_EQ(service.Execute(bad_excluded).status().code(),
            util::StatusCode::kOutOfRange);
  PlanRequest bad_policy = base;
  bad_policy.policy_name = "missing";
  EXPECT_EQ(service.Execute(bad_policy).status().code(),
            util::StatusCode::kNotFound);
}

// Each ideal-topics override is served exactly as a reward built from
// scratch for it plans, scores and validates, on a course and a trip
// catalog (the trip one shares the theme sets and the distance matrix).
TEST(PlanServiceTest, OverridesMatchAFullRewardOracle) {
  for (const bool trip : {false, true}) {
    SCOPED_TRACE(trip ? "nyc" : "univ1-dsct");
    ServingFixture fix(
        trip ? datagen::MakeNycTrip() : datagen::MakeUniv1DsCt(),
        trip ? core::DefaultTripConfig().reward
             : core::DefaultUniv1Config().reward);
    fix.InstallTrained("default", 17);
    const PlanService service(fix.instance, fix.config.reward, fix.registry,
                              {});
    const auto profiles = IdealTopicProfiles(fix.dataset.catalog, 8);
    for (std::size_t k = 0; k < profiles.size(); ++k) {
      PlanRequest request;
      request.start_item = fix.dataset.default_start;
      request.ideal_topics = profiles[k];
      if (k % 2 == 1) request.excluded = {static_cast<model::ItemId>(k)};
      auto served = service.Execute(request);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      ExpectOracleResponse(served.value(), fix.Oracle(request));
    }
  }
}

// Overrides from several profiles run at once on several workers, beside
// default-T_ideal requests; all of them share the served reward's index.
TEST(PlanServiceTest, ConcurrentOverridesMatchTheOracle) {
  ServingFixture fix(datagen::MakeUniv1DsCt());
  fix.InstallTrained("default", 17);
  PlanServiceConfig service_config;
  service_config.num_workers = 4;
  PlanService service(fix.instance, fix.config.reward, fix.registry,
                      service_config);
  service.Start();

  const auto profiles = IdealTopicProfiles(fix.dataset.catalog, 12);
  std::vector<PlanRequest> requests;
  for (int round = 0; round < 4; ++round) {
    for (const std::vector<std::string>& profile : profiles) {
      PlanRequest request;
      request.start_item = fix.dataset.default_start;
      request.ideal_topics = profile;
      requests.push_back(request);
    }
    PlanRequest base;
    base.start_item = fix.dataset.default_start;
    requests.push_back(base);
  }
  std::vector<std::future<util::Result<PlanResponse>>> futures;
  for (const PlanRequest& request : requests) {
    auto submitted = service.Submit(request);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted).value());
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto served = futures[i].get();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ExpectOracleResponse(served.value(), fix.Oracle(requests[i]));
  }
  service.Stop();
  EXPECT_EQ(service.stats().Collect().failed, 0u);
}

TEST(PlanServiceTest, AdmissionControlRejectsWhenQueueIsFull) {
  ServingFixture fix;
  fix.InstallTrained("default", 17);
  PlanServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.max_queue = 2;
  PlanService service(fix.instance, fix.config.reward, fix.registry,
                      service_config);

  PlanRequest request;
  request.start_item = fix.dataset.default_start;
  // Submitting before Start() is a precondition failure, not a crash.
  EXPECT_EQ(service.Submit(request).status().code(),
            util::StatusCode::kFailedPrecondition);

  service.Start();
  // Flood a 1-worker service with a 2-deep queue: at least one submission
  // must bounce with ResourceExhausted, and every accepted one completes.
  std::vector<std::future<util::Result<PlanResponse>>> futures;
  std::uint64_t rejected = 0;
  for (int i = 0; i < 64; ++i) {
    auto submitted = service.Submit(request);
    if (submitted.ok()) {
      futures.push_back(std::move(submitted).value());
    } else {
      ASSERT_EQ(submitted.status().code(),
                util::StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().ok());
  }
  service.Stop();
  const ServeStatsSnapshot stats = service.stats().Collect();
  EXPECT_EQ(stats.rejected_queue_full, rejected);
  EXPECT_EQ(stats.completed, futures.size());
  EXPECT_EQ(stats.submitted, 64u);
  // Everything submitted was either accepted or rejected — nothing dropped.
  EXPECT_EQ(stats.accepted + stats.rejected_queue_full, stats.submitted);
}

TEST(PlanServiceTest, ExpiredDeadlineIsReportedNotExecuted) {
  ServingFixture fix;
  fix.InstallTrained("default", 17);
  PlanServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.max_queue = 64;
  PlanService service(fix.instance, fix.config.reward, fix.registry,
                      service_config);
  service.Start();

  // A microscopic deadline expires while the request waits behind the
  // saturated single worker.
  PlanRequest request;
  request.start_item = fix.dataset.default_start;
  request.deadline_ms = 0.0001;
  std::vector<std::future<util::Result<PlanResponse>>> futures;
  for (int i = 0; i < 32; ++i) {
    auto submitted = service.Submit(request);
    if (submitted.ok()) futures.push_back(std::move(submitted).value());
  }
  std::uint64_t expired = 0;
  for (auto& future : futures) {
    auto result = future.get();
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
      ++expired;
    }
  }
  service.Stop();
  EXPECT_EQ(service.stats().Collect().expired_deadline, expired);
  EXPECT_GT(expired, 0u);
}

TEST(PlanServiceTest, TraceCollectorRecordsRequestLifecycles) {
  ServingFixture fix;
  fix.InstallTrained("default", 17);
  obs::TraceCollector trace;
  PlanServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.max_queue = 2;
  service_config.trace = &trace;
  PlanService service(fix.instance, fix.config.reward, fix.registry,
                      service_config);
  service.Start();

  PlanRequest request;
  request.start_item = fix.dataset.default_start;

  // One request that completes cleanly: trace id 1.
  auto first = service.Submit(request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(std::move(first).value().get().ok());

  // Flood the 2-deep queue with full executions so some submissions are
  // queue-rejected (cf. AdmissionControlRejectsWhenQueueIsFull)...
  std::vector<std::future<util::Result<PlanResponse>>> futures;
  bool rejected = false;
  for (int i = 0; i < 64; ++i) {
    auto submitted = service.Submit(request);
    if (submitted.ok()) {
      futures.push_back(std::move(submitted).value());
    } else {
      rejected = true;
    }
  }
  for (auto& future : futures) future.get();
  futures.clear();

  // ...then a batch with a microscopic deadline that expires behind the
  // saturated worker (cf. ExpiredDeadlineIsReportedNotExecuted).
  PlanRequest hurried = request;
  hurried.deadline_ms = 0.0001;
  for (int i = 0; i < 32; ++i) {
    auto submitted = service.Submit(hurried);
    if (submitted.ok()) futures.push_back(std::move(submitted).value());
  }
  bool expired = false;
  for (auto& future : futures) {
    if (!future.get().ok()) expired = true;
  }
  service.Stop();
  ASSERT_TRUE(rejected);
  ASSERT_TRUE(expired);

  // Every lifecycle stage shows up on the timeline, including both failure
  // paths, the policy version, the per-request trace id, and the named
  // worker thread.
  const std::string json = trace.ToChromeTrace();
  EXPECT_NE(json.find("\"name\": \"serve_queue_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"serve_plan\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"serve_respond\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"queue_rejected\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"deadline_exceeded\""),
            std::string::npos);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"version\": \"1\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\": \"1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"serve-worker-0\""), std::string::npos);
  EXPECT_EQ(trace.dropped_total(), 0u);
}

// The hot-swap stress test: kClients threads request plans while the policy
// is swapped kSwaps times — zero failed requests, and every response is
// attributable to exactly one installed snapshot version (its plan matches
// the serial greedy rollout of that exact version).
TEST(PlanServiceTest, ConcurrentHotSwapStress) {
  ServingFixture fix;
  constexpr int kSwaps = 8;
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 60;  // at least; more while swapping
  // Each client has at most one request in flight when an install returns,
  // so of kPace > kClients requests finished after it, one was submitted
  // after it and ran on the new version: every version serves.
  constexpr int kPace = 2 * kClients;

  // Pre-train every policy that will be swapped in, and record the expected
  // greedy plan of each.
  std::vector<mdp::QTable> tables;
  std::vector<model::Plan> expected_plans;
  for (int i = 0; i <= kSwaps; ++i) {
    fix.config.seed = 100 + static_cast<std::uint64_t>(i);
    core::RlPlanner planner(fix.instance, fix.config);
    ASSERT_TRUE(planner.Train().ok());
    tables.push_back(planner.q_table());
    auto plan = planner.Recommend(fix.dataset.default_start);
    ASSERT_TRUE(plan.ok());
    expected_plans.push_back(plan.value());
  }

  std::map<std::uint64_t, model::Plan> expected_plan_of_version;
  auto first = fix.registry.Install("default", tables[0], fix.config.sarsa);
  ASSERT_TRUE(first.ok());
  expected_plan_of_version[first.value()] = expected_plans[0];

  PlanServiceConfig service_config;
  service_config.num_workers = kClients;
  service_config.max_queue = 1024;
  PlanService service(fix.instance, fix.config.reward, fix.registry,
                      service_config);
  service.Start();

  std::atomic<std::uint64_t> failures{0};
  std::atomic<int> finished{0};
  std::atomic<bool> swapping{true};
  std::vector<std::vector<std::pair<std::uint64_t, model::Plan>>> responses(
      kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient || swapping.load(); ++i) {
        PlanRequest request;
        request.start_item = fix.dataset.default_start;
        auto submitted = service.Submit(request);
        if (!submitted.ok()) {
          ++failures;
          finished.fetch_add(1);
          continue;
        }
        auto result = std::move(submitted).value().get();
        finished.fetch_add(1);
        if (!result.ok()) {
          ++failures;
          continue;
        }
        responses[static_cast<std::size_t>(c)].emplace_back(
            result.value().policy_version, result.value().plan);
      }
    });
  }
  // Swapper: publish versions 2..kSwaps+1 while the clients hammer the
  // service, each kPace finished requests after the last; the clients plan
  // until the last version has served. The version→plan map is only read
  // after the joins below.
  std::thread swapper([&] {
    const auto await_pace = [&] {
      const int since = finished.load();
      while (finished.load() < since + kPace) std::this_thread::yield();
    };
    for (int i = 1; i <= kSwaps; ++i) {
      await_pace();
      auto installed = fix.registry.Install(
          "default", tables[static_cast<std::size_t>(i)], fix.config.sarsa);
      EXPECT_TRUE(installed.ok());
      if (installed.ok()) {
        expected_plan_of_version[installed.value()] =
            expected_plans[static_cast<std::size_t>(i)];
      }
    }
    await_pace();
    swapping.store(false);
  });
  for (auto& client : clients) client.join();
  swapper.join();
  service.Stop();

  EXPECT_EQ(failures.load(), 0u);
  std::size_t total = 0;
  std::set<std::uint64_t> versions_seen;
  for (const auto& per_client : responses) {
    for (const auto& [version, plan] : per_client) {
      ++total;
      versions_seen.insert(version);
      const auto it = expected_plan_of_version.find(version);
      ASSERT_NE(it, expected_plan_of_version.end())
          << "response attributed to unknown version " << version;
      EXPECT_TRUE(plan == it->second)
          << "response plan does not match the rollout of version " << version;
    }
  }
  EXPECT_GE(total, static_cast<std::size_t>(kClients) * kRequestsPerClient);
  // The swaps really happened under load — every version served — and no
  // request was dropped or incorrectly rejected.
  EXPECT_EQ(fix.registry.install_count(),
            static_cast<std::uint64_t>(kSwaps) + 1);
  EXPECT_EQ(versions_seen.size(), static_cast<std::size_t>(kSwaps) + 1);
  const ServeStatsSnapshot stats = service.stats().Collect();
  EXPECT_EQ(stats.completed, total);
  EXPECT_EQ(stats.rejected_queue_full, 0u);
  EXPECT_EQ(stats.failed, 0u);
  // Per-version attribution survives the registry migration: the
  // serve_responses_total{version=...} counters must agree exactly with
  // the versions the clients actually observed on their futures.
  std::map<std::uint64_t, std::uint64_t> client_tallies;
  for (const auto& per_client : responses) {
    for (const auto& [version, plan] : per_client) ++client_tallies[version];
  }
  EXPECT_EQ(stats.responses_by_version, client_tallies);
}

TEST(PlanServiceTest, SharedRegistryExposesServeMetrics) {
  // A service handed an external obs::Registry publishes its counters
  // there, so one snapshot covers serving (and, in-process, training too).
  ServingFixture fix;
  fix.InstallTrained("default", 17);
  obs::Registry metrics_registry;
  PlanServiceConfig service_config;
  service_config.num_workers = 2;
  service_config.metrics = &metrics_registry;
  PlanService service(fix.instance, fix.config.reward, fix.registry,
                      service_config);
  service.Start();

  constexpr int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) {
    PlanRequest request;
    request.start_item = fix.dataset.default_start;
    auto submitted = service.Submit(request);
    ASSERT_TRUE(submitted.ok());
    ASSERT_TRUE(std::move(submitted).value().get().ok());
  }
  service.Stop();

  std::uint64_t completed = 0;
  std::uint64_t by_version = 0;
  double queue_depth = -1.0;
  for (const auto& m : metrics_registry.Collect().metrics) {
    if (m.name == "serve_requests_completed_total") {
      completed = static_cast<std::uint64_t>(m.value);
    } else if (m.name == "serve_responses_total") {
      ASSERT_EQ(m.labels.size(), 1u);
      EXPECT_EQ(m.labels[0].key, "version");
      EXPECT_EQ(m.labels[0].value, "1");
      by_version = static_cast<std::uint64_t>(m.value);
    } else if (m.name == "serve_queue_depth") {
      queue_depth = m.value;
    }
  }
  EXPECT_EQ(completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(by_version, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(queue_depth, 0.0);  // drained before Stop() returned
  EXPECT_EQ(service.stats().Collect().queue_depth, 0u);
}

TEST(PlanServiceTest, SubmitAsyncDeliversViaCallbackExactlyOnce) {
  ServingFixture fix;
  fix.InstallTrained("default", 17);
  PlanServiceConfig service_config;
  service_config.num_workers = 2;
  PlanService service(fix.instance, fix.config.reward, fix.registry,
                      service_config);
  service.Start();

  constexpr int kRequests = 20;
  std::atomic<int> delivered{0};
  std::atomic<int> ok_count{0};
  for (int i = 0; i < kRequests; ++i) {
    PlanRequest request;
    request.start_item = fix.dataset.default_start;
    auto submitted = service.SubmitAsync(
        std::move(request), [&](util::Result<PlanResponse> result) {
          delivered.fetch_add(1);
          if (result.ok() && !result.value().plan.empty()) {
            ok_count.fetch_add(1);
          }
        });
    ASSERT_TRUE(submitted.ok()) << submitted.ToString();
  }
  service.Stop();  // drains the queue: every callback has fired by now
  EXPECT_EQ(delivered.load(), kRequests);
  EXPECT_EQ(ok_count.load(), kRequests);

  // Post-stop submissions are rejected and the callback never runs.
  std::atomic<bool> ran{false};
  auto rejected = service.SubmitAsync(
      PlanRequest{}, [&](util::Result<PlanResponse>) { ran.store(true); });
  EXPECT_EQ(rejected.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_FALSE(ran.load());
}

TEST(PlanServiceTest, AllocateTraceIdIsUniqueAcrossThreads) {
  ServingFixture fix;
  fix.InstallTrained("default", 17);
  PlanService service(fix.instance, fix.config.reward, fix.registry, {});
  constexpr int kThreads = 4;
  constexpr int kIdsPerThread = 200;
  std::vector<std::vector<std::uint64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &ids, t] {
      for (int i = 0; i < kIdsPerThread; ++i) {
        ids[t].push_back(service.AllocateTraceId());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::set<std::uint64_t> unique;
  for (const auto& per_thread : ids) unique.insert(per_thread.begin(),
                                                   per_thread.end());
  EXPECT_EQ(unique.size(),
            static_cast<std::size_t>(kThreads) * kIdsPerThread);
}

TEST(PlanServiceTest, DrainSettlesQueueAndStopsAdmissions) {
  ServingFixture fix;
  fix.InstallTrained("default", 17);
  PlanServiceConfig service_config;
  service_config.num_workers = 2;
  PlanService service(fix.instance, fix.config.reward, fix.registry,
                      service_config);
  service.Start();

  std::vector<std::future<util::Result<PlanResponse>>> futures;
  for (int i = 0; i < 10; ++i) {
    PlanRequest request;
    request.start_item = fix.dataset.default_start;
    auto submitted = service.Submit(std::move(request));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }

  EXPECT_TRUE(service.Drain(std::chrono::milliseconds(5000)).ok());
  // Every admitted request was delivered before Drain returned...
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(future.get().ok());
  }
  EXPECT_EQ(service.queue_depth(), 0u);
  // ...and new admissions are refused from the moment Drain was called.
  auto refused = service.Submit(PlanRequest{});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kFailedPrecondition);

  // Idempotent, and composes with Stop in either order.
  EXPECT_TRUE(service.Drain(std::chrono::milliseconds(1)).ok());
  service.Stop();
  EXPECT_TRUE(service.Drain(std::chrono::milliseconds(1)).ok());

  const ServeStatsSnapshot stats = service.stats().Collect();
  EXPECT_EQ(stats.accepted, stats.completed + stats.expired_deadline);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(PlanServiceTest, DrainTimeoutFailsLeftoversInsteadOfDroppingThem) {
  ServingFixture fix;
  fix.InstallTrained("default", 17);
  PlanServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.max_queue = 4096;
  PlanService service(fix.instance, fix.config.reward, fix.registry,
                      service_config);
  service.Start();

  // Build a backlog one worker cannot settle instantly, then drain with a
  // zero budget. Whether the worker happens to win the race or not, the
  // ledger must balance: every future resolves, nothing is dropped.
  std::vector<std::future<util::Result<PlanResponse>>> futures;
  for (int i = 0; i < 300; ++i) {
    PlanRequest request;
    request.start_item = fix.dataset.default_start;
    auto submitted = service.Submit(std::move(request));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  const util::Status drained = service.Drain(std::chrono::milliseconds(0));

  std::size_t completed = 0;
  std::size_t deadline_failed = 0;
  for (auto& future : futures) {
    auto result = future.get();  // must not hang: delivered or failed, never lost
    if (result.ok()) {
      ++completed;
    } else {
      EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
      ++deadline_failed;
    }
  }
  EXPECT_EQ(completed + deadline_failed, futures.size());
  if (deadline_failed > 0) {
    // Leftovers existed at the deadline, so Drain must have reported it.
    EXPECT_EQ(drained.code(), util::StatusCode::kDeadlineExceeded);
  } else {
    EXPECT_TRUE(drained.ok());
  }
  service.Stop();
  EXPECT_EQ(service.queue_depth(), 0u);
}

TEST(ServeStatsTest, HistogramQuantilesAndJson) {
  ServeStats stats;
  for (int i = 1; i <= 100; ++i) {
    stats.RecordCompleted(static_cast<double>(i));  // 1..100 ms
  }
  stats.RecordSubmitted();
  stats.RecordRejectedQueueFull();
  const ServeStatsSnapshot snapshot = stats.Collect();
  EXPECT_EQ(snapshot.latency_count, 100u);
  // Log-linear buckets guarantee <= 12.5% relative quantile error.
  EXPECT_NEAR(snapshot.latency_p50_ms, 50.0, 50.0 * 0.13);
  EXPECT_NEAR(snapshot.latency_p95_ms, 95.0, 95.0 * 0.13);
  EXPECT_NEAR(snapshot.latency_p99_ms, 99.0, 99.0 * 0.13);
  EXPECT_NEAR(snapshot.latency_mean_ms, 50.5, 0.01);
  EXPECT_DOUBLE_EQ(snapshot.latency_max_ms, 100.0);
  // Quantiles never exceed the exact maximum.
  EXPECT_LE(snapshot.latency_p99_ms, snapshot.latency_max_ms);
  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"rejected_queue_full\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

TEST(ServeStatsTest, ResponsesByVersionSnapshotAndJson) {
  ServeStats stats;
  stats.RecordResponseVersion(1);
  stats.RecordResponseVersion(1);
  stats.RecordResponseVersion(2);
  const ServeStatsSnapshot snapshot = stats.Collect();
  const std::map<std::uint64_t, std::uint64_t> expected = {{1, 2}, {2, 1}};
  EXPECT_EQ(snapshot.responses_by_version, expected);
  EXPECT_NE(snapshot.ToJson().find("\"responses_by_version\": {\"1\": 2, "
                                   "\"2\": 1}"),
            std::string::npos);
}

TEST(ServeStatsTest, EmptyHistogramIsAllZero) {
  ServeStats stats;
  const ServeStatsSnapshot snapshot = stats.Collect();
  EXPECT_EQ(snapshot.latency_count, 0u);
  EXPECT_DOUBLE_EQ(snapshot.latency_p50_ms, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.latency_max_ms, 0.0);
}

// --- Flight recorder integration ------------------------------------------

TEST(PlanServiceTest, StalledRequestIsRecordedWithLatencyExemplar) {
  ServingFixture fix;
  fix.InstallTrained("default", 17);
  obs::Registry metrics;
  obs::FlightRecorderConfig recorder_config;
  recorder_config.slo_ms = 5.0;
  obs::FlightRecorder recorder(recorder_config);
  PlanServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.metrics = &metrics;
  service_config.recorder = &recorder;
  PlanService service(fix.instance, fix.config.reward, fix.registry,
                      service_config);
  service.Start();

  // A fast request stays under the SLO; the stalled one must be retained.
  PlanRequest fast;
  fast.start_item = fix.dataset.default_start;
  auto fast_submitted = service.Submit(fast);
  ASSERT_TRUE(fast_submitted.ok());
  ASSERT_TRUE(std::move(fast_submitted).value().get().ok());

  PlanRequest stalled;
  stalled.start_item = fix.dataset.default_start;
  stalled.debug_stall_ms = 25.0;
  auto submitted = service.Submit(stalled);
  ASSERT_TRUE(submitted.ok());
  auto result = std::move(submitted).value().get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  service.Stop();

  EXPECT_EQ(recorder.requests_observed(), 2u);
  ASSERT_EQ(recorder.slo_violations(), 1u);
  const std::string tracez = recorder.ToJson();
  EXPECT_NE(tracez.find("\"serve_plan\""), std::string::npos) << tracez;
  EXPECT_NE(tracez.find("\"serve_queue_wait\""), std::string::npos);

  // The violating request's trace id was captured as a latency exemplar.
  std::uint64_t exemplar_trace = 0;
  for (const obs::MetricSnapshot& m : metrics.Collect().metrics) {
    if (m.name != "serve_request_latency_us") continue;
    ASSERT_FALSE(m.exemplars.empty());
    // The stall dominates the latency distribution: the top exemplar is the
    // stalled request and its value reflects the injected 25ms.
    const obs::ExemplarSnapshot& top = m.exemplars.back();
    exemplar_trace = top.trace_id;
    EXPECT_GE(top.value, 25000u);
    EXPECT_EQ(top.version, 1u);
  }
  ASSERT_GT(exemplar_trace, 0u);
  EXPECT_NE(tracez.find("\"trace_id\": " + std::to_string(exemplar_trace)),
            std::string::npos);
}

TEST(PlanServiceTest, TracezSpansEqualTheTraceCollectorsEvents) {
  // Both sinks read the same stage events, so a stalled request's tracez
  // spans are its --trace-out events: same names, starts and durations.
  ServingFixture fix;
  fix.InstallTrained("default", 17);
  obs::TraceCollector trace;
  obs::FlightRecorderConfig recorder_config;
  recorder_config.slo_ms = 5.0;
  obs::FlightRecorder recorder(recorder_config);
  PlanServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.trace = &trace;
  service_config.recorder = &recorder;
  PlanService service(fix.instance, fix.config.reward, fix.registry,
                      service_config);
  service.Start();
  PlanRequest stalled;
  stalled.start_item = fix.dataset.default_start;
  stalled.debug_stall_ms = 25.0;
  auto submitted = service.Submit(stalled);
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(std::move(submitted).value().get().ok());
  service.Stop();

  auto tracez = util::json::Parse(recorder.ToJson());
  ASSERT_TRUE(tracez.ok()) << tracez.status().ToString();
  const auto& slowest = tracez.value().Find("slowest")->AsArray();
  ASSERT_EQ(slowest.size(), 1u);
  const std::string trace_id = std::to_string(
      static_cast<std::uint64_t>(slowest[0].Find("trace_id")->AsNumber()));
  auto chrome = util::json::Parse(trace.ToChromeTrace());
  ASSERT_TRUE(chrome.ok()) << chrome.status().ToString();
  std::vector<const util::json::Value*> events;  // export order: by begin
  for (const util::json::Value& event :
       chrome.value().Find("traceEvents")->AsArray()) {
    const util::json::Value* id = event.Find("args")->Find("trace_id");
    if (id != nullptr && id->AsString() == trace_id) events.push_back(&event);
  }
  const auto& spans = slowest[0].Find("spans")->AsArray();
  ASSERT_EQ(spans.size(), events.size());
  ASSERT_FALSE(spans.empty());
  // Whole nanoseconds: tracez renders ms and the trace file µs of the same
  // integer endpoints; starts are relative to the request's first event.
  const auto ns = [](const util::json::Value& value, double per_unit) {
    return std::llround(value.AsNumber() * per_unit);
  };
  const long long origin = ns(*events[0]->Find("ts"), 1e3);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].Find("name")->AsString(),
              events[i]->Find("name")->AsString());
    EXPECT_EQ(ns(*spans[i].Find("start_ms"), 1e6),
              ns(*events[i]->Find("ts"), 1e3) - origin);
    EXPECT_EQ(ns(*spans[i].Find("duration_ms"), 1e6),
              ns(*events[i]->Find("dur"), 1e3));
  }
}

TEST(PlanServiceTest, DrainExpiredRequestsReachTheFlightRecorder) {
  // Requests a timed-out drain fails are recorded like the worker's
  // deadline-expired ones, so /debug/tracez shows the queue wait that
  // killed them.
  ServingFixture fix;
  fix.InstallTrained("default", 17);
  obs::FlightRecorderConfig recorder_config;
  recorder_config.slo_ms = 1.0;
  obs::FlightRecorder recorder(recorder_config);
  PlanServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.recorder = &recorder;
  PlanService service(fix.instance, fix.config.reward, fix.registry,
                      service_config);
  service.Start();

  // Park the only worker in a stalled request, then queue three behind it.
  PlanRequest stalled;
  stalled.start_item = fix.dataset.default_start;
  stalled.debug_stall_ms = 300.0;
  auto parked = service.Submit(stalled);
  ASSERT_TRUE(parked.ok());
  while (service.queue_depth() != 0) std::this_thread::yield();
  std::vector<std::future<util::Result<PlanResponse>>> queued;
  for (int i = 0; i < 3; ++i) {
    PlanRequest request;
    request.start_item = fix.dataset.default_start;
    auto submitted = service.Submit(std::move(request));
    ASSERT_TRUE(submitted.ok());
    queued.push_back(std::move(submitted).value());
  }
  EXPECT_EQ(service.Drain(std::chrono::milliseconds(50)).code(),
            util::StatusCode::kDeadlineExceeded);
  for (auto& future : queued) {
    EXPECT_EQ(future.get().status().code(),
              util::StatusCode::kDeadlineExceeded);
  }
  EXPECT_TRUE(std::move(parked).value().get().ok());
  service.Stop();

  EXPECT_EQ(recorder.requests_observed(), 4u);
  EXPECT_EQ(recorder.slo_violations(), 4u);
  auto tracez = util::json::Parse(recorder.ToJson());
  ASSERT_TRUE(tracez.ok()) << tracez.status().ToString();
  int drained = 0;
  for (const util::json::Value& record :
       tracez.value().Find("recent")->AsArray()) {
    if (record.Find("status")->AsString() != "drain_expired") continue;
    ++drained;
    EXPECT_GE(record.Find("queue_ms")->AsNumber(), 50.0);
    EXPECT_EQ(record.Find("spans")->AsArray()[0].Find("name")->AsString(),
              "serve_queue_wait");
  }
  EXPECT_EQ(drained, 3);
}

// --- Profiler neutrality --------------------------------------------------

// Acceptance gate: a running profiler must not perturb training — SIGPROF
// with SA_RESTART is invisible to the deterministic scheduler, so the same
// seed yields a bit-identical Q-table with sampling on or off.
TEST(ProfilerNeutralityTest, TrainingIsBitIdenticalUnderSampling) {
  const Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  core::PlannerConfig config = ToyConfig(dataset, 29, /*episodes=*/200);

  core::RlPlanner baseline(instance, config);
  ASSERT_TRUE(baseline.Train().ok());

  obs::ProfilerConfig profiler_config;
  profiler_config.enabled = true;
  profiler_config.sample_hz = 997;  // oversample to maximize interference
  obs::Profiler profiler(profiler_config);
  ASSERT_TRUE(profiler.Start().ok());
  core::RlPlanner sampled(instance, config);
  ASSERT_TRUE(sampled.Train().ok());
  profiler.Stop();

  EXPECT_TRUE(sampled.q_table() == baseline.q_table());
  auto baseline_plan = baseline.Recommend(dataset.default_start);
  auto sampled_plan = sampled.Recommend(dataset.default_start);
  ASSERT_TRUE(baseline_plan.ok());
  ASSERT_TRUE(sampled_plan.ok());
  EXPECT_TRUE(baseline_plan.value() == sampled_plan.value());
}

}  // namespace
}  // namespace rlplanner::serve
