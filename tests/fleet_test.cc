// Tests for the policy-fleet orchestrator: deterministic republication
// (same seeds + same feedback stream -> bit-identical published snapshots),
// the canary publication gate, exact-prior-version rollback, the
// fault-injection seams (failed retrains, corrupted candidates, stalled
// canaries), and the serve-while-republishing stress.
//
// The stress test here runs in the ThreadSanitizer lane alongside
// serve_test (see tools/check.sh): the registry's canary router is the
// serve hot path and must stay lock-free while the fleet republishes.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "adaptive/feedback.h"
#include "core/config.h"
#include "core/planner.h"
#include "datagen/course_data.h"
#include "fleet/fleet.h"
#include "fleet/gate.h"
#include "mdp/q_table.h"
#include "mdp/reward.h"
#include "serve/plan_service.h"
#include "serve/policy_registry.h"
#include "serve/policy_snapshot.h"
#include "util/json.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace rlplanner::fleet {
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

adaptive::FeedbackEvent Binary(model::ItemId item, bool useful) {
  adaptive::FeedbackEvent event;
  event.item = item;
  event.kind = adaptive::FeedbackKind::kBinary;
  event.value = useful ? 1.0 : 0.0;
  return event;
}

// Provenance that makes any candidate constraint-violating when served: it
// pins the rollout start to m5 ("Big Data", toy item 4), whose prerequisite
// (m2 OR m3) can never be satisfied at position 0, so every plan the
// (table, provenance) pair produces carries a prerequisite-gap violation.
// The table itself can be perfectly trained — the violation lives in the
// pair the slot would actually serve, which is exactly what the gate rolls
// out.
rl::SarsaConfig ViolatingProvenance(const core::PlannerConfig& config) {
  rl::SarsaConfig provenance = config.sarsa;
  provenance.start_item = 4;
  return provenance;
}

struct FleetFixture {
  Dataset dataset = datagen::MakeTableIIToy();
  model::TaskInstance instance = dataset.Instance();
  core::PlannerConfig config = ToyConfig(dataset);
  std::uint64_t fingerprint = serve::CatalogFingerprint(dataset.catalog);
  serve::PolicyRegistry registry{fingerprint, dataset.catalog.size()};
  util::ThreadPool pool{2};

  FleetConfig BaseConfig() {
    FleetConfig fc;
    fc.canary_permille = 500;
    fc.canary_hold_ticks = 1;
    fc.probe_count = 4;
    // These tests target pipeline mechanics, not score tuning: a generous
    // band keeps a healthy retrain from flaking the reward criterion while
    // the zero-violation criterion stays exact.
    fc.reward_band = 1.0;
    return fc;
  }

  PolicySpec Spec(const std::string& slot, std::uint64_t seed,
                  int freshness = 2) {
    PolicySpec spec;
    spec.slot = slot;
    spec.segment_id = slot;
    spec.catalog_fingerprint = fingerprint;
    spec.sarsa = config.sarsa;
    spec.seed = seed;
    spec.freshness_ticks = freshness;
    return spec;
  }
};

// --- Determinism ----------------------------------------------------------

TEST(FleetDeterminismTest, SameSeedsAndFeedbackPublishBitIdenticalSnapshots) {
  using Published = std::vector<
      std::tuple<std::string, std::uint64_t, std::string>>;
  auto run = []() {
    FleetFixture fix;
    FleetConfig fc = fix.BaseConfig();
    Published published;
    FleetOrchestrator fleet(fix.instance, fix.config.reward, fix.registry,
                            fix.pool, fc);
    fleet.set_publish_observer([&](const PolicySpec& spec, std::uint64_t v,
                                   const std::string& bytes) {
      published.emplace_back(spec.slot, v, bytes);
    });
    EXPECT_TRUE(fleet.AddSpec(fix.Spec("alpha", 17)).ok());
    EXPECT_TRUE(fleet.AddSpec(fix.Spec("beta", 23)).ok());
    for (int t = 0; t < 6; ++t) {
      // The same feedback stream at the same points in both runs.
      if (t == 1) {
        EXPECT_TRUE(fleet.EnqueueFeedback("alpha", Binary(0, true)).ok());
        EXPECT_TRUE(fleet.EnqueueFeedback("alpha", Binary(3, false)).ok());
        EXPECT_TRUE(fleet.EnqueueFeedback("beta", Binary(2, true)).ok());
      }
      if (t == 3) {
        EXPECT_TRUE(fleet.EnqueueFeedback("beta", Binary(5, false)).ok());
      }
      fleet.Tick();
    }
    return published;
  };

  const Published first = run();
  const Published second = run();
  ASSERT_EQ(first.size(), second.size());
  // Both slots publish initially and then republish at least once over the
  // freshness cadence — the pin is meaningless on an empty sequence.
  EXPECT_GE(first.size(), 4u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(std::get<0>(first[i]), std::get<0>(second[i])) << "entry " << i;
    EXPECT_EQ(std::get<1>(first[i]), std::get<1>(second[i])) << "entry " << i;
    EXPECT_EQ(std::get<2>(first[i]), std::get<2>(second[i]))
        << "published snapshot bytes diverge at entry " << i;
  }
}

// --- Gate -----------------------------------------------------------------

TEST(CanaryGateTest, RejectsConstraintViolatingCandidate) {
  FleetFixture fix;
  core::RlPlanner trained(fix.instance, fix.config);
  ASSERT_TRUE(trained.Train().ok());

  const ProbeSet probes = ProbeSet::Deterministic(fix.instance, 4, 99);
  ASSERT_EQ(probes.probes.size(), 4u);
  const mdp::RewardFunction reward(fix.instance, fix.config.reward);
  const GateReport report =
      EvaluateGate(fix.instance, reward, trained.q_table(),
                   ViolatingProvenance(fix.config), nullptr, probes,
                   GateConfig{});
  EXPECT_FALSE(report.passed);
  // Every probe rolls out from the unsatisfiable pinned start.
  EXPECT_EQ(report.violations, probes.probes.size());
  EXPECT_NE(report.reason.find("hard-constraint"), std::string::npos)
      << report.reason;

  // The identical table served under its real provenance passes the same
  // gate: the verdict is about what the slot would serve, not the table.
  const GateReport ok =
      EvaluateGate(fix.instance, reward, trained.q_table(), fix.config.sarsa,
                   nullptr, probes, GateConfig{});
  EXPECT_TRUE(ok.passed) << ok.reason;
  EXPECT_EQ(ok.violations, 0u);
}

TEST(CanaryGateTest, ProbeSetIsDeterministic) {
  FleetFixture fix;
  const ProbeSet a = ProbeSet::Deterministic(fix.instance, 6, 42);
  const ProbeSet b = ProbeSet::Deterministic(fix.instance, 6, 42);
  ASSERT_EQ(a.probes.size(), b.probes.size());
  for (std::size_t i = 0; i < a.probes.size(); ++i) {
    EXPECT_EQ(a.probes[i].start_item, b.probes[i].start_item);
  }
}

TEST(FleetOrchestratorTest, GateBlocksInjectedConstraintViolatingCandidate) {
  FleetFixture fix;
  // A checksum-VALID snapshot of a constraint-violating policy, swapped in
  // for the real candidate mid-publish: integrity validation cannot catch
  // it, so the gate is the only thing standing between it and the registry.
  core::RlPlanner trained(fix.instance, fix.config);
  ASSERT_TRUE(trained.Train().ok());
  serve::PolicySnapshot bad_snapshot;
  bad_snapshot.catalog_fingerprint = fix.fingerprint;
  bad_snapshot.provenance = ViolatingProvenance(fix.config);
  bad_snapshot.seed = 1;
  bad_snapshot.table = trained.q_table();
  const std::string bad_bytes = bad_snapshot.Serialize();

  FleetConfig fc = fix.BaseConfig();
  fc.hooks.on_candidate_serialized = [&](const PolicySpec&,
                                         std::string* bytes) {
    *bytes = bad_bytes;
  };
  FleetOrchestrator fleet(fix.instance, fix.config.reward, fix.registry,
                          fix.pool, fc);
  ASSERT_TRUE(fleet.AddSpec(fix.Spec("a", 17)).ok());
  fleet.Tick();

  // The gate blocked it: nothing was ever installed.
  EXPECT_EQ(fix.registry.install_count(), 0u);
  EXPECT_EQ(fix.registry.Current("a"), nullptr);
  const std::vector<PolicyStatus> statuses = fleet.Statuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].gate_failures, 1u);
  EXPECT_EQ(statuses[0].publishes, 0u);
  EXPECT_EQ(statuses[0].phase, PolicyPhase::kBackoff);
  EXPECT_NE(statuses[0].last_error.find("gate"), std::string::npos);
}

// --- Rollback -------------------------------------------------------------

TEST(FleetOrchestratorTest, ForcedRollbackRestoresExactPriorVersion) {
  FleetFixture fix;
  FleetConfig fc = fix.BaseConfig();
  fc.hooks.override_canary_verdict = [](const PolicySpec&) {
    return std::optional<bool>(false);
  };
  FleetOrchestrator fleet(fix.instance, fix.config.reward, fix.registry,
                          fix.pool, fc);
  ASSERT_TRUE(fleet.AddSpec(fix.Spec("a", 17, /*freshness=*/1)).ok());

  fleet.Tick();  // tick 0: first publication -> direct install v1
  const std::shared_ptr<const serve::ServablePolicy> incumbent =
      fix.registry.Current("a");
  ASSERT_NE(incumbent, nullptr);
  EXPECT_EQ(incumbent->version, 1u);

  fleet.Tick();  // tick 1: stale -> retrain -> canary v2 staged
  {
    const auto info = fix.registry.Info("a");
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->incumbent_version, 1u);
    EXPECT_EQ(info->canary_version, 2u);
  }
  fleet.Tick();  // tick 2: hold elapsed -> forced rollback

  // The incumbent is the exact prior policy object — same version, same
  // pointer, not a re-publication.
  const std::shared_ptr<const serve::ServablePolicy> restored =
      fix.registry.Current("a");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->version, 1u);
  EXPECT_EQ(restored.get(), incumbent.get());
  EXPECT_EQ(fix.registry.Canary("a"), nullptr);
  const std::vector<PolicyStatus> statuses = fleet.Statuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].rollbacks, 1u);
  EXPECT_EQ(statuses[0].phase, PolicyPhase::kIdle);
}

// --- Fault injection ------------------------------------------------------

TEST(FleetHooksTest, FailedRetrainRetriesWithExponentialBackoff) {
  FleetFixture fix;
  FleetConfig fc = fix.BaseConfig();
  fc.backoff_base_ticks = 1;
  fc.max_publish_retries = 5;
  std::atomic<int> attempts{0};
  fc.hooks.on_retrain_start = [&](const PolicySpec&) {
    return ++attempts <= 2 ? util::Status::Internal("injected retrain fault")
                           : util::Status::Ok();
  };
  FleetOrchestrator fleet(fix.instance, fix.config.reward, fix.registry,
                          fix.pool, fc);
  ASSERT_TRUE(fleet.AddSpec(fix.Spec("a", 17)).ok());

  // Attempt schedule under base-1 exponential backoff: fail at tick 0
  // (wait 1), fail at tick 1 (wait 2), succeed at tick 3. Tick 2 must be
  // silent — that is the backoff actually holding the spec back.
  fleet.RunTicks(5);
  EXPECT_EQ(attempts.load(), 3);
  const std::vector<PolicyStatus> statuses = fleet.Statuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].retrain_failures, 2u);
  EXPECT_EQ(statuses[0].publishes, 1u);
  EXPECT_EQ(statuses[0].last_published_tick, 3);
  EXPECT_EQ(statuses[0].consecutive_failures, 0);
  EXPECT_TRUE(statuses[0].last_error.empty());
  ASSERT_NE(fix.registry.Current("a"), nullptr);
  EXPECT_EQ(fix.registry.Current("a")->version, 1u);
}

TEST(FleetHooksTest, CorruptedCandidateIsNeverPublished) {
  // A flipped byte mid-blob lands in a checksummed section; offset 200 is
  // header padding, which no checksum covers and the zero-padding rule
  // must catch instead.
  for (const bool padding : {false, true}) {
    SCOPED_TRACE(padding ? "header padding byte" : "mid-blob byte");
    FleetFixture fix;
    FleetConfig fc = fix.BaseConfig();
    fc.backoff_base_ticks = 1;
    std::atomic<int> publishes_seen{0};
    fc.hooks.on_candidate_serialized = [&](const PolicySpec&,
                                           std::string* bytes) {
      // Corrupt the first candidate only.
      if (publishes_seen.fetch_add(1) == 0) {
        (*bytes)[padding ? 200 : bytes->size() / 2] ^= 0x5a;
      }
    };
    FleetOrchestrator fleet(fix.instance, fix.config.reward, fix.registry,
                            fix.pool, fc);
    ASSERT_TRUE(fleet.AddSpec(fix.Spec("a", 17)).ok());

    fleet.Tick();  // tick 0: candidate corrupted -> rejected pre-registry
    EXPECT_EQ(fix.registry.install_count(), 0u);
    EXPECT_EQ(fix.registry.Current("a"), nullptr);
    {
      const std::vector<PolicyStatus> statuses = fleet.Statuses();
      ASSERT_EQ(statuses.size(), 1u);
      EXPECT_EQ(statuses[0].candidate_rejections, 1u);
      EXPECT_EQ(statuses[0].phase, PolicyPhase::kBackoff);
      EXPECT_NE(statuses[0].last_error.find("integrity"), std::string::npos);
    }
    fleet.Tick();  // tick 1: backoff elapsed -> clean retry publishes
    EXPECT_EQ(fix.registry.install_count(), 1u);
    ASSERT_NE(fix.registry.Current("a"), nullptr);
    EXPECT_EQ(fix.registry.Current("a")->version, 1u);
  }
}

TEST(FleetHooksTest, StalledCanaryHoldsWithoutExposingPartialState) {
  FleetFixture fix;
  FleetConfig fc = fix.BaseConfig();
  fc.canary_hold_ticks = 0;
  std::atomic<bool> hold{true};
  fc.hooks.hold_canary = [&](const PolicySpec&) { return hold.load(); };
  FleetOrchestrator fleet(fix.instance, fix.config.reward, fix.registry,
                          fix.pool, fc);
  ASSERT_TRUE(fleet.AddSpec(fix.Spec("a", 17, /*freshness=*/1)).ok());

  fleet.Tick();  // tick 0: direct install v1
  fleet.Tick();  // tick 1: canary v2 staged, immediately held
  fleet.RunTicks(3);  // stalled: the verdict must not advance
  {
    const auto info = fix.registry.Info("a");
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->incumbent_version, 1u);
    EXPECT_EQ(info->canary_version, 2u);
    // Current() never exposes the held canary.
    EXPECT_EQ(fix.registry.Current("a")->version, 1u);
    const std::vector<PolicyStatus> statuses = fleet.Statuses();
    EXPECT_EQ(statuses[0].phase, PolicyPhase::kCanary);
    EXPECT_EQ(statuses[0].promotes, 0u);
  }
  hold.store(false);
  fleet.Tick();  // released: the held canary promotes
  EXPECT_EQ(fix.registry.Current("a")->version, 2u);
  EXPECT_EQ(fix.registry.Canary("a"), nullptr);
  EXPECT_EQ(fleet.Statuses()[0].promotes, 1u);
}

// --- Feedback and transfer seams ------------------------------------------

TEST(FleetOrchestratorTest, FeedbackValidationAndAccounting) {
  FleetFixture fix;
  FleetConfig fc = fix.BaseConfig();
  FleetOrchestrator fleet(fix.instance, fix.config.reward, fix.registry,
                          fix.pool, fc);
  ASSERT_TRUE(fleet.AddSpec(fix.Spec("a", 17)).ok());
  EXPECT_FALSE(fleet.EnqueueFeedback("missing", Binary(0, true)).ok());
  EXPECT_TRUE(fleet.EnqueueFeedback("a", Binary(0, true)).ok());
  EXPECT_TRUE(fleet.EnqueueFeedback("a", Binary(1, false)).ok());
  fleet.Tick();
  EXPECT_EQ(fleet.Statuses()[0].feedback_events, 2u);
}

TEST(FleetOrchestratorTest, AddSpecValidation) {
  FleetFixture fix;
  FleetConfig fc = fix.BaseConfig();
  FleetOrchestrator fleet(fix.instance, fix.config.reward, fix.registry,
                          fix.pool, fc);
  ASSERT_TRUE(fleet.AddSpec(fix.Spec("a", 17)).ok());
  EXPECT_FALSE(fleet.AddSpec(fix.Spec("a", 18)).ok());  // duplicate slot
  PolicySpec wrong = fix.Spec("b", 18);
  wrong.catalog_fingerprint ^= 1;  // drifted catalog
  EXPECT_FALSE(fleet.AddSpec(std::move(wrong)).ok());
  PolicySpec unnamed = fix.Spec("", 19);
  EXPECT_FALSE(fleet.AddSpec(std::move(unnamed)).ok());
}

TEST(FleetOrchestratorTest, StatusJsonHasTheDocumentedShape) {
  FleetFixture fix;
  FleetConfig fc = fix.BaseConfig();
  FleetOrchestrator fleet(fix.instance, fix.config.reward, fix.registry,
                          fix.pool, fc);
  ASSERT_TRUE(fleet.AddSpec(fix.Spec("a", 17)).ok());
  fleet.Tick();

  const auto parsed = util::json::Parse(fleet.StatusJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const util::json::Value& doc = parsed.value();
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.Find("tick"), nullptr);
  EXPECT_EQ(doc.Find("tick")->AsNumber(), 1.0);
  const util::json::Value* policies = doc.Find("policies");
  ASSERT_NE(policies, nullptr);
  ASSERT_TRUE(policies->is_array());
  ASSERT_EQ(policies->AsArray().size(), 1u);
  const util::json::Value& policy = policies->AsArray().front();
  for (const char* key :
       {"slot", "segment", "phase", "generation", "last_published_tick",
        "staleness", "incumbent_version", "canary_version", "canary_permille",
        "publishes", "promotes", "rollbacks", "gate_failures",
        "retrain_failures", "candidate_rejections", "feedback_events",
        "consecutive_failures", "last_error"}) {
    EXPECT_NE(policy.Find(key), nullptr) << "missing status field " << key;
  }
  EXPECT_EQ(policy.Find("slot")->AsString(), "a");
  EXPECT_EQ(policy.Find("publishes")->AsNumber(), 1.0);
}

// --- Serve-while-republishing stress (TSan lane) --------------------------

// The full publish -> canary -> promote/rollback cycle under concurrent
// load, extending serve_test's hot-swap stress to the canary pipeline:
//  - zero dropped or spuriously failed requests across every transition;
//  - every response attributed to a version that was actually installed,
//    with the plan matching that version's rollout exactly;
//  - after a Rollback() call returns, no subsequently admitted request is
//    ever served by the rolled-back version.
TEST(FleetStressTest, ServeWhileRepublishingCanaryCycles) {
  FleetFixture fix;
  constexpr int kCycles = 6;
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 50;
  constexpr std::uint32_t kPermille = 500;

  std::vector<mdp::QTable> tables;
  std::vector<model::Plan> plans;
  for (int i = 0; i <= kCycles; ++i) {
    fix.config.seed = 100 + static_cast<std::uint64_t>(i);
    core::RlPlanner planner(fix.instance, fix.config);
    ASSERT_TRUE(planner.Train().ok());
    tables.push_back(planner.q_table());
    auto plan = planner.Recommend(fix.dataset.default_start);
    ASSERT_TRUE(plan.ok());
    plans.push_back(plan.value());
  }

  std::map<std::uint64_t, model::Plan> plan_of_version;
  auto first = fix.registry.Install("default", tables[0], fix.config.sarsa);
  ASSERT_TRUE(first.ok());
  plan_of_version[first.value()] = plans[0];

  serve::PlanServiceConfig service_config;
  service_config.num_workers = kClients;
  service_config.max_queue = 1024;
  serve::PlanService service(fix.instance, fix.config.reward, fix.registry,
                             service_config);
  service.Start();

  std::atomic<std::uint64_t> failures{0};
  std::atomic<bool> publishing{true};
  std::vector<std::vector<std::pair<std::uint64_t, model::Plan>>> responses(
      kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        serve::PlanRequest request;
        request.start_item = fix.dataset.default_start;
        // Distinct sticky keys spread requests across both router sides.
        request.route_key =
            static_cast<std::uint64_t>(c) * 1000003ull +
            static_cast<std::uint64_t>(i) + 1;
        auto submitted = service.Submit(std::move(request));
        if (!submitted.ok()) {
          ++failures;
          continue;
        }
        auto result = std::move(submitted).value().get();
        if (!result.ok()) {
          ++failures;
          continue;
        }
        responses[static_cast<std::size_t>(c)].emplace_back(
            result.value().policy_version, result.value().plan);
      }
    });
  }

  // Publisher: run kCycles full canary cycles while the clients hammer the
  // service. Odd cycles promote, even cycles roll back; after each
  // Rollback() returns, synchronously verify the rolled-back version has
  // vanished from routing for freshly admitted requests.
  std::thread publisher([&] {
    for (int i = 1; i <= kCycles; ++i) {
      auto staged = fix.registry.InstallCanary(
          "default", tables[static_cast<std::size_t>(i)], kPermille,
          fix.config.sarsa);
      ASSERT_TRUE(staged.ok());
      plan_of_version[staged.value()] = plans[static_cast<std::size_t>(i)];
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (i % 2 == 1) {
        ASSERT_TRUE(fix.registry.PromoteCanary("default").ok());
        continue;
      }
      const std::uint64_t rolled_back = staged.value();
      ASSERT_TRUE(fix.registry.Rollback("default").ok());
      // Requests admitted from here on must never see the rolled-back
      // version: Execute() resolves the policy at call time, after the
      // rollback returned.
      for (std::uint64_t key = 1; key <= 200; ++key) {
        serve::PlanRequest probe;
        probe.start_item = fix.dataset.default_start;
        probe.route_key = key;
        auto served = service.Execute(probe);
        ASSERT_TRUE(served.ok());
        EXPECT_NE(served.value().policy_version, rolled_back)
            << "request admitted after Rollback() returned was served by "
               "the rolled-back version";
      }
    }
    publishing.store(false);
  });

  for (auto& client : clients) client.join();
  publisher.join();
  service.Stop();
  EXPECT_FALSE(publishing.load());

  // Zero dropped requests across every publication transition.
  EXPECT_EQ(failures.load(), 0u);
  std::size_t total = 0;
  std::map<std::uint64_t, std::uint64_t> client_tallies;
  for (const auto& per_client : responses) {
    for (const auto& [version, plan] : per_client) {
      ++total;
      ++client_tallies[version];
      const auto it = plan_of_version.find(version);
      ASSERT_NE(it, plan_of_version.end())
          << "response attributed to unknown version " << version;
      EXPECT_TRUE(plan == it->second)
          << "response plan does not match the rollout of version "
          << version;
    }
  }
  EXPECT_EQ(total,
            static_cast<std::size_t>(kClients) * kRequestsPerClient);
  // Direct install + kCycles canary stages; promotions and rollbacks assign
  // no versions.
  EXPECT_EQ(fix.registry.install_count(),
            static_cast<std::uint64_t>(kCycles) + 1);
  // Per-version attribution in the shared stats agrees with what the
  // clients actually observed (the Execute() probes bypass the queue and
  // the stats, so the two tallies match exactly).
  const serve::ServeStatsSnapshot stats = service.stats().Collect();
  EXPECT_EQ(stats.completed, total);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected_queue_full, 0u);
  EXPECT_EQ(stats.responses_by_version, client_tallies);
}

}  // namespace
}  // namespace rlplanner::fleet
