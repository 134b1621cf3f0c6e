// Tests for the SARSA learner's serial (K = 1) and sharded (K > 1) rounds:
// bit-determinism of the sharded merge across thread counts and entry
// points, hard-constraint safety at both K, and cross-revision pins of what
// the learner learns and of what every step-ranking traversal outputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "adaptive/interactive.h"
#include "baselines/eda.h"
#include "core/config.h"
#include "core/planner.h"
#include "core/scoring.h"
#include "datagen/course_data.h"
#include "datagen/synthetic.h"
#include "datagen/trip_data.h"
#include "mdp/cmdp.h"
#include "mdp/sparse_q_table.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/training_metrics.h"
#include "rl/recommender.h"
#include "rl/sarsa.h"
#include "util/thread_pool.h"

namespace rlplanner::rl {
namespace {

SarsaConfig ParallelConfig(int workers, int episodes, model::ItemId start) {
  SarsaConfig config;
  config.num_episodes = episodes;
  config.start_item = start;
  config.num_workers = workers;
  return config;
}

// ------------------------------------------------------ sharded rounds --

TEST(ParallelSarsaTest, SameSeedSameWorkersIsBitIdentical) {
  datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  const SarsaConfig config = ParallelConfig(4, 100, dataset.default_start);

  SarsaLearner first(instance, reward, config, /*seed=*/123);
  SarsaLearner second(instance, reward, config, /*seed=*/123);
  const mdp::QTable q1 = first.Learn();
  const mdp::QTable q2 = second.Learn();
  EXPECT_TRUE(q1 == q2);
  EXPECT_EQ(first.episode_returns(), second.episode_returns());
}

TEST(ParallelSarsaTest, TracingDoesNotPerturbTraining) {
  // Spans only read the clock — attaching a trace collector (and a metrics
  // registry) must leave the learned table and the per-episode returns
  // bit-identical to an untraced run with the same (seed, K).
  datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  for (int workers : {1, 4}) {
    const SarsaConfig config =
        ParallelConfig(workers, 100, dataset.default_start);
    SarsaLearner untraced(instance, reward, config, /*seed=*/123);
    const mdp::QTable q1 = untraced.Learn();

    obs::Registry registry;
    obs::TrainingMetrics metrics(&registry);
    obs::TraceCollector trace;
    SarsaLearner traced(instance, reward, config, /*seed=*/123);
    traced.set_metrics(&metrics);
    traced.set_trace(&trace);
    const mdp::QTable q2 = traced.Learn();

    EXPECT_TRUE(q1 == q2) << "K " << workers;
    EXPECT_EQ(untraced.episode_returns(), traced.episode_returns());
    // The run actually produced a timeline: round and safety-rollout spans
    // from the shared loop, shard and merge spans only when sharded.
    EXPECT_GT(trace.emitted_total(), 0u);
    const std::string json = trace.ToChromeTrace();
    const auto has_span = [&json](const std::string& name) {
      return json.find("\"name\": \"" + name + "\"") != std::string::npos;
    };
    EXPECT_TRUE(has_span("train_round")) << "K " << workers;
    EXPECT_TRUE(has_span("train_safety_rollout")) << "K " << workers;
    EXPECT_EQ(has_span("train_shard"), workers > 1);
    EXPECT_EQ(has_span("train_merge"), workers > 1);
    EXPECT_EQ(trace.dropped_total(), 0u);
  }
}

TEST(ParallelSarsaTest, DeterministicResultIndependentOfThreadCount) {
  // The same (seed, K) must learn the same table whether the shards run on
  // an external 2-thread pool or the learner's own K-thread pool — physical
  // threading is a wall-clock concern only.
  datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  const SarsaConfig config = ParallelConfig(4, 100, dataset.default_start);

  util::ThreadPool small_pool(2);
  SarsaLearner pooled(instance, reward, config, /*seed=*/9, &small_pool);
  SarsaLearner owned(instance, reward, config, /*seed=*/9);
  const mdp::QTable q1 = pooled.Learn();
  const mdp::QTable q2 = owned.Learn();
  EXPECT_TRUE(q1 == q2);
  EXPECT_EQ(pooled.episode_returns(), owned.episode_returns());
}

// Learn() is LearnFrom(zero table) on the sharded path too: same table,
// same episode returns. A random rollout start makes the coordinator draw
// the start item, and an unsafe round makes it draw restart jitter.
template <typename QModel>
void ExpectLearnFromZerosIsLearn() {
  datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  const SarsaConfig config = ParallelConfig(4, 200, -1);

  obs::Registry registry;
  obs::TrainingMetrics metrics(&registry);
  SarsaLearnerT<QModel> cold(instance, reward, config, /*seed=*/31);
  cold.set_metrics(&metrics);
  SarsaLearnerT<QModel> warm(instance, reward, config, /*seed=*/31);
  const QModel q_cold = cold.Learn();
  const QModel q_warm = warm.LearnFrom(QModel(dataset.catalog.size()));
  EXPECT_TRUE(q_cold == q_warm);
  EXPECT_EQ(cold.episode_returns(), warm.episode_returns());
  EXPECT_EQ(cold.episode_returns().size(), 200u);
  const auto& rounds = metrics.rounds();
  EXPECT_TRUE(std::any_of(rounds.begin(), rounds.end(),
                          [](const auto& round) { return !round.safe; }));
}

TEST(ParallelSarsaTest, ShardedLearnFromZerosIsLearnDense) {
  ExpectLearnFromZerosIsLearn<mdp::QTable>();
}

TEST(ParallelSarsaTest, ShardedLearnFromZerosIsLearnSparse) {
  ExpectLearnFromZerosIsLearn<mdp::SparseQTable>();
}

TEST(ParallelSarsaTest, RunsExactlyTheConfiguredEpisodeBudget) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  // 103 episodes over 4 workers and 5 rounds exercises both the uneven
  // shard remainder and the uneven round remainder.
  const SarsaConfig config = ParallelConfig(4, 103, 0);

  SarsaLearner learner(instance, reward, config, /*seed=*/5);
  const mdp::QTable q = learner.Learn();
  EXPECT_EQ(q.num_items(), dataset.catalog.size());
  EXPECT_EQ(learner.episode_returns().size(), 103u);
}

TEST(ParallelSarsaTest, WorkerSeedsAreDistinctAcrossRoundsAndWorkers) {
  std::set<std::uint64_t> seen;
  for (int round = 0; round < 8; ++round) {
    for (int worker = 0; worker < 16; ++worker) {
      seen.insert(SarsaLearner::WorkerSeed(17, round, worker));
    }
  }
  EXPECT_EQ(seen.size(), 8u * 16u);
  // Different run seeds decorrelate every shard stream.
  EXPECT_NE(SarsaLearner::WorkerSeed(17, 0, 0),
            SarsaLearner::WorkerSeed(18, 0, 0));
}

// ------------------------------------------------------------ safety --

TEST(ParallelSarsaTest, SerialAndShardedPoliciesSatisfyHardConstraints) {
  // Across seeds, the greedy rollout of the policy learned at K = 1 (serial
  // rounds) and at K = 4 (sharded rounds) must satisfy every hard
  // constraint, and the sharded plan's score must be in the same range as
  // the serial one's.
  datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  const mdp::CmdpSpec spec = mdp::CmdpSpec::FromInstance(instance);

  RecommendConfig rollout;
  rollout.start_item = dataset.default_start;

  for (std::uint64_t seed = 100; seed < 105; ++seed) {
    double serial_score = 0.0;
    for (int workers : {1, 4}) {
      SarsaLearner learner(
          instance, reward,
          ParallelConfig(workers, 500, dataset.default_start), seed);
      const model::Plan plan =
          RecommendPlan(learner.Learn(), instance, reward, rollout);
      ASSERT_TRUE(spec.Satisfied(plan))
          << "unsafe, seed " << seed << " K " << workers;
      const double score = core::ScorePlan(instance, plan);
      if (workers == 1) {
        serial_score = score;
        continue;
      }
      // On Univ-1 the learner's outcome is bimodal: every (seed, budget)
      // combination converges to one of two feasible policies (scores ~4.8
      // and ~10.0), and serial training itself lands on the low mode at
      // other seeds/budgets. Per-seed parity is therefore not a property
      // even of two serial runs; the contract is "no policy collapse": the
      // sharded score must stay inside the serial support, i.e. above a
      // floor set between zero and the low mode.
      EXPECT_GE(score, 0.45 * serial_score) << "seed " << seed;
    }
  }
}

// ------------------------------------------------ metrics equivalence --

// Trains once with a live metrics registry and once with none, under a
// caller-supplied execution wrapper, and requires bit-identical results.
void ExpectMetricsDoNotPerturbTraining(
    const model::TaskInstance& instance, const mdp::RewardFunction& reward,
    const SarsaConfig& config, std::uint64_t seed,
    const std::function<mdp::QTable(SarsaLearner&)>& run) {
  obs::Registry registry;
  obs::TrainingMetrics metrics(&registry);
  SarsaLearner instrumented(instance, reward, config, seed);
  instrumented.set_metrics(&metrics);
  const mdp::QTable q_instrumented = run(instrumented);

  SarsaLearner plain(instance, reward, config, seed);
  const mdp::QTable q_plain = run(plain);

  EXPECT_TRUE(q_instrumented == q_plain) << "seed " << seed;
  EXPECT_EQ(instrumented.episode_returns(), plain.episode_returns())
      << "seed " << seed;
  // The instrumented run really recorded: one step counter bump per update.
  std::uint64_t steps = 0;
  for (const auto& m : registry.Collect().metrics) {
    if (m.name == "train_steps_total") steps = static_cast<std::uint64_t>(m.value);
  }
  EXPECT_GT(steps, 0u) << "seed " << seed;
}

TEST(ParallelSarsaTest, MetricsRecordingIsBitExactAcrossSeedsAndWorkers) {
  // The observability contract: enabling the registry must not change a
  // single bit of what is learned, for any worker count. TD errors are
  // computed from Q reads only, and no metrics call draws randomness.
  datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);

  const auto run_direct = [](SarsaLearner& learner) {
    return learner.Learn();
  };
  // A sharded run inside an outer ParallelFor, where its nested
  // region degrades to an inline loop over the shards: recording must stay
  // bit-exact on that path too. The outer region needs n >= 2 — a
  // single-index ParallelFor takes the trivial inline fast path without
  // entering a parallel region.
  util::ThreadPool outer_pool(2);
  const auto run_nested = [&outer_pool](SarsaLearner& learner) {
    mdp::QTable q(0);
    outer_pool.ParallelFor(2, [&](std::size_t i) {
      if (i == 0) q = learner.Learn();
    });
    return q;
  };

  for (std::uint64_t seed = 200; seed < 205; ++seed) {
    const SarsaConfig serial = ParallelConfig(1, 100, dataset.default_start);
    const SarsaConfig sharded = ParallelConfig(4, 100, dataset.default_start);
    ExpectMetricsDoNotPerturbTraining(instance, reward, serial, seed,
                                      run_direct);
    ExpectMetricsDoNotPerturbTraining(instance, reward, sharded, seed,
                                      run_direct);
    ExpectMetricsDoNotPerturbTraining(instance, reward, sharded, seed,
                                      run_nested);
  }
}
// ------------------------------------------- cross-revision golden pin --
//
// Hashes of learned tables and episode returns recorded once and checked
// on every revision: a refactor of the training loops must reproduce them
// bit for bit. The cases cover both round bodies (K = 1 and sharded K = 4),
// both rollout start modes, both behaviour policies under all three update
// rules, the decay-and-jitter restart path (each restart case has at least
// one unsafe round), and the warm-start LearnFrom entry point, in both Q
// representations. TraversalGoldenTest pins the other step-ranking
// traversals the same way: EDA, greedy and beam plans, and interactive
// suggestions.

// FNV-1a over the little-endian bytes of each mixed word.
struct Fnv1a {
  std::uint64_t state = 0xcbf29ce484222325ULL;
  void Mix(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      state ^= (word >> (8 * i)) & 0xFFU;
      state *= 0x100000001B3ULL;
    }
  }
};

// The non-zero entries in (state, action) order, so a dense table and a
// sparse one holding the same values hash alike.
std::uint64_t TableHash(const mdp::QTable& q) {
  Fnv1a hash;
  const auto n = static_cast<model::ItemId>(q.num_items());
  for (model::ItemId s = 0; s < n; ++s) {
    for (model::ItemId a = 0; a < n; ++a) {
      const double value = q.Get(s, a);
      if (value == 0.0) continue;
      hash.Mix(static_cast<std::uint64_t>(s));
      hash.Mix(static_cast<std::uint64_t>(a));
      hash.Mix(std::bit_cast<std::uint64_t>(value));
    }
  }
  return hash.state;
}

std::uint64_t TableHash(const mdp::SparseQTable& q) {
  return TableHash(q.ToDense());
}

std::uint64_t ReturnsHash(const std::vector<double>& returns) {
  Fnv1a hash;
  for (double r : returns) hash.Mix(std::bit_cast<std::uint64_t>(r));
  return hash.state;
}

struct GoldenCase {
  const char* dataset;  // a GoldenDataset name
  std::uint64_t seed;
  int workers;
  int episodes;
  bool fixed_start;  // false: start_item = -1, a random primary per episode
  bool restarts;     // some round's safety rollout fails
  std::uint64_t table_hash;
  std::uint64_t returns_hash;
  ExplorationMode exploration = ExplorationMode::kRewardGreedy;
  UpdateRule update_rule = UpdateRule::kSarsa;
};

void PrintTo(const GoldenCase& c, std::ostream* os) {
  static const char* const kRules[] = {"", "/q-learning", "/expected-sarsa"};
  *os << c.dataset << "/seed" << c.seed << "/K" << c.workers << "/"
      << c.episodes << (c.fixed_start ? "" : "/random-start")
      << (c.exploration == ExplorationMode::kEpsilonGreedyQ ? "/q-greedy"
                                                             : "")
      << kRules[static_cast<int>(c.update_rule)];
}

// The catalogs the golden pins run on: the curated Univ-1 DS-CT, Univ-2 DS,
// NYC and Paris datasets, the 114-item synthetic catalog perfbench's
// paper_wire workload serves, and a 300-item synthetic course.
datagen::Dataset GoldenDataset(const std::string& name) {
  if (name == "paris") return datagen::MakeParisTrip();
  if (name == "nyc") return datagen::MakeNycTrip();
  if (name == "univ2-ds") return datagen::MakeUniv2Ds();
  if (name == "paper-wire" || name == "course-300") {
    datagen::SyntheticSpec spec;
    spec.num_items = name == "paper-wire" ? 114 : 300;
    spec.vocab_size = 2 * spec.num_items;
    return datagen::GenerateSynthetic(spec);
  }
  return datagen::MakeUniv1DsCt();
}

// The configuration rlplanner_cli trains `dataset` with: Table III
// defaults by domain, uniform category weights when the defaults' count
// does not match the catalog.
core::PlannerConfig GoldenConfig(const datagen::Dataset& dataset,
                                 int workers, int episodes,
                                 bool fixed_start) {
  core::PlannerConfig config =
      dataset.catalog.domain() == model::Domain::kTrip
          ? core::DefaultTripConfig()
          : core::DefaultUniv1Config();
  const std::size_t categories = dataset.catalog.category_names().size();
  if (config.reward.category_weights.size() != categories) {
    config.reward.category_weights.assign(
        categories, 1.0 / static_cast<double>(categories));
  }
  config.sarsa.num_episodes = episodes;
  config.sarsa.num_workers = workers;
  config.sarsa.start_item = fixed_start ? dataset.default_start : -1;
  return config;
}

template <typename QModel>
void ExpectGolden(const GoldenCase& c) {
  const datagen::Dataset dataset = GoldenDataset(c.dataset);
  const model::TaskInstance instance = dataset.Instance();
  core::PlannerConfig config =
      GoldenConfig(dataset, c.workers, c.episodes, c.fixed_start);
  config.sarsa.exploration = c.exploration;
  config.sarsa.update_rule = c.update_rule;
  const mdp::RewardFunction reward(instance, config.reward);
  obs::Registry registry;
  obs::TrainingMetrics metrics(&registry);
  SarsaLearnerT<QModel> learner(instance, reward, config.sarsa, c.seed);
  learner.set_metrics(&metrics);
  const QModel q = learner.Learn();

  const std::uint64_t table = TableHash(q);
  const std::uint64_t returns = ReturnsHash(learner.episode_returns());
  EXPECT_EQ(table, c.table_hash) << std::hex << "table 0x" << table;
  EXPECT_EQ(returns, c.returns_hash) << std::hex << "returns 0x" << returns;
  const auto& rounds = metrics.rounds();
  EXPECT_EQ(std::any_of(rounds.begin(), rounds.end(),
                        [](const auto& round) { return !round.safe; }),
            c.restarts);
}

class TrainingGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(TrainingGoldenTest, DenseMatchesRecordedHashes) {
  ExpectGolden<mdp::QTable>(GetParam());
}

TEST_P(TrainingGoldenTest, SparseMatchesRecordedHashes) {
  ExpectGolden<mdp::SparseQTable>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TrainingGoldenTest,
    ::testing::Values(
        GoldenCase{"univ1-dsct", 7, 1, 500, true, false, 0x87f24aa2aaaa1f0aULL,
                   0x95b113a51ac035e7ULL},
        GoldenCase{"univ1-dsct", 7, 4, 500, true, false, 0xbba8401215113d1fULL,
                   0x0690d390ef4c5ec7ULL},
        GoldenCase{"univ1-dsct", 7, 1, 500, false, true, 0xbc4237c2fc591df5ULL,
                   0xc965df07edce4f35ULL},
        GoldenCase{"univ1-dsct", 7, 4, 500, false, true, 0xdfc5ff7cb194b7eaULL,
                   0x8eb6ea64de5f5e58ULL},
        GoldenCase{"paris", 5, 1, 10, true, true, 0x0db7e5e2d1c865fcULL,
                   0x59b7c8af68459e59ULL},
        GoldenCase{"paris", 4, 4, 25, true, true, 0xd30cb4f43acc8d51ULL,
                   0xb121a06a71061256ULL},
        GoldenCase{"paris", 9, 4, 25, true, true, 0x865abbfef49e183aULL,
                   0xb50280701bdd3fedULL},
        GoldenCase{"nyc", 3, 4, 60, true, true, 0xbd146f11fa0b1697ULL,
                   0x4f418f0dc9dfe3f5ULL},
        GoldenCase{"univ1-dsct", 7, 1, 500, true, false, 0xde32f5096db03276ULL,
                   0xb59bd26c28c9d159ULL, ExplorationMode::kEpsilonGreedyQ,
                   UpdateRule::kSarsa},
        GoldenCase{"univ1-dsct", 7, 1, 500, true, false, 0x173043ac03cc3f50ULL,
                   0x82780a142350f222ULL, ExplorationMode::kEpsilonGreedyQ,
                   UpdateRule::kQLearning},
        GoldenCase{"univ1-dsct", 7, 1, 500, true, false, 0xe8a253ed22208ad9ULL,
                   0xa279dcfb277c1437ULL, ExplorationMode::kEpsilonGreedyQ,
                   UpdateRule::kExpectedSarsa},
        GoldenCase{"univ1-dsct", 7, 1, 500, true, false, 0x38997c309b2760bdULL,
                   0x95b113a51ac035e7ULL, ExplorationMode::kRewardGreedy,
                   UpdateRule::kQLearning},
        GoldenCase{"univ1-dsct", 7, 1, 500, true, false, 0xf3607fff6cf466f4ULL,
                   0x95b113a51ac035e7ULL, ExplorationMode::kRewardGreedy,
                   UpdateRule::kExpectedSarsa},
        GoldenCase{"paper-wire", 17, 1, 500, true, false, 0x39076c2e6c6e5244ULL,
                   0x89b173df3126e847ULL}));

struct TraversalCase {
  const char* dataset;             // a GoldenDataset name
  ExplorationMode exploration;     // the behaviour policy that trains Q
  std::uint64_t eda_hash;          // EDA plans for seeds 1..10
  std::uint64_t plans_hash;        // greedy and beam plans from three starts
  std::uint64_t suggestions_hash;  // interactive suggestions and Complete()
};

void PrintTo(const TraversalCase& c, std::ostream* os) {
  *os << c.dataset
      << (c.exploration == ExplorationMode::kEpsilonGreedyQ ? "/q-greedy"
                                                             : "");
}

void MixPlan(const model::Plan& plan, Fnv1a* hash) {
  hash->Mix(plan.size());
  for (model::ItemId item : plan.items()) {
    hash->Mix(static_cast<std::uint64_t>(item));
  }
}

void MixSuggestions(const std::vector<adaptive::Suggestion>& suggestions,
                    Fnv1a* hash) {
  hash->Mix(suggestions.size());
  for (const adaptive::Suggestion& s : suggestions) {
    hash->Mix(static_cast<std::uint64_t>(s.item));
    hash->Mix(static_cast<std::uint64_t>(s.theta));
    hash->Mix(std::bit_cast<std::uint64_t>(s.reward));
    hash->Mix(std::bit_cast<std::uint64_t>(s.q_value));
  }
}

// Every traversal that ranks a step, on one dense policy per catalog and
// behaviour policy: the EDA baseline's reward-tie draws, greedy and beam
// plans from three starts, and an interactive session's full suggestion
// lists before and after one pin, then its completed plan.
class TraversalGoldenTest : public ::testing::TestWithParam<TraversalCase> {};

TEST_P(TraversalGoldenTest, MatchesRecordedHashes) {
  const TraversalCase& c = GetParam();
  const datagen::Dataset dataset = GoldenDataset(c.dataset);
  const model::TaskInstance instance = dataset.Instance();
  core::PlannerConfig config = GoldenConfig(dataset, 1, 100, true);
  config.sarsa.exploration = c.exploration;
  config.seed = 7;
  core::RlPlanner planner(instance, config);
  ASSERT_TRUE(planner.Train().ok());

  Fnv1a eda;
  const baselines::EdaGreedy baseline(instance, config.reward);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    MixPlan(baseline.BuildPlan(seed), &eda);
  }

  Fnv1a plans;
  const auto n = static_cast<model::ItemId>(dataset.catalog.size());
  for (model::ItemId start : {dataset.default_start, n / 3, 2 * n / 3}) {
    RecommendConfig recommend;
    recommend.start_item = start;
    recommend.mask_type_overflow = config.sarsa.mask_type_overflow;
    MixPlan(RecommendPlan(planner.q_table(), instance,
                          planner.reward_function(), recommend),
            &plans);
    MixPlan(RecommendPlanBeam(planner.q_table(), instance,
                              planner.reward_function(), recommend,
                              BeamConfig{}),
            &plans);
  }

  Fnv1a suggestions;
  adaptive::InteractiveSession session(planner);
  MixSuggestions(session.SuggestNext(-1), &suggestions);
  ASSERT_TRUE(session.Pin(dataset.default_start).ok());
  MixSuggestions(session.SuggestNext(-1), &suggestions);
  MixPlan(session.Complete(), &suggestions);

  EXPECT_EQ(eda.state, c.eda_hash) << std::hex << "eda 0x" << eda.state;
  EXPECT_EQ(plans.state, c.plans_hash)
      << std::hex << "plans 0x" << plans.state;
  EXPECT_EQ(suggestions.state, c.suggestions_hash)
      << std::hex << "suggestions 0x" << suggestions.state;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TraversalGoldenTest,
    ::testing::Values(
        TraversalCase{"univ1-dsct", ExplorationMode::kRewardGreedy,
                      0x770e91a08d470567ULL, 0x5fe4f8d61693fc6eULL,
                      0x5318c317fa180647ULL},
        TraversalCase{"univ1-dsct", ExplorationMode::kEpsilonGreedyQ,
                      0x770e91a08d470567ULL, 0x55eb0c1699fcbe62ULL,
                      0x269b5ba253ed0568ULL},
        TraversalCase{"univ2-ds", ExplorationMode::kRewardGreedy,
                      0x516108344cce2d14ULL, 0x80d6a8a95fdb5784ULL,
                      0xe0913c668b0becb3ULL},
        TraversalCase{"univ2-ds", ExplorationMode::kEpsilonGreedyQ,
                      0x516108344cce2d14ULL, 0x2b30aa164e9098a5ULL,
                      0x615a198e6aaf04f4ULL},
        TraversalCase{"nyc", ExplorationMode::kRewardGreedy,
                      0x539042c0f61a1f74ULL, 0xb0f1f1af7db39709ULL,
                      0x5ef6bb6de02fb69cULL},
        TraversalCase{"nyc", ExplorationMode::kEpsilonGreedyQ,
                      0x539042c0f61a1f74ULL, 0x346e84e803d35008ULL,
                      0x42f8367d2b8cd2b6ULL},
        TraversalCase{"paris", ExplorationMode::kRewardGreedy,
                      0x014e910a2d2d6e44ULL, 0x22c32b5dd3759b18ULL,
                      0x4313b315b13ba149ULL},
        TraversalCase{"paris", ExplorationMode::kEpsilonGreedyQ,
                      0x014e910a2d2d6e44ULL, 0xf1b3682fb277853cULL,
                      0xbf19db71966a6d71ULL},
        TraversalCase{"course-300", ExplorationMode::kRewardGreedy,
                      0x7267ffc68f5e25e7ULL, 0xf97376ce900e182dULL,
                      0x31d8585fbc2a3554ULL},
        TraversalCase{"course-300", ExplorationMode::kEpsilonGreedyQ,
                      0x7267ffc68f5e25e7ULL, 0x8014e293c5b116cbULL,
                      0x5a8d8b031126e190ULL}));

// The fleet's retrain path: SarsaLearner::LearnFrom on a warm table.
template <typename QModel>
void ExpectWarmStartGolden() {
  const datagen::Dataset dataset = datagen::MakeParisTrip();
  const model::TaskInstance instance = dataset.Instance();
  const core::PlannerConfig config = GoldenConfig(dataset, 1, 25, true);
  const mdp::RewardFunction reward(instance, config.reward);
  SarsaLearnerT<QModel> cold(instance, reward, config.sarsa, /*seed=*/5);
  QModel warm = cold.Learn();
  SarsaLearnerT<QModel> learner(instance, reward, config.sarsa, /*seed=*/6);
  const QModel q = learner.LearnFrom(std::move(warm));

  const std::uint64_t table = TableHash(q);
  const std::uint64_t returns = ReturnsHash(learner.episode_returns());
  EXPECT_EQ(table, 0xddae1421b5dd891dULL) << std::hex << "table 0x" << table;
  EXPECT_EQ(returns, 0xb84604aca23512e1ULL)
      << std::hex << "returns 0x" << returns;
}

TEST(WarmStartGoldenTest, DenseMatchesRecordedHashes) {
  ExpectWarmStartGolden<mdp::QTable>();
}

TEST(WarmStartGoldenTest, SparseMatchesRecordedHashes) {
  ExpectWarmStartGolden<mdp::SparseQTable>();
}

// The same warm start at K = 4: the retrain learns one table whether its
// shards run on an external 1-thread pool or on the learner's own pool.
// That table is neither the K = 1 one (LearnFrom follows num_workers) nor
// a cold K = 4 run's (the shards start from the warm table).
template <typename QModel>
void ExpectShardedWarmStartIgnoresThreadCount() {
  const datagen::Dataset dataset = datagen::MakeParisTrip();
  const model::TaskInstance instance = dataset.Instance();
  core::PlannerConfig config = GoldenConfig(dataset, 1, 25, true);
  const mdp::RewardFunction reward(instance, config.reward);
  SarsaLearnerT<QModel> cold(instance, reward, config.sarsa, /*seed=*/5);
  const QModel warm = cold.Learn();
  SarsaLearnerT<QModel> serial(instance, reward, config.sarsa, /*seed=*/6);
  const QModel q_serial = serial.LearnFrom(warm);

  config.sarsa.num_workers = 4;
  util::ThreadPool one_thread(1);
  SarsaLearnerT<QModel> pooled(instance, reward, config.sarsa, /*seed=*/6,
                               &one_thread);
  SarsaLearnerT<QModel> owned(instance, reward, config.sarsa, /*seed=*/6);
  const QModel q_pooled = pooled.LearnFrom(warm);
  const QModel q_owned = owned.LearnFrom(warm);
  EXPECT_TRUE(q_pooled == q_owned);
  EXPECT_EQ(pooled.episode_returns(), owned.episode_returns());
  EXPECT_EQ(pooled.episode_returns().size(), 25u);
  EXPECT_FALSE(q_pooled == q_serial);
  SarsaLearnerT<QModel> cold_sharded(instance, reward, config.sarsa,
                                     /*seed=*/6);
  EXPECT_FALSE(q_pooled == cold_sharded.Learn());
}

TEST(WarmStartGoldenTest, ShardedWarmStartIgnoresThreadCountDense) {
  ExpectShardedWarmStartIgnoresThreadCount<mdp::QTable>();
}

TEST(WarmStartGoldenTest, ShardedWarmStartIgnoresThreadCountSparse) {
  ExpectShardedWarmStartIgnoresThreadCount<mdp::SparseQTable>();
}

}  // namespace
}  // namespace rlplanner::rl
