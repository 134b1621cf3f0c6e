// Micro-benchmarks for the hot paths of the library: the reward components,
// the interleaving similarity, bitset operations, Q-table queries and full
// episode generation.
//
// Run with no arguments, the binary times a full Learn() on a
// Univ-1-scale synthetic catalog and every dispatched SIMD kernel (scalar
// vs. the best level the host supports), and writes the results to
// BENCH_micro.json. Run with any google-benchmark argument (e.g.
// --benchmark_filter=.) it runs the registered gbench suite instead.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "datagen/course_data.h"
#include "datagen/synthetic.h"
#include "mdp/episode_state.h"
#include "mdp/q_table.h"
#include "mdp/reward.h"
#include "mdp/similarity.h"
#include "rl/sarsa.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/simd.h"

namespace {

using rlplanner::datagen::Dataset;

void BM_BitsetIntersectCount(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  rlplanner::util::DynamicBitset a(bits);
  rlplanner::util::DynamicBitset b(bits);
  rlplanner::util::Rng rng(1);
  for (std::size_t i = 0; i < bits; ++i) {
    if (rng.NextBernoulli(0.3)) a.Set(i);
    if (rng.NextBernoulli(0.3)) b.Set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.IntersectCount(b));
  }
}
BENCHMARK(BM_BitsetIntersectCount)->Arg(64)->Arg(512)->Arg(4096);

void BM_SequenceSimilarity(benchmark::State& state) {
  const Dataset dataset = rlplanner::datagen::MakeUniv1DsCt();
  const auto& templates = dataset.soft.interleaving;
  rlplanner::model::TypeSequence sequence;
  for (int i = 0; i < state.range(0); ++i) {
    sequence.push_back(i % 2 == 0 ? rlplanner::model::ItemType::kPrimary
                                  : rlplanner::model::ItemType::kSecondary);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rlplanner::mdp::AggregateSimilarity(
        sequence, templates, rlplanner::mdp::SimilarityMode::kAverage));
  }
}
BENCHMARK(BM_SequenceSimilarity)->Arg(5)->Arg(10);

void BM_RewardEvaluation(benchmark::State& state) {
  const Dataset dataset = rlplanner::datagen::MakeUniv1DsCt();
  const rlplanner::model::TaskInstance instance = dataset.Instance();
  rlplanner::mdp::RewardWeights weights;
  const rlplanner::mdp::RewardFunction reward(instance, weights);
  rlplanner::mdp::EpisodeState episode(instance);
  episode.Add(dataset.default_start);
  episode.Add(0);
  std::size_t item = 0;
  for (auto _ : state) {
    item = (item + 1) % dataset.catalog.size();
    if (episode.Contains(static_cast<rlplanner::model::ItemId>(item))) {
      continue;
    }
    benchmark::DoNotOptimize(
        reward.Reward(episode, static_cast<rlplanner::model::ItemId>(item)));
  }
}
BENCHMARK(BM_RewardEvaluation);

void BM_QTableArgmax(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  rlplanner::mdp::QTable q(n);
  rlplanner::util::Rng rng(3);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t a = 0; a < n; ++a) {
      q.Set(static_cast<int>(s), static_cast<int>(a), rng.NextDouble());
    }
  }
  int row = 0;
  for (auto _ : state) {
    row = (row + 1) % static_cast<int>(n);
    benchmark::DoNotOptimize(
        q.ArgmaxAction(row, [](rlplanner::model::ItemId) { return true; }));
  }
}
BENCHMARK(BM_QTableArgmax)->Arg(31)->Arg(114)->Arg(500);

void BM_QTableArgmaxBitset(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  rlplanner::mdp::QTable q(n);
  rlplanner::util::DynamicBitset allowed(n);
  rlplanner::util::Rng rng(3);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t a = 0; a < n; ++a) {
      q.Set(static_cast<int>(s), static_cast<int>(a), rng.NextDouble());
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.5)) allowed.Set(i);
  }
  int row = 0;
  for (auto _ : state) {
    row = (row + 1) % static_cast<int>(n);
    benchmark::DoNotOptimize(q.ArgmaxAction(row, allowed));
  }
}
BENCHMARK(BM_QTableArgmaxBitset)->Arg(31)->Arg(114)->Arg(500)->Arg(2000);

void BM_SingleEpisode(benchmark::State& state) {
  rlplanner::datagen::SyntheticSpec spec;
  spec.num_items = static_cast<int>(state.range(0));
  spec.vocab_size = 2 * spec.num_items;
  const Dataset dataset = rlplanner::datagen::GenerateSynthetic(spec);
  const rlplanner::model::TaskInstance instance = dataset.Instance();
  rlplanner::mdp::RewardWeights weights;
  const rlplanner::mdp::RewardFunction reward(instance, weights);
  rlplanner::rl::SarsaConfig config;
  config.num_episodes = 1;
  config.start_item = dataset.default_start;
  config.policy_rounds = 1;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    rlplanner::rl::SarsaLearner learner(instance, reward, config, ++seed);
    benchmark::DoNotOptimize(learner.Learn());
  }
  state.counters["items"] = static_cast<double>(spec.num_items);
}
BENCHMARK(BM_SingleEpisode)->Arg(31)->Arg(114)->Arg(300);

// ---------------------------------------------------------------------------
// Learn() harness (BENCH_micro.json "benchmarks" section)
// ---------------------------------------------------------------------------

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Timing {
  double ns_per_op = 0.0;      // one complete training run
  double items_per_sec = 0.0;  // episodes per second
};

// Univ-1 CS is the largest course program in the paper (114 items); the
// synthetic catalog mirrors that scale so the numbers track the real hot
// path without depending on the curated datasets.
Dataset MakeUniv1ScaleDataset() {
  rlplanner::datagen::SyntheticSpec spec;
  spec.num_items = 114;
  spec.vocab_size = 228;
  return rlplanner::datagen::GenerateSynthetic(spec);
}

// Times a full Learn(): one "op" is a complete training run; items/sec is
// episodes per second.
Timing TimeLearn(const Dataset& dataset) {
  const rlplanner::model::TaskInstance instance = dataset.Instance();
  rlplanner::mdp::RewardWeights weights;
  const rlplanner::mdp::RewardFunction reward(instance, weights);
  rlplanner::rl::SarsaConfig config;
  config.num_episodes = 50;
  config.start_item = dataset.default_start;
  config.policy_rounds = 1;
  const int kReps = 5;
  const double begin = Now();
  for (int rep = 0; rep < kReps; ++rep) {
    rlplanner::rl::SarsaLearner learner(instance, reward, config,
                                        1000 + static_cast<std::uint64_t>(rep));
    benchmark::DoNotOptimize(learner.Learn());
  }
  const double seconds = Now() - begin;
  Timing t;
  t.ns_per_op = seconds * 1e9 / kReps;
  t.items_per_sec = static_cast<double>(config.num_episodes) * kReps / seconds;
  return t;
}

// ---------------------------------------------------------------------------
// Per-kernel scalar-vs-SIMD entries (BENCH_micro.json "kernels" section)
// ---------------------------------------------------------------------------

// Times one kernel invocation, calibrating the iteration count until a
// measurement window of >= 30ms — long enough to be stable on a shared
// 1-core runner while keeping the whole kernel sweep under a second.
template <typename Fn>
double TimeKernelNs(Fn&& fn) {
  fn();  // warm-up (page-in, branch predictors, dispatch resolution)
  int iters = 256;
  for (;;) {
    const double begin = Now();
    for (int i = 0; i < iters; ++i) fn();
    const double seconds = Now() - begin;
    if (seconds >= 0.03 || iters >= (1 << 24)) return seconds * 1e9 / iters;
    iters *= 4;
  }
}

struct KernelBench {
  std::string name;
  double scalar_ns = 0.0;
  double simd_ns = 0.0;
  double speedup() const { return simd_ns > 0.0 ? scalar_ns / simd_ns : 0.0; }
};

// Benchmarks every dispatched kernel at the 10k-item recommender-catalog
// scale the SIMD pass targets (large enough that DynamicBitset routes
// through the kernel table rather than its inline loops). `scalar_ns` uses
// the scalar table; `simd_ns` uses the best level the host supports, so on
// scalar-only machines the two columns time the same code.
std::vector<KernelBench> RunKernelBenchmarks() {
  namespace simd = rlplanner::util::simd;
  constexpr std::size_t kBits = 16384;  // 256 words
  constexpr std::size_t kWords = kBits / 64;
  constexpr std::size_t kFloats = 10000;

  rlplanner::util::Rng rng(7);
  std::vector<std::uint64_t> a(kWords), b(kWords), c(kWords), mask_words;
  for (std::size_t w = 0; w < kWords; ++w) {
    a[w] = rng.NextU64();
    b[w] = rng.NextU64();
    c[w] = rng.NextU64();
  }
  std::vector<double> x(kFloats), y(kFloats), base(kFloats), scratch(kFloats);
  mask_words.resize((kFloats + 63) / 64);
  for (std::size_t i = 0; i < kFloats; ++i) {
    x[i] = rng.NextDouble() - 0.5;
    y[i] = rng.NextDouble() - 0.5;
    base[i] = rng.NextDouble() - 0.5;
    if (rng.NextBernoulli(0.5)) {
      mask_words[i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }

  const simd::Kernels& scalar = simd::KernelsForLevel(simd::Level::kScalar);
  const simd::Kernels& vec = simd::KernelsForLevel(simd::DetectBestLevel());

  // One row per kernel: the same closure parameterized by the table, so the
  // two columns differ only in which function pointers they call.
  const auto bench = [&](const char* name, auto&& op) {
    KernelBench kb;
    kb.name = name;
    kb.scalar_ns = TimeKernelNs([&] { op(scalar); });
    kb.simd_ns = TimeKernelNs([&] { op(vec); });
    return kb;
  };

  std::vector<KernelBench> rows;
  rows.push_back(bench("popcount_words/16384b", [&](const simd::Kernels& k) {
    benchmark::DoNotOptimize(k.popcount_words(a.data(), kWords));
  }));
  rows.push_back(
      bench("intersect_count_words/16384b", [&](const simd::Kernels& k) {
        benchmark::DoNotOptimize(
            k.intersect_count_words(a.data(), b.data(), kWords));
      }));
  rows.push_back(
      bench("andnot_intersect_count_words/16384b",
            [&](const simd::Kernels& k) {
              benchmark::DoNotOptimize(k.andnot_intersect_count_words(
                  a.data(), b.data(), c.data(), kWords));
            }));
  rows.push_back(
      bench("argmax_masked_f64/10000", [&](const simd::Kernels& k) {
        benchmark::DoNotOptimize(k.argmax_masked_f64(
            x.data(), kFloats, mask_words.data(), mask_words.size()));
      }));
  rows.push_back(bench("dot_f64/10000", [&](const simd::Kernels& k) {
    benchmark::DoNotOptimize(k.dot_f64(x.data(), y.data(), kFloats));
  }));
  // Accumulates in place across iterations (x - base is bounded, so a 30ms
  // window cannot overflow): copying a fresh destination inside the timed
  // op would swamp the kernel with memcpy.
  scratch = y;
  rows.push_back(
      bench("accumulate_delta_f64/10000", [&](const simd::Kernels& k) {
        k.accumulate_delta_f64(scratch.data(), x.data(), base.data(), kFloats);
        benchmark::DoNotOptimize(scratch.data());
      }));
  rows.push_back(bench("max_abs_f64/10000", [&](const simd::Kernels& k) {
    benchmark::DoNotOptimize(k.max_abs_f64(x.data(), kFloats));
  }));
  return rows;
}

void PrintEntry(std::FILE* f, const char* name, const Timing& t) {
  std::fprintf(f,
               "    {\"name\": \"%s\", \"ns_per_op\": %.1f, "
               "\"items_per_sec\": %.1f}\n",
               name, t.ns_per_op, t.items_per_sec);
}

int WriteMicroJson() {
  const Dataset dataset = MakeUniv1ScaleDataset();
  const Timing learn = TimeLearn(dataset);
  const std::vector<KernelBench> kernels = RunKernelBenchmarks();

  std::FILE* f = std::fopen("BENCH_micro.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_micro.json for writing\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"catalog_items\": %zu,\n", dataset.catalog.size());
  // Dispatch level the "simd" columns below were measured at; the bench
  // gate refuses to compare runs taken at different levels.
  std::fprintf(f, "  \"simd\": \"%s\",\n",
               rlplanner::util::simd::ActiveLevelName());
  std::fprintf(f, "  \"benchmarks\": [\n");
  PrintEntry(f, "learn/optimized", learn);
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelBench& kb = kernels[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"scalar_ns_per_op\": %.2f, "
                 "\"simd_ns_per_op\": %.2f, \"speedup\": %.2f}%s\n",
                 kb.name.c_str(), kb.scalar_ns, kb.simd_ns, kb.speedup(),
                 i + 1 < kernels.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("learn: %.0f ns/op\n", learn.ns_per_op);
  for (const KernelBench& kb : kernels) {
    std::printf("%-36s %10.2f ns scalar %10.2f ns %s (%.2fx)\n",
                kb.name.c_str(), kb.scalar_ns, kb.simd_ns,
                rlplanner::util::simd::ActiveLevelName(), kb.speedup());
  }
  std::printf("wrote BENCH_micro.json\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc <= 1) return WriteMicroJson();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
