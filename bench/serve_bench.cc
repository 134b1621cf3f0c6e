// Serving-layer benchmark (BENCH_serve.json).
//
// Measures what only this harness measures (perfbench/run.py covers plan
// latency, throughput and the fleet cycle, as medians over repeated ~2 s
// runs) in three phases:
//
//  1. Profiler overhead: a closed-loop wire workload at Univ-1 scale (114
//     items, 2 shards, 4 connections) in five off → on → off triples
//     (SIGPROF sampling at 97 Hz in the on window, which runs until it
//     holds 50 samples; each off window runs the same request count),
//     reporting each triple's on-throughput / mean(off-throughputs) and
//     their median. The gate's absolute floor (>= 0.98) on the median
//     enforces the <= 2% overhead budget.
//  2. Snapshot-load latency: installing a policy from disk via the two
//     load paths — v2 deserialize and v2 mmap (zero-copy) — timed against
//     a 10k-item snapshot large enough (~100 MB full, ~15 MB smoke) that
//     the deserialize-vs-mmap gap is the headline number.
//  3. mmap hot swap under wire load: HTTP clients drive POST /v1/plan
//     against the 10k-item catalog while the ~100 MB v2 snapshot is
//     mmap-installed three times, paced by answered requests, with the
//     clients planning until the last install is published; zero drops
//     (else exit 1), and the per-install latency is recorded (page-table
//     work, not a deserialize pass).
//
// Usage: serve_bench [--smoke]   (writes BENCH_serve.json to the cwd;
// --smoke shrinks the request budgets for CI smoke lanes and keeps one
// short profiler triple)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/planner.h"
#include "datagen/synthetic.h"
#include "mdp/q_table.h"
#include "mdp/sparse_q_table.h"
#include "net/client.h"
#include "net/plan_handler.h"
#include "net/server.h"
#include "obs/profiler.h"
#include "serve/plan_service.h"
#include "serve/policy_registry.h"
#include "serve/policy_snapshot.h"
#include "util/simd.h"

namespace {

using rlplanner::datagen::Dataset;

// Univ-1 CS scale: 114 items, 228 topics (see bench/micro_benchmarks.cc).
Dataset MakeUniv1ScaleDataset() {
  rlplanner::datagen::SyntheticSpec spec;
  spec.num_items = 114;
  spec.vocab_size = 228;
  return rlplanner::datagen::GenerateSynthetic(spec);
}

rlplanner::core::PlannerConfig BenchConfig(const Dataset& dataset) {
  rlplanner::core::PlannerConfig config = rlplanner::core::DefaultUniv1Config();
  config.sarsa.num_episodes = 120;
  config.sarsa.start_item = dataset.default_start;
  config.seed = 17;
  return config;
}

rlplanner::mdp::QTable TrainPolicy(const rlplanner::model::TaskInstance& instance,
                                   const rlplanner::core::PlannerConfig& config) {
  rlplanner::core::RlPlanner planner(instance, config);
  const rlplanner::util::Status status = planner.Train();
  if (!status.ok()) {
    std::fprintf(stderr, "training failed: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  return planner.q_table();
}

// The full plan-serving stack behind the wire: PlanService → PlanHandler →
// epoll HttpServer on an ephemeral loopback port. Owns the CLI's drain
// order on teardown.
struct WireStack {
  WireStack(const rlplanner::model::TaskInstance& instance,
            const rlplanner::mdp::RewardWeights& weights,
            const rlplanner::serve::PolicyRegistry& registry,
            std::size_t workers, std::size_t shards, std::size_t max_queue) {
    rlplanner::serve::PlanServiceConfig service_config;
    service_config.num_workers = workers;
    service_config.max_queue = max_queue;
    service = std::make_unique<rlplanner::serve::PlanService>(
        instance, weights, registry, service_config);
    service->Start();
    handler = std::make_unique<rlplanner::net::PlanHandler>(
        service.get(), rlplanner::net::PlanHandler::Options{});
    rlplanner::net::HttpServerConfig server_config;
    server_config.host = "127.0.0.1";
    server_config.port = 0;
    server_config.num_shards = shards;
    server = std::make_unique<rlplanner::net::HttpServer>(
        server_config, handler->AsHandler());
    if (const auto status = server->Start(); !status.ok()) {
      std::fprintf(stderr, "wire server start failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  }

  ~WireStack() {
    (void)service->Drain(std::chrono::milliseconds(5000));
    server->Shutdown();
    service->Stop();
  }

  std::unique_ptr<rlplanner::serve::PlanService> service;
  std::unique_ptr<rlplanner::net::PlanHandler> handler;
  std::unique_ptr<rlplanner::net::HttpServer> server;
};

struct WireResult {
  double wall_seconds = 0.0;
  std::uint64_t requests = 0;
  double requests_per_sec = 0.0;
  std::uint64_t samples = 0;  // profiler samples in the window (0 when off)
};

// Closed-loop HTTP clients over loopback: each connection keeps exactly one
// request in flight, with keep-alive reuse. The connections share one
// budget: `requests` in all or, when it is 0, as many as they send before
// `done()` holds. Any transport error or non-200 fails the bench (a healthy
// closed loop never fills the admission queue).
WireResult RunWireWindow(std::uint16_t port, const Dataset& dataset,
                         std::size_t connections, std::uint64_t requests,
                         const std::function<bool()>& done) {
  std::atomic<std::uint64_t> tickets{0};
  const auto begin = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      rlplanner::net::BlockingHttpClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        std::fprintf(stderr, "wire client connect failed\n");
        std::exit(1);
      }
      for (std::size_t i = 0;; ++i) {
        const std::uint64_t ticket = tickets.fetch_add(1);
        if (requests != 0 ? ticket >= requests : done()) break;
        const std::size_t start = (c * 31 + i) % dataset.catalog.size();
        const std::string body =
            "{\"start_item\": " + std::to_string(start) + "}";
        auto response = client.Request("POST", "/v1/plan", body);
        if (!response.ok() || response.value().status != 200) {
          std::fprintf(stderr, "wire request failed: %s\n",
                       response.ok()
                           ? std::to_string(response.value().status).c_str()
                           : response.status().ToString().c_str());
          std::exit(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto end = std::chrono::steady_clock::now();

  WireResult result;
  result.wall_seconds = std::chrono::duration<double>(end - begin).count();
  // Each connection drew one ticket past the last request it sent.
  result.requests = requests != 0 ? requests : tickets.load() - connections;
  result.requests_per_sec =
      static_cast<double>(result.requests) / result.wall_seconds;
  return result;
}

// One on window: SIGPROF sampling at 97 Hz while the clients plan, until
// the profiler holds `min_samples` samples. Exits the bench if sampling
// stalls, rather than hanging.
WireResult RunProfiledWindow(std::uint16_t port, const Dataset& dataset,
                             std::size_t connections,
                             std::uint64_t min_samples) {
  rlplanner::obs::ProfilerConfig profiler_config;
  profiler_config.enabled = true;
  rlplanner::obs::Profiler profiler(profiler_config);
  if (!profiler.Start().ok()) {
    std::fprintf(stderr, "profiler start failed\n");
    std::exit(1);
  }
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  WireResult result = RunWireWindow(port, dataset, connections, 0, [&] {
    return profiler.samples_total() >= min_samples ||
           std::chrono::steady_clock::now() > give_up;
  });
  profiler.Stop();
  result.samples = profiler.samples_total();
  if (result.samples < min_samples) {
    std::fprintf(stderr, "profiler took %llu samples in 60 s, wanted %llu\n",
                 static_cast<unsigned long long>(result.samples),
                 static_cast<unsigned long long>(min_samples));
    std::exit(1);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Phases 2 and 3: snapshot loading and zero-copy hot swap at 10k items.
// ---------------------------------------------------------------------------

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The 10k-item sparse fixture: a briefly trained policy whose v2 snapshot
// is padded with deterministic filler entries (tiny negative values, so
// learned positives still win every argmax fast path) until the file
// crosses the target size — ~101 MB full, ~15 MB smoke. The trained
// (unpadded) table doubles as the "before" policy for the hot-swap phase.
struct BigSnapshotFixture {
  Dataset dataset;
  rlplanner::core::PlannerConfig config;
  rlplanner::mdp::SparseQTable trained{0};
  std::string path;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t entries = 0;
};

BigSnapshotFixture BuildBigSnapshot(bool smoke) {
  BigSnapshotFixture fx;
  rlplanner::datagen::SyntheticSpec spec;
  spec.num_items = 10000;
  spec.vocab_size = 512;
  spec.seed = 7;
  fx.dataset = rlplanner::datagen::GenerateSynthetic(spec);

  fx.config = rlplanner::core::PlannerConfig{};
  fx.config.sarsa.q_representation = rlplanner::rl::QRepresentation::kSparse;
  // Restart rounds AddNoise over all |I|² cells — the dense blow-up the
  // sparse table exists to avoid — so scale configs pin one round.
  fx.config.sarsa.policy_rounds = 1;
  fx.config.sarsa.num_episodes = smoke ? 10 : 60;
  fx.config.sarsa.start_item = fx.dataset.default_start;
  fx.config.seed = 17;

  const rlplanner::model::TaskInstance instance = fx.dataset.Instance();
  rlplanner::core::RlPlanner planner(instance, fx.config);
  if (const auto status = planner.Train(); !status.ok()) {
    std::fprintf(stderr, "10k sparse training failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  fx.trained = planner.sparse_q_table();

  rlplanner::mdp::SparseQTable padded = fx.trained;
  const std::size_t n = padded.num_items();
  const std::size_t per_row = smoke ? 130 : 880;  // 12 B/entry on disk
  for (std::size_t state = 0; state < n; ++state) {
    for (std::size_t j = 0; j < per_row; ++j) {
      const std::size_t action = (state * 2654435761ull + j * 40503ull) % n;
      const auto a = static_cast<rlplanner::model::ItemId>(action);
      const auto st = static_cast<rlplanner::model::ItemId>(state);
      if (padded.Get(st, a) == 0.0) {
        padded.Set(st, a, -1e-9 * static_cast<double>(j + 1));
      }
    }
  }

  rlplanner::serve::SparsePolicySnapshotV2 snapshot;
  snapshot.catalog_fingerprint =
      rlplanner::serve::CatalogFingerprint(fx.dataset.catalog);
  snapshot.seed = fx.config.seed;
  snapshot.provenance = fx.config.sarsa;
  fx.entries = padded.entry_count();
  snapshot.table = std::move(padded);
  fx.path = "big_sparse_v2.snap";
  if (const auto status = snapshot.SaveToFile(fx.path); !status.ok()) {
    std::fprintf(stderr, "big snapshot save failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  auto info = rlplanner::serve::InspectSnapshotFile(fx.path);
  if (!info.ok() || !info.value().checksum_ok) {
    std::fprintf(stderr, "big snapshot failed inspection\n");
    std::exit(1);
  }
  fx.snapshot_bytes = info.value().file_bytes;
  return fx;
}

struct SnapshotLoadResult {
  const char* format;  // "sparse-v2"
  const char* mode;    // "deserialize" | "mmap"
  std::size_t items = 0;
  std::uint64_t snapshot_bytes = 0;
  double seconds = 0.0;
};

// Times one InstallSnapshotFile: file → validated policy → published slot,
// i.e. the full swap-in latency a production rollout would observe.
SnapshotLoadResult TimeInstall(rlplanner::serve::PolicyRegistry& registry,
                               const char* format, const char* mode,
                               const std::string& path, std::size_t items,
                               std::uint64_t snapshot_bytes,
                               rlplanner::serve::SnapshotLoadMode load_mode) {
  SnapshotLoadResult result;
  result.format = format;
  result.mode = mode;
  result.items = items;
  result.snapshot_bytes = snapshot_bytes;
  const double begin = Now();
  auto installed = registry.InstallSnapshotFile("default", path, load_mode);
  result.seconds = Now() - begin;
  if (!installed.ok()) {
    std::fprintf(stderr, "snapshot install (%s/%s) failed: %s\n", format,
                 mode, installed.status().ToString().c_str());
    std::exit(1);
  }
  return result;
}

struct MmapWireSwapResult {
  std::uint64_t total_responses = 0;
  std::uint64_t dropped = 0;
  std::uint64_t swaps = 0;
  double wall_seconds = 0.0;
  double requests_per_sec = 0.0;
  double install_mean_seconds = 0.0;
  double install_max_seconds = 0.0;
};

constexpr std::uint64_t kMmapSwaps = 3;

// Phase 3: closed-loop HTTP clients plan over the 10k catalog while the
// swapper mmap-installs the big v2 snapshot kMmapSwaps times mid-run. The
// wire contract is that a swap is invisible to in-flight traffic — every
// request completes with a 200 — plus a latency claim: each install is O(1)
// page-table work, not a payload pass.
MmapWireSwapResult RunWireMmapHotSwap(
    const rlplanner::model::TaskInstance& instance,
    const rlplanner::mdp::RewardWeights& weights,
    rlplanner::serve::PolicyRegistry& registry, const Dataset& dataset,
    const std::string& snapshot_path, std::size_t connections,
    int requests_per_connection) {
  WireStack stack(instance, weights, registry, /*workers=*/2, /*shards=*/2,
                  /*max_queue=*/2 * connections + 8);
  const std::uint16_t port = stack.server->port();

  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<bool> swaps_done{false};
  std::atomic<bool> clients_done{false};
  const std::uint64_t total =
      static_cast<std::uint64_t>(connections) *
      static_cast<std::uint64_t>(requests_per_connection);

  const auto begin = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      rlplanner::net::BlockingHttpClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        std::fprintf(stderr, "wire client connect failed\n");
        std::exit(1);
      }
      // Each connection plans at least requests_per_connection times and
      // keeps planning until the last install is published, so every
      // publish lands under load even when planning outpaces the install.
      for (int i = 0; i < requests_per_connection || !swaps_done.load();
           ++i) {
        const std::size_t start =
            (c * 17 + static_cast<std::size_t>(i)) % dataset.catalog.size();
        const std::string body =
            "{\"start_item\": " + std::to_string(start) + "}";
        auto response = client.Request("POST", "/v1/plan", body);
        if (!response.ok()) {
          ++dropped;
          break;
        }
        if (response.value().status == 503) {
          --i;  // admission backpressure, not an error: retry
          std::this_thread::yield();
          continue;
        }
        if (response.value().status != 200) {
          ++dropped;
          continue;
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::uint64_t swaps = 0;
  std::vector<double> install_seconds;
  // Installs are paced by answered requests, not sleeps: install i goes in
  // once i / (kMmapSwaps + 1) of the minimum budget is answered.
  std::thread swapper([&] {
    for (std::uint64_t i = 1; i <= kMmapSwaps; ++i) {
      while (completed.load() + dropped.load() <
             total * i / (kMmapSwaps + 1)) {
        if (clients_done.load()) return;
        std::this_thread::yield();
      }
      const double t0 = Now();
      auto installed = registry.InstallSnapshotFile(
          "default", snapshot_path,
          rlplanner::serve::SnapshotLoadMode::kMmap);
      const double t1 = Now();
      if (installed.ok()) {
        ++swaps;
        install_seconds.push_back(t1 - t0);
      }
    }
    swaps_done = true;
  });
  for (auto& thread : threads) thread.join();
  clients_done = true;
  swapper.join();
  const auto end = std::chrono::steady_clock::now();

  MmapWireSwapResult result;
  result.swaps = swaps;
  result.dropped = dropped.load();
  result.total_responses = completed.load();
  result.wall_seconds = std::chrono::duration<double>(end - begin).count();
  result.requests_per_sec =
      static_cast<double>(result.total_responses) / result.wall_seconds;
  for (double seconds : install_seconds) {
    result.install_mean_seconds += seconds;
    result.install_max_seconds =
        std::max(result.install_max_seconds, seconds);
  }
  if (!install_seconds.empty()) {
    result.install_mean_seconds /=
        static_cast<double>(install_seconds.size());
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // Smoke runs keep every phase alive but shrink its budgets; the gate
  // skips them via the "smoke" context key.
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  const Dataset dataset = MakeUniv1ScaleDataset();
  const rlplanner::model::TaskInstance instance = dataset.Instance();
  const rlplanner::mdp::RewardWeights weights;
  const rlplanner::core::PlannerConfig config = BenchConfig(dataset);
  const rlplanner::mdp::QTable policy = TrainPolicy(instance, config);

  // Phase 1: profiler overhead on the wire path, judged on the median of
  // several off → on → off triples; each triple's denominator (the mean of
  // its two off windows) absorbs machine drift across it. An on window runs
  // until the profiler holds min_samples samples, so the ratio rests on
  // enough samples to judge, and each off window runs the request count of
  // the latest on window (the first, of an unscored on window that also
  // warms the stack). The profiler is process-global (one ITIMER_PROF), so
  // the wire stack needs no wiring — arming it profiles the epoll shards and
  // plan workers alike.
  constexpr std::size_t kConnections = 4;
  const int overhead_triples = smoke ? 1 : 5;
  const std::uint64_t min_samples = smoke ? 5 : 50;
  struct OverheadTriple {
    WireResult off, on, off2;
    double ratio = 0.0;
  };
  std::vector<OverheadTriple> triples(
      static_cast<std::size_t>(overhead_triples));
  {
    rlplanner::serve::PolicyRegistry overhead_registry(
        rlplanner::serve::CatalogFingerprint(dataset.catalog),
        dataset.catalog.size());
    if (!overhead_registry
             .Install("default", policy, config.sarsa, config.seed)
             .ok()) {
      return 1;
    }
    WireStack stack(instance, weights, overhead_registry, /*workers=*/2,
                    /*shards=*/2, /*max_queue=*/2 * kConnections + 8);
    const std::uint16_t port = stack.server->port();
    const auto off_window = [&](std::uint64_t requests) {
      return RunWireWindow(port, dataset, kConnections, requests, nullptr);
    };
    std::uint64_t requests =
        RunProfiledWindow(port, dataset, kConnections, min_samples).requests;
    for (OverheadTriple& triple : triples) {
      triple.off = off_window(requests);
      triple.on =
          RunProfiledWindow(port, dataset, kConnections, min_samples);
      requests = triple.on.requests;
      triple.off2 = off_window(requests);
      triple.ratio = triple.on.requests_per_sec /
                     (0.5 * (triple.off.requests_per_sec +
                             triple.off2.requests_per_sec));
      std::printf(
          "profiler overhead: off %.0f / on %.0f / off %.0f req/s over %llu "
          "requests (ratio %.4f, %llu samples)\n",
          triple.off.requests_per_sec, triple.on.requests_per_sec,
          triple.off2.requests_per_sec,
          static_cast<unsigned long long>(requests), triple.ratio,
          static_cast<unsigned long long>(triple.on.samples));
    }
  }
  std::vector<double> ratios;
  std::uint64_t profiler_samples = triples.front().on.samples;
  // The gate's floor check judges the ratio only when the shortest
  // measurement window clears --min-seconds.
  double profiler_window_s = triples.front().on.wall_seconds;
  for (const OverheadTriple& triple : triples) {
    ratios.push_back(triple.ratio);
    profiler_samples = std::min(profiler_samples, triple.on.samples);
    profiler_window_s =
        std::min({profiler_window_s, triple.off.wall_seconds,
                  triple.on.wall_seconds, triple.off2.wall_seconds});
  }
  std::sort(ratios.begin(), ratios.end());
  const std::size_t mid = ratios.size() / 2;
  const double profiler_ratio =
      ratios.size() % 2 == 1 ? ratios[mid]
                             : 0.5 * (ratios[mid - 1] + ratios[mid]);
  std::printf("profiler overhead: median ratio %.4f over %zu triples\n",
              profiler_ratio, triples.size());

  // Phase 2: snapshot-load latency across the two install paths, on the
  // 10k-item padded v2 fixture (~101 MB full, ~15 MB smoke).
  const BigSnapshotFixture big = BuildBigSnapshot(smoke);
  const rlplanner::model::TaskInstance big_instance = big.dataset.Instance();
  const std::uint64_t big_fingerprint =
      rlplanner::serve::CatalogFingerprint(big.dataset.catalog);

  std::vector<SnapshotLoadResult> snapshot_load;
  {
    rlplanner::serve::PolicyRegistry load_registry(
        big_fingerprint, big.dataset.catalog.size());
    snapshot_load.push_back(TimeInstall(
        load_registry, "sparse-v2", "deserialize", big.path,
        big.dataset.catalog.size(), big.snapshot_bytes,
        rlplanner::serve::SnapshotLoadMode::kDeserialize));
    snapshot_load.push_back(TimeInstall(
        load_registry, "sparse-v2", "mmap", big.path,
        big.dataset.catalog.size(), big.snapshot_bytes,
        rlplanner::serve::SnapshotLoadMode::kMmap));
  }
  for (const SnapshotLoadResult& r : snapshot_load) {
    std::printf("snapshot load %s/%s: %.6fs (%.1f MB)\n", r.format, r.mode,
                r.seconds,
                static_cast<double>(r.snapshot_bytes) / (1024.0 * 1024.0));
  }

  // Phase 3: mmap hot swap under wire load at 10k items.
  rlplanner::serve::PolicyRegistry mmap_registry(
      big_fingerprint, big.dataset.catalog.size());
  if (!mmap_registry
           .Install("default", big.trained, big.config.sarsa, big.config.seed)
           .ok()) {
    return 1;
  }
  const int mmap_requests_per_connection = smoke ? 10 : 50;
  const MmapWireSwapResult mmap_swap = RunWireMmapHotSwap(
      big_instance, weights, mmap_registry, big.dataset, big.path,
      /*connections=*/4, mmap_requests_per_connection);
  std::printf(
      "mmap wire hot swap: %llu responses over %llu swaps, %llu dropped, "
      "install mean %.6fs max %.6fs\n",
      static_cast<unsigned long long>(mmap_swap.total_responses),
      static_cast<unsigned long long>(mmap_swap.swaps),
      static_cast<unsigned long long>(mmap_swap.dropped),
      mmap_swap.install_mean_seconds, mmap_swap.install_max_seconds);
  if (mmap_swap.dropped != 0 || mmap_swap.swaps != kMmapSwaps ||
      mmap_swap.total_responses <
          4ull * static_cast<std::uint64_t>(mmap_requests_per_connection)) {
    std::fprintf(stderr,
                 "mmap hot-swap phase violated the zero-loss contract\n");
    return 1;
  }

  std::FILE* f = std::fopen("BENCH_serve.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_serve.json for writing\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"catalog_items\": %zu,\n", dataset.catalog.size());
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"simd\": \"%s\",\n",
               rlplanner::util::simd::ActiveLevelName());
  std::fprintf(f, "  \"profiler_overhead\": {\n");
  std::fprintf(f, "    \"sample_hz\": 97,\n");
  std::fprintf(f, "    \"shards\": 2,\n");
  std::fprintf(f, "    \"connections\": %zu,\n", kConnections);
  std::fprintf(f, "    \"min_samples\": %llu,\n",
               static_cast<unsigned long long>(min_samples));
  std::fprintf(f, "    \"triples\": [\n");
  for (std::size_t i = 0; i < triples.size(); ++i) {
    const OverheadTriple& t = triples[i];
    std::fprintf(f,
                 "      {\"requests\": %llu, \"off_requests_per_sec\": %.1f, "
                 "\"on_requests_per_sec\": %.1f, "
                 "\"off2_requests_per_sec\": %.1f, \"samples\": %llu, "
                 "\"on_off_ratio\": %.4f}%s\n",
                 static_cast<unsigned long long>(t.on.requests),
                 t.off.requests_per_sec, t.on.requests_per_sec,
                 t.off2.requests_per_sec,
                 static_cast<unsigned long long>(t.on.samples), t.ratio,
                 i + 1 == triples.size() ? "" : ",");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"samples\": %llu,\n",
               static_cast<unsigned long long>(profiler_samples));
  std::fprintf(f, "    \"wall_s\": %.3f,\n", profiler_window_s);
  std::fprintf(f, "    \"on_off_ratio\": %.4f\n", profiler_ratio);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"snapshot_load\": [\n");
  for (std::size_t i = 0; i < snapshot_load.size(); ++i) {
    const SnapshotLoadResult& r = snapshot_load[i];
    std::fprintf(f,
                 "    {\"format\": \"%s\", \"mode\": \"%s\", "
                 "\"items\": %zu, \"snapshot_bytes\": %llu, "
                 "\"seconds\": %.6f}%s\n",
                 r.format, r.mode, r.items,
                 static_cast<unsigned long long>(r.snapshot_bytes), r.seconds,
                 i + 1 == snapshot_load.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"mmap_hot_swap\": {\n");
  std::fprintf(f, "    \"items\": %zu,\n", big.dataset.catalog.size());
  std::fprintf(f, "    \"snapshot_bytes\": %llu,\n",
               static_cast<unsigned long long>(big.snapshot_bytes));
  std::fprintf(f, "    \"snapshot_entries\": %llu,\n",
               static_cast<unsigned long long>(big.entries));
  std::fprintf(f, "    \"connections\": 4,\n");
  std::fprintf(f, "    \"swaps\": %llu,\n",
               static_cast<unsigned long long>(mmap_swap.swaps));
  std::fprintf(f, "    \"responses\": %llu,\n",
               static_cast<unsigned long long>(mmap_swap.total_responses));
  std::fprintf(f, "    \"dropped\": %llu,\n",
               static_cast<unsigned long long>(mmap_swap.dropped));
  std::fprintf(f, "    \"requests_per_sec\": %.1f,\n",
               mmap_swap.requests_per_sec);
  std::fprintf(f,
               "    \"install_seconds\": {\"mean\": %.6f, \"max\": %.6f}\n",
               mmap_swap.install_mean_seconds, mmap_swap.install_max_seconds);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_serve.json\n");
  return 0;
}
