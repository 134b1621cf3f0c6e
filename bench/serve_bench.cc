// Serving-layer benchmark (BENCH_serve.json).
//
// Measures the PlanService at Univ-1 scale (114 items, the paper's largest
// course program) in four phases:
//
//  1. Sustained throughput: closed-loop clients against 1/2/4/8 workers,
//     reporting requests/sec and the p50/p95/p99 end-to-end latency from the
//     service's own histogram.
//  2. Hot swap under load: 4 workers serving while the policy is swapped
//     mid-run. The run must finish with zero dropped and zero incorrectly
//     rejected requests, and every response attributed to an installed
//     version; the JSON records the per-version response counts.
//  3. Wire throughput: the same service behind the epoll HTTP front end
//     (src/net/), driven over real loopback sockets by closed-loop
//     BlockingHttpClient threads — requests/sec plus *client-side*
//     percentiles, i.e. the full accept→parse→queue→plan→respond path.
//  4. Hot swap under wire load: policies swapped while HTTP clients hammer
//     the socket; every request must complete with a 200 attributed to an
//     installed version — zero drops across the swap, measured end to end.
//  5. Snapshot-load latency: installing a policy from disk via the two
//     load paths — v2 deserialize and v2 mmap (zero-copy) — timed against
//     a 10k-item snapshot large enough (~100 MB full, ~15 MB smoke) that
//     the deserialize-vs-mmap gap is the headline number.
//  6. mmap hot swap under wire load: HTTP clients drive POST /v1/plan
//     against the 10k-item catalog while the ~100 MB v2 snapshot is
//     mmap-installed mid-run; zero drops, and the per-install latency is
//     recorded (page-table work, not a deserialize pass).
//  7. Profiler overhead: the 2-shard wire workload three times —
//     profiler off, on (SIGPROF sampling at 97 Hz), off again — reporting
//     on-throughput / mean(off-throughputs). The gate's absolute floor
//     (>= 0.98) enforces the issue's <= 2% overhead budget.
//
// Usage: serve_bench [--smoke]   (writes BENCH_serve.json to the cwd;
// --smoke shrinks the request budgets for CI smoke lanes)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
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
#include "serve/stats.h"
#include "util/json.h"
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

rlplanner::core::PlannerConfig BenchConfig(const Dataset& dataset,
                                           std::uint64_t seed) {
  rlplanner::core::PlannerConfig config = rlplanner::core::DefaultUniv1Config();
  config.sarsa.num_episodes = 120;
  config.sarsa.start_item = dataset.default_start;
  config.seed = seed;
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

struct ThroughputResult {
  std::size_t workers = 0;
  std::size_t clients = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  double wall_seconds = 0.0;
  double requests_per_sec = 0.0;
  rlplanner::serve::ServeStatsSnapshot stats;
};

// Closed-loop load: each client keeps exactly one request in flight for
// `requests_per_client` iterations, rotating the start item across the
// catalog. A ResourceExhausted bounce is retried after a short yield (the
// client is the backpressure), so completed == clients * requests_per_client.
ThroughputResult RunThroughput(const rlplanner::model::TaskInstance& instance,
                               const rlplanner::mdp::RewardWeights& weights,
                               const rlplanner::serve::PolicyRegistry& registry,
                               const Dataset& dataset, std::size_t workers,
                               std::size_t clients,
                               int requests_per_client) {
  rlplanner::serve::PlanServiceConfig config;
  config.num_workers = workers;
  config.max_queue = 2 * clients + 8;
  rlplanner::serve::PlanService service(instance, weights, registry, config);
  service.Start();

  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> failed{0};
  const auto begin = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < requests_per_client; ++i) {
        rlplanner::serve::PlanRequest request;
        request.start_item = static_cast<rlplanner::model::ItemId>(
            (c * 31 + static_cast<std::size_t>(i)) % dataset.catalog.size());
        while (true) {
          auto submitted = service.Submit(request);
          if (submitted.ok()) {
            if (!std::move(submitted).value().get().ok()) ++failed;
            break;
          }
          ++rejected;
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto end = std::chrono::steady_clock::now();
  service.Stop();

  ThroughputResult result;
  result.workers = workers;
  result.clients = clients;
  result.rejected = rejected.load();
  result.wall_seconds = std::chrono::duration<double>(end - begin).count();
  result.stats = service.stats().Collect();
  result.completed = result.stats.completed;
  result.requests_per_sec =
      static_cast<double>(result.completed) / result.wall_seconds;
  if (failed.load() != 0) {
    std::fprintf(stderr, "throughput run had %llu failed requests\n",
                 static_cast<unsigned long long>(failed.load()));
    std::exit(1);
  }
  return result;
}

struct HotSwapResult {
  std::uint64_t total_responses = 0;
  std::uint64_t dropped = 0;
  std::uint64_t incorrectly_rejected = 0;
  std::uint64_t swaps = 0;
  double wall_seconds = 0.0;
  double requests_per_sec = 0.0;
  std::map<std::uint64_t, std::uint64_t> responses_by_version;
  rlplanner::serve::ServeStatsSnapshot stats;
};

// 4 workers serving a closed loop while `swaps` new policy versions are
// published mid-run. Every response must carry a version the registry
// actually installed; a dropped future or a spurious rejection fails the
// bench.
HotSwapResult RunHotSwap(const rlplanner::model::TaskInstance& instance,
                         const rlplanner::mdp::RewardWeights& weights,
                         rlplanner::serve::PolicyRegistry& registry,
                         const Dataset& dataset,
                         const std::vector<rlplanner::mdp::QTable>& policies,
                         const rlplanner::rl::SarsaConfig& provenance,
                         std::size_t clients, int requests_per_client) {
  rlplanner::serve::PlanServiceConfig config;
  config.num_workers = 4;
  config.max_queue = 2 * clients + 8;
  rlplanner::serve::PlanService service(instance, weights, registry, config);
  service.Start();

  std::mutex mutex;
  std::map<std::uint64_t, std::uint64_t> responses_by_version;
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> retried{0};
  std::atomic<bool> clients_done{false};

  const auto begin = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::map<std::uint64_t, std::uint64_t> local;
      for (int i = 0; i < requests_per_client; ++i) {
        rlplanner::serve::PlanRequest request;
        request.start_item = static_cast<rlplanner::model::ItemId>(
            (c * 17 + static_cast<std::size_t>(i)) % dataset.catalog.size());
        bool served = false;
        while (!served) {
          auto submitted = service.Submit(request);
          if (!submitted.ok()) {
            ++retried;  // admission backpressure, not an error
            std::this_thread::yield();
            continue;
          }
          auto result = std::move(submitted).value().get();
          if (!result.ok()) {
            ++dropped;  // an accepted request must never fail mid-swap
            break;
          }
          ++local[result.value().policy_version];
          served = true;
        }
      }
      std::lock_guard<std::mutex> lock(mutex);
      for (const auto& [version, count] : local) {
        responses_by_version[version] += count;
      }
    });
  }
  // Swapper: publish the remaining policies spread over the run.
  std::uint64_t swaps = 0;
  std::thread swapper([&] {
    for (std::size_t i = 1; i < policies.size(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      auto installed = registry.Install("default", policies[i], provenance,
                                        /*seed=*/1000 + i);
      if (installed.ok()) ++swaps;
      if (clients_done.load()) break;
    }
  });
  for (auto& thread : threads) thread.join();
  clients_done = true;
  swapper.join();
  const auto end = std::chrono::steady_clock::now();
  service.Stop();

  HotSwapResult result;
  result.swaps = swaps;
  result.dropped = dropped.load();
  result.wall_seconds = std::chrono::duration<double>(end - begin).count();
  result.responses_by_version = responses_by_version;
  result.stats = service.stats().Collect();
  for (const auto& [version, count] : responses_by_version) {
    result.total_responses += count;
    if (version == 0 || version > registry.install_count()) {
      std::fprintf(stderr, "response attributed to unknown version %llu\n",
                   static_cast<unsigned long long>(version));
      std::exit(1);
    }
  }
  // The registry-backed per-version counters must agree exactly with the
  // client-side tallies: every future the clients resolved corresponds to
  // one serve_responses_total{version=...} increment, even across swaps.
  if (result.stats.responses_by_version != responses_by_version) {
    std::fprintf(stderr,
                 "registry per-version counters disagree with client-side "
                 "tallies\n");
    std::exit(1);
  }
  // Closed-loop clients retry ResourceExhausted, so a rejection is
  // "incorrect" only if it prevented a request from ever completing.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(clients) *
      static_cast<std::uint64_t>(requests_per_client);
  result.incorrectly_rejected =
      expected - result.total_responses - result.dropped;
  result.requests_per_sec =
      static_cast<double>(result.total_responses) / result.wall_seconds;
  return result;
}

double Percentile(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted_ms.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_ms[lo] + (sorted_ms[hi] - sorted_ms[lo]) * frac;
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
  std::size_t shards = 0;
  std::size_t connections = 0;
  std::uint64_t completed = 0;
  double wall_seconds = 0.0;
  double requests_per_sec = 0.0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0, mean_ms = 0.0,
         max_ms = 0.0;
};

// Closed-loop HTTP clients over loopback: each connection keeps exactly one
// request in flight, with keep-alive reuse. Latency is measured around the
// blocking Request() call — the client-observed wire round trip. Any
// transport error or non-200 fails the bench (a healthy closed loop never
// fills the admission queue).
WireResult RunWireThroughput(const rlplanner::model::TaskInstance& instance,
                             const rlplanner::mdp::RewardWeights& weights,
                             const rlplanner::serve::PolicyRegistry& registry,
                             const Dataset& dataset, std::size_t shards,
                             std::size_t connections,
                             int requests_per_connection) {
  WireStack stack(instance, weights, registry, /*workers=*/2, shards,
                  /*max_queue=*/2 * connections + 8);
  const std::uint16_t port = stack.server->port();

  std::vector<std::vector<double>> latencies(connections);
  std::atomic<std::uint64_t> completed{0};
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
      latencies[c].reserve(static_cast<std::size_t>(requests_per_connection));
      for (int i = 0; i < requests_per_connection; ++i) {
        const std::size_t start =
            (c * 31 + static_cast<std::size_t>(i)) % dataset.catalog.size();
        const std::string body =
            "{\"start_item\": " + std::to_string(start) + "}";
        const auto t0 = std::chrono::steady_clock::now();
        auto response = client.Request("POST", "/v1/plan", body);
        const auto t1 = std::chrono::steady_clock::now();
        if (!response.ok() || response.value().status != 200) {
          std::fprintf(stderr, "wire request failed: %s\n",
                       response.ok()
                           ? std::to_string(response.value().status).c_str()
                           : response.status().ToString().c_str());
          std::exit(1);
        }
        latencies[c].push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto end = std::chrono::steady_clock::now();

  WireResult result;
  result.shards = stack.server->num_shards();
  result.connections = connections;
  result.completed = completed.load();
  result.wall_seconds = std::chrono::duration<double>(end - begin).count();
  result.requests_per_sec =
      static_cast<double>(result.completed) / result.wall_seconds;
  std::vector<double> all;
  for (const auto& per_conn : latencies) {
    all.insert(all.end(), per_conn.begin(), per_conn.end());
  }
  std::sort(all.begin(), all.end());
  result.p50_ms = Percentile(all, 0.50);
  result.p95_ms = Percentile(all, 0.95);
  result.p99_ms = Percentile(all, 0.99);
  result.max_ms = all.empty() ? 0.0 : all.back();
  double sum = 0.0;
  for (double v : all) sum += v;
  result.mean_ms = all.empty() ? 0.0 : sum / static_cast<double>(all.size());
  return result;
}

struct WireHotSwapResult {
  std::uint64_t total_responses = 0;
  std::uint64_t dropped = 0;
  std::uint64_t swaps = 0;
  double wall_seconds = 0.0;
  double requests_per_sec = 0.0;
  std::map<std::uint64_t, std::uint64_t> responses_by_version;
};

// Hot swap observed through the socket: HTTP clients hammer /v1/plan while
// the swapper publishes new versions. Every request must come back 200 with
// a policy_version the registry actually installed — the wire contract is
// that a swap is invisible to in-flight traffic.
WireHotSwapResult RunWireHotSwap(
    const rlplanner::model::TaskInstance& instance,
    const rlplanner::mdp::RewardWeights& weights,
    rlplanner::serve::PolicyRegistry& registry, const Dataset& dataset,
    const std::vector<rlplanner::mdp::QTable>& policies,
    const rlplanner::rl::SarsaConfig& provenance, std::size_t connections,
    int requests_per_connection) {
  WireStack stack(instance, weights, registry, /*workers=*/2, /*shards=*/2,
                  /*max_queue=*/2 * connections + 8);
  const std::uint16_t port = stack.server->port();

  std::mutex mutex;
  std::map<std::uint64_t, std::uint64_t> responses_by_version;
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<bool> clients_done{false};

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
      std::map<std::uint64_t, std::uint64_t> local;
      for (int i = 0; i < requests_per_connection; ++i) {
        const std::size_t start =
            (c * 17 + static_cast<std::size_t>(i)) % dataset.catalog.size();
        const std::string body =
            "{\"start_item\": " + std::to_string(start) + "}";
        auto response = client.Request("POST", "/v1/plan", body);
        if (!response.ok()) {
          ++dropped;
          break;  // transport failure mid-swap: the contract is broken
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
        auto document = rlplanner::util::json::Parse(response.value().body);
        if (!document.ok() ||
            document.value().Find("policy_version") == nullptr) {
          ++dropped;
          continue;
        }
        ++local[static_cast<std::uint64_t>(
            document.value().Find("policy_version")->AsNumber())];
      }
      std::lock_guard<std::mutex> lock(mutex);
      for (const auto& [version, count] : local) {
        responses_by_version[version] += count;
      }
    });
  }
  std::uint64_t swaps = 0;
  std::thread swapper([&] {
    for (std::size_t i = 1; i < policies.size(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      auto installed = registry.Install("default", policies[i], provenance,
                                        /*seed=*/2000 + i);
      if (installed.ok()) ++swaps;
      if (clients_done.load()) break;
    }
  });
  for (auto& thread : threads) thread.join();
  clients_done = true;
  swapper.join();
  const auto end = std::chrono::steady_clock::now();

  WireHotSwapResult result;
  result.swaps = swaps;
  result.dropped = dropped.load();
  result.wall_seconds = std::chrono::duration<double>(end - begin).count();
  result.responses_by_version = responses_by_version;
  for (const auto& [version, count] : responses_by_version) {
    result.total_responses += count;
    if (version == 0 || version > registry.install_count()) {
      std::fprintf(stderr, "wire response from unknown version %llu\n",
                   static_cast<unsigned long long>(version));
      std::exit(1);
    }
  }
  result.requests_per_sec =
      static_cast<double>(result.total_responses) / result.wall_seconds;
  return result;
}


// ---------------------------------------------------------------------------
// Phases 5 and 6: snapshot loading and zero-copy hot swap at 10k items.
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

// Phase 6: closed-loop HTTP clients plan over the 10k catalog while the
// swapper mmap-installs the big v2 snapshot mid-run. The wire contract is
// the same as phase 4 — every request completes with a 200 attributed to
// an installed version — plus a latency claim: each install is O(1)
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
  std::atomic<bool> clients_done{false};

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
      for (int i = 0; i < requests_per_connection; ++i) {
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
  std::thread swapper([&] {
    for (int i = 0; i < 3; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
      const double t0 = Now();
      auto installed = registry.InstallSnapshotFile(
          "default", snapshot_path,
          rlplanner::serve::SnapshotLoadMode::kMmap);
      const double t1 = Now();
      if (installed.ok()) {
        ++swaps;
        install_seconds.push_back(t1 - t0);
      }
      if (clients_done.load()) break;
    }
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

void PrintThroughputEntry(std::FILE* f, const ThroughputResult& r, bool last) {
  std::fprintf(f,
               "    {\"workers\": %zu, \"clients\": %zu, \"completed\": %llu, "
               "\"rejected_retried\": %llu, \"wall_s\": %.3f, "
               "\"requests_per_sec\": %.1f, \"latency_ms\": "
               "{\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f, "
               "\"mean\": %.3f, \"max\": %.3f}}%s\n",
               r.workers, r.clients,
               static_cast<unsigned long long>(r.completed),
               static_cast<unsigned long long>(r.rejected), r.wall_seconds,
               r.requests_per_sec, r.stats.latency_p50_ms,
               r.stats.latency_p95_ms, r.stats.latency_p99_ms,
               r.stats.latency_mean_ms, r.stats.latency_max_ms,
               last ? "" : ",");
}

void PrintWireEntry(std::FILE* f, const WireResult& r, bool last) {
  std::fprintf(f,
               "    {\"shards\": %zu, \"connections\": %zu, "
               "\"completed\": %llu, \"wall_s\": %.3f, "
               "\"requests_per_sec\": %.1f, \"latency_ms\": "
               "{\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f, "
               "\"mean\": %.3f, \"max\": %.3f}}%s\n",
               r.shards, r.connections,
               static_cast<unsigned long long>(r.completed), r.wall_seconds,
               r.requests_per_sec, r.p50_ms, r.p95_ms, r.p99_ms, r.mean_ms,
               r.max_ms, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  // Smoke runs keep every phase alive but shrink the request budgets; the
  // gate skips them via the "smoke" context key.
  const int requests_per_client = smoke ? 40 : 400;
  const int wire_requests_per_connection = smoke ? 50 : 500;

  const Dataset dataset = MakeUniv1ScaleDataset();
  const rlplanner::model::TaskInstance instance = dataset.Instance();
  const rlplanner::mdp::RewardWeights weights;

  // Train the serving policy plus three hot-swap variants.
  const rlplanner::core::PlannerConfig config = BenchConfig(dataset, 17);
  std::vector<rlplanner::mdp::QTable> policies;
  for (std::uint64_t seed : {17ull, 18ull, 19ull, 20ull}) {
    policies.push_back(TrainPolicy(instance, BenchConfig(dataset, seed)));
  }

  const std::uint64_t fingerprint =
      rlplanner::serve::CatalogFingerprint(dataset.catalog);

  // Phase 1: sustained throughput across worker counts.
  std::vector<ThroughputResult> throughput;
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    rlplanner::serve::PolicyRegistry registry(fingerprint,
                                              dataset.catalog.size());
    auto installed =
        registry.Install("default", policies[0], config.sarsa, config.seed);
    if (!installed.ok()) {
      std::fprintf(stderr, "install failed: %s\n",
                   installed.status().ToString().c_str());
      return 1;
    }
    throughput.push_back(RunThroughput(instance, weights, registry, dataset,
                                       workers, /*clients=*/2 * workers,
                                       requests_per_client));
    std::printf("workers=%zu  %.0f req/s  p50=%.3fms p95=%.3fms p99=%.3fms\n",
                workers, throughput.back().requests_per_sec,
                throughput.back().stats.latency_p50_ms,
                throughput.back().stats.latency_p95_ms,
                throughput.back().stats.latency_p99_ms);
  }

  // Phase 2: hot swap under load (4 workers, 8 closed-loop clients).
  rlplanner::serve::PolicyRegistry registry(fingerprint,
                                            dataset.catalog.size());
  if (!registry.Install("default", policies[0], config.sarsa, config.seed)
           .ok()) {
    return 1;
  }
  const HotSwapResult swap =
      RunHotSwap(instance, weights, registry, dataset, policies, config.sarsa,
                 /*clients=*/8, requests_per_client);
  std::printf(
      "hot swap: %llu responses over %llu swaps, %llu dropped, "
      "%llu incorrectly rejected\n",
      static_cast<unsigned long long>(swap.total_responses),
      static_cast<unsigned long long>(swap.swaps),
      static_cast<unsigned long long>(swap.dropped),
      static_cast<unsigned long long>(swap.incorrectly_rejected));
  if (swap.dropped != 0 || swap.incorrectly_rejected != 0 ||
      swap.swaps == 0) {
    std::fprintf(stderr, "hot-swap phase violated the zero-loss contract\n");
    return 1;
  }

  // Phase 3: wire throughput over real loopback sockets, across shard
  // counts. Client counts scale with shards so each shard sees the same
  // closed-loop pressure.
  std::vector<WireResult> wire;
  for (std::size_t shards : {1u, 2u}) {
    rlplanner::serve::PolicyRegistry wire_registry(fingerprint,
                                                   dataset.catalog.size());
    if (!wire_registry
             .Install("default", policies[0], config.sarsa, config.seed)
             .ok()) {
      return 1;
    }
    wire.push_back(RunWireThroughput(instance, weights, wire_registry,
                                     dataset, shards,
                                     /*connections=*/4 * shards,
                                     wire_requests_per_connection));
    std::printf(
        "wire shards=%zu  %.0f req/s  p50=%.3fms p95=%.3fms p99=%.3fms\n",
        wire.back().shards, wire.back().requests_per_sec, wire.back().p50_ms,
        wire.back().p95_ms, wire.back().p99_ms);
  }

  // Phase 3b: profiler overhead on the wire path. Off → on → off, so the
  // denominator (mean of the two off runs) absorbs machine drift across the
  // ~minute the three runs take. The profiler is process-global (one
  // ITIMER_PROF), so the wire stack needs no wiring — arming it profiles
  // the epoll shards and plan workers alike.
  WireResult profiler_off, profiler_on, profiler_off2;
  std::uint64_t profiler_samples = 0;
  {
    rlplanner::serve::PolicyRegistry overhead_registry(
        fingerprint, dataset.catalog.size());
    if (!overhead_registry
             .Install("default", policies[0], config.sarsa, config.seed)
             .ok()) {
      return 1;
    }
    const auto run = [&] {
      return RunWireThroughput(instance, weights, overhead_registry, dataset,
                               /*shards=*/2, /*connections=*/4,
                               wire_requests_per_connection);
    };
    profiler_off = run();
    {
      rlplanner::obs::ProfilerConfig profiler_config;
      profiler_config.enabled = true;
      rlplanner::obs::Profiler profiler(profiler_config);
      if (!profiler.Start().ok()) {
        std::fprintf(stderr, "profiler start failed\n");
        return 1;
      }
      profiler_on = run();
      profiler.Stop();
      profiler_samples = profiler.samples_total();
    }
    profiler_off2 = run();
  }
  const double profiler_off_rps = profiler_off.requests_per_sec;
  const double profiler_on_rps = profiler_on.requests_per_sec;
  const double profiler_off2_rps = profiler_off2.requests_per_sec;
  const double profiler_ratio =
      profiler_on_rps / (0.5 * (profiler_off_rps + profiler_off2_rps));
  // The gate's floor check judges the ratio only when the shortest of the
  // three measurement windows clears --min-seconds.
  const double profiler_window_s =
      std::min({profiler_off.wall_seconds, profiler_on.wall_seconds,
                profiler_off2.wall_seconds});
  std::printf(
      "profiler overhead: off %.0f / on %.0f / off %.0f req/s "
      "(ratio %.4f, %llu samples)\n",
      profiler_off_rps, profiler_on_rps, profiler_off2_rps, profiler_ratio,
      static_cast<unsigned long long>(profiler_samples));

  // Phase 4: hot swap under wire load.
  rlplanner::serve::PolicyRegistry wire_swap_registry(fingerprint,
                                                      dataset.catalog.size());
  if (!wire_swap_registry
           .Install("default", policies[0], config.sarsa, config.seed)
           .ok()) {
    return 1;
  }
  const WireHotSwapResult wire_swap = RunWireHotSwap(
      instance, weights, wire_swap_registry, dataset, policies, config.sarsa,
      /*connections=*/8, wire_requests_per_connection);
  std::printf(
      "wire hot swap: %llu responses over %llu swaps, %llu dropped\n",
      static_cast<unsigned long long>(wire_swap.total_responses),
      static_cast<unsigned long long>(wire_swap.swaps),
      static_cast<unsigned long long>(wire_swap.dropped));
  if (wire_swap.dropped != 0 || wire_swap.swaps == 0 ||
      wire_swap.total_responses !=
          8ull * static_cast<std::uint64_t>(wire_requests_per_connection)) {
    std::fprintf(stderr,
                 "wire hot-swap phase violated the zero-loss contract\n");
    return 1;
  }


  // Phase 5: snapshot-load latency across the two install paths, on the
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

  // Phase 6: mmap hot swap under wire load at 10k items.
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
  if (mmap_swap.dropped != 0 || mmap_swap.swaps == 0 ||
      mmap_swap.total_responses !=
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
  std::fprintf(f, "  \"throughput\": [\n");
  for (std::size_t i = 0; i < throughput.size(); ++i) {
    PrintThroughputEntry(f, throughput[i], i + 1 == throughput.size());
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"hot_swap\": {\n");
  std::fprintf(f, "    \"workers\": 4,\n");
  std::fprintf(f, "    \"swaps\": %llu,\n",
               static_cast<unsigned long long>(swap.swaps));
  std::fprintf(f, "    \"responses\": %llu,\n",
               static_cast<unsigned long long>(swap.total_responses));
  std::fprintf(f, "    \"dropped\": %llu,\n",
               static_cast<unsigned long long>(swap.dropped));
  std::fprintf(f, "    \"incorrectly_rejected\": %llu,\n",
               static_cast<unsigned long long>(swap.incorrectly_rejected));
  std::fprintf(f, "    \"requests_per_sec\": %.1f,\n", swap.requests_per_sec);
  std::fprintf(f, "    \"latency_ms\": {\"p50\": %.3f, \"p95\": %.3f, "
               "\"p99\": %.3f, \"max\": %.3f},\n",
               swap.stats.latency_p50_ms, swap.stats.latency_p95_ms,
               swap.stats.latency_p99_ms, swap.stats.latency_max_ms);
  std::fprintf(f, "    \"responses_by_version\": {");
  bool first = true;
  for (const auto& [version, count] : swap.responses_by_version) {
    std::fprintf(f, "%s\"%llu\": %llu", first ? "" : ", ",
                 static_cast<unsigned long long>(version),
                 static_cast<unsigned long long>(count));
    first = false;
  }
  std::fprintf(f, "}\n");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"wire\": [\n");
  for (std::size_t i = 0; i < wire.size(); ++i) {
    PrintWireEntry(f, wire[i], i + 1 == wire.size());
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"profiler_overhead\": {\n");
  std::fprintf(f, "    \"sample_hz\": 97,\n");
  std::fprintf(f, "    \"shards\": 2,\n");
  std::fprintf(f, "    \"connections\": 4,\n");
  std::fprintf(f, "    \"off_requests_per_sec\": %.1f,\n", profiler_off_rps);
  std::fprintf(f, "    \"on_requests_per_sec\": %.1f,\n", profiler_on_rps);
  std::fprintf(f, "    \"off2_requests_per_sec\": %.1f,\n",
               profiler_off2_rps);
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
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"wire_hot_swap\": {\n");
  std::fprintf(f, "    \"shards\": 2,\n");
  std::fprintf(f, "    \"connections\": 8,\n");
  std::fprintf(f, "    \"swaps\": %llu,\n",
               static_cast<unsigned long long>(wire_swap.swaps));
  std::fprintf(f, "    \"responses\": %llu,\n",
               static_cast<unsigned long long>(wire_swap.total_responses));
  std::fprintf(f, "    \"dropped\": %llu,\n",
               static_cast<unsigned long long>(wire_swap.dropped));
  std::fprintf(f, "    \"requests_per_sec\": %.1f,\n",
               wire_swap.requests_per_sec);
  std::fprintf(f, "    \"responses_by_version\": {");
  first = true;
  for (const auto& [version, count] : wire_swap.responses_by_version) {
    std::fprintf(f, "%s\"%llu\": %llu", first ? "" : ", ",
                 static_cast<unsigned long long>(version),
                 static_cast<unsigned long long>(count));
    first = false;
  }
  std::fprintf(f, "}\n");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_serve.json\n");
  return 0;
}
