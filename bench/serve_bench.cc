// Serving-layer benchmark (BENCH_serve.json).
//
// Measures what only this harness measures (perfbench/run.py covers plan
// latency, throughput and the fleet cycle, as medians over repeated ~2 s
// runs) in three phases:
//
//  1. Profiler cost: the sampling path itself. With the profiler running,
//     one thread raises SIGPROF N times from a stack deeper than
//     Profiler::kMaxFrames (each backtrace() fills every frame slot), over
//     a window of at least 0.1 s, and checks that every raise took a
//     sample. It reports ns_per_sample and overhead_share = sample_hz x
//     ns_per_sample: the CPU share sampling takes from a thread that is
//     busy all the time. The gate's ceiling (<= 0.02) on overhead_share
//     enforces the <= 2% profiler budget. Profiling a live server is
//     tested, not timed: obs_test, and tools/check.sh's /debug/pprof smoke.
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
// --smoke shrinks the snapshot fixture and the hot-swap request budget)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
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

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Phase 1: the profiler's own cost per sample.
// ---------------------------------------------------------------------------

struct ProfilerCost {
  int sample_hz = 0;
  int frames = 0;             // stack depth the raises came from
  std::uint64_t signals = 0;  // SIGPROFs raised in the timed window
  std::uint64_t samples = 0;  // samples_total() growth over the window
  double wall_s = 0.0;
  double ns_per_sample = 0.0;
  double overhead_share = 0.0;  // sample_hz * ns_per_sample * 1e-9
};

// Written after the recursive call, so that call is never a tail call and
// every level keeps its frame.
volatile int g_depth_sink = 0;

// Runs `fn` below `depth` nested frames of this function.
[[gnu::noinline]] void AtDepth(int depth, const std::function<void()>& fn) {
  if (depth == 0) {
    fn();
  } else {
    AtDepth(depth - 1, fn);
  }
  g_depth_sink = depth;
}

// Raises SIGPROF on this thread, 1024, 2048, ... times, until the raises
// fill a window of at least 0.1 s; each raise runs the signal handler's
// backtrace into the ring synchronously. Exits the bench if a raise took
// no sample. The profiler's own 97 Hz timer adds a few samples to the
// window, so ns_per_sample errs high.
ProfilerCost MeasureProfilerCost() {
  rlplanner::obs::ProfilerConfig config;
  config.enabled = true;
  rlplanner::obs::Profiler profiler(config);
  if (!profiler.Start().ok()) {
    std::fprintf(stderr, "profiler start failed\n");
    std::exit(1);
  }
  ProfilerCost cost;
  cost.sample_hz = profiler.sample_hz();
  cost.frames = rlplanner::obs::Profiler::kMaxFrames + 8;
  for (std::uint64_t signals = 1024;; signals *= 2) {
    const std::uint64_t before = profiler.samples_total();
    const double begin = Now();
    AtDepth(cost.frames, [signals] {
      for (std::uint64_t i = 0; i < signals; ++i) std::raise(SIGPROF);
    });
    cost.wall_s = Now() - begin;
    cost.signals = signals;
    cost.samples = profiler.samples_total() - before;
    if (cost.samples < signals || cost.wall_s >= 0.1) break;
  }
  profiler.Stop();
  if (cost.samples < cost.signals) {
    std::fprintf(stderr, "profiler took %llu samples for %llu SIGPROFs\n",
                 static_cast<unsigned long long>(cost.samples),
                 static_cast<unsigned long long>(cost.signals));
    std::exit(1);
  }
  cost.ns_per_sample = cost.wall_s * 1e9 / static_cast<double>(cost.signals);
  cost.overhead_share = cost.sample_hz * cost.ns_per_sample * 1e-9;
  return cost;
}

// ---------------------------------------------------------------------------
// Phases 2 and 3: snapshot loading and zero-copy hot swap at 10k items.
// ---------------------------------------------------------------------------

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

  // Phase 1: the profiler's cost per sample, on this thread alone.
  const ProfilerCost profiler_cost = MeasureProfilerCost();
  std::printf(
      "profiler cost: %.0f ns per sample over %llu SIGPROFs from %d frames "
      "in %.3f s; %.5f of a busy thread at %d Hz\n",
      profiler_cost.ns_per_sample,
      static_cast<unsigned long long>(profiler_cost.signals),
      profiler_cost.frames, profiler_cost.wall_s,
      profiler_cost.overhead_share, profiler_cost.sample_hz);

  const rlplanner::mdp::RewardWeights weights;

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
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"simd\": \"%s\",\n",
               rlplanner::util::simd::ActiveLevelName());
  std::fprintf(f, "  \"profiler_overhead\": {\n");
  std::fprintf(f, "    \"sample_hz\": %d,\n", profiler_cost.sample_hz);
  std::fprintf(f, "    \"frames\": %d,\n", profiler_cost.frames);
  std::fprintf(f, "    \"signals\": %llu,\n",
               static_cast<unsigned long long>(profiler_cost.signals));
  std::fprintf(f, "    \"samples\": %llu,\n",
               static_cast<unsigned long long>(profiler_cost.samples));
  std::fprintf(f, "    \"wall_s\": %.3f,\n", profiler_cost.wall_s);
  std::fprintf(f, "    \"ns_per_sample\": %.1f,\n",
               profiler_cost.ns_per_sample);
  std::fprintf(f, "    \"overhead_share\": %.6f\n",
               profiler_cost.overhead_share);
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
