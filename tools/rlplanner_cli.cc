// rlplanner_cli — command-line front end for the RL-Planner library.
//
// Subcommands:
//   list                                  show the built-in datasets
//   info    --dataset <name|file.csv>     dataset statistics
//   export  --dataset <name> --out <csv>  dump a built-in dataset to CSV
//   gold    --dataset <name|file.csv>     print the gold-standard plan
//   plan    --dataset <name|file.csv>     train RL-Planner and recommend
//           [--start CODE] [--episodes N] [--alpha A] [--gamma G]
//           [--epsilon E] [--similarity avg|min] [--beam] [--seed S]
//           [--metrics-out JSON] [--trace-out JSON]
//   train   --dataset <name|file.csv>     train only, with per-round
//           [training flags as for plan]  progress from the metrics
//           [--workers K]                 (K > 1 shards each round over K
//                                         deterministic episode workers)
//           [--metrics-out JSON] [--trace-out JSON]
//   metrics --dataset <name|file.csv>     train and dump the registry
//           [--format prom|json]          snapshot to stdout
//           [training flags as for train]
//   inspect --dataset <name|file.csv>     strongest learned transitions
//           [--episodes N] [--out DOT]
//   save-snapshot --dataset D --out FILE  train and write the policy as a
//           [training flags as for plan]  v2 snapshot (Q-table + fingerprint
//                                         + provenance + checksums), the one
//                                         policy file format
//   snapshot-info FILE                    inspect a snapshot file: version,
//                                         dimensions, non-zero fraction,
//                                         checksum status — no dataset
//                                         needed
//   load-snapshot --dataset D --in FILE   load a snapshot, verify it against
//           [--start CODE]                the catalog, and recommend
//   serve   --dataset D                   run the concurrent PlanService over
//           [--snapshot FILE]             synthetic traffic and print the
//           [--requests N] [--threads T]  stats JSON (hot-path smoke test of
//           [--queue Q] [--deadline-ms D] the serving layer); training and
//           [--metrics-out JSON]          serving share one metrics registry
//           [--metrics-interval-s N]      (periodic atomic rewrites of
//           [--trace-out JSON]            --metrics-out while serving)
//           [training flags as for plan]
//           [--listen HOST:PORT]          wire mode: serve HTTP instead of
//           [--shards N]                  synthetic traffic — POST /v1/plan,
//           [--duration-s S]              GET /metrics, GET /healthz on an
//           [--drain-timeout-ms D]        epoll front end (see docs/serving.md)
//                                         until SIGTERM/SIGINT or --duration-s,
//                                         then drain gracefully
//           [--profile-hz HZ]             arm the sampling CPU profiler and
//                                         serve GET /debug/pprof?seconds=N
//           [--slo-ms MS]                 arm the tail-latency flight recorder
//                                         (GET /debug/tracez + histogram
//                                         exemplars); /debug/statusz is always
//                                         on in wire mode
//           [--fleet-policies N]          run an in-process fleet (N slots,
//           [--fleet-ticks T]             T orchestrator ticks before serving)
//                                         and serve GET /fleet/status
//   profile --dataset D --out FILE        train under the sampling profiler
//           [--profile-hz HZ]             and write the collapsed-stack
//           [training flags as for plan]  profile (flamegraph.pl/speedscope
//                                         input) — see docs/observability.md
//   fleet run --dataset D                 run the multi-policy fleet
//           [--policies N] [--ticks T]    orchestrator: N specs retrained on
//           [--freshness-ticks F]         staleness priority, published
//           [--canary-permille P]         through the canary gate pipeline
//           [--hold-ticks H]              (see docs/fleet.md); prints per-tick
//           [--reward-band B]             progress and the final status JSON
//           [--force-rollback]            (--force-rollback vetoes every
//           [--metrics-out JSON]          canary verdict — rollback drill)
//           [training flags as for plan]
//   fleet status --dataset D              same fleet, machine-readable: runs
//           [flags as for fleet run]      the ticks quietly and prints ONLY
//                                         the status JSON document
//
// `--trace-out FILE` records a Chrome trace-event timeline of the run
// (training rounds / worker shards / serve request lifecycles) loadable in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing — see
// docs/observability.md.
//
// Unknown commands, unknown flags and missing required flags print a usage
// message on stderr and exit 2. Datasets can be the built-in names (toy,
// univ1-dsct, univ1-cyber, univ1-cs, univ2-ds, nyc, paris) or a CSV file
// produced by `export` / `datagen::SaveDatasetCsv`.

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/gold.h"
#include "core/config.h"
#include "core/planner.h"
#include "core/scoring.h"
#include "datagen/course_data.h"
#include "datagen/io.h"
#include "datagen/trip_data.h"
#include "fleet/fleet.h"
#include "obs/debugz.h"
#include "obs/export.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/training_metrics.h"
#include "net/plan_handler.h"
#include "net/server.h"
#include "rl/policy_inspector.h"
#include "serve/plan_service.h"
#include "serve/policy_registry.h"
#include "serve/policy_snapshot.h"
#include "util/flags.h"

namespace {

using rlplanner::datagen::Dataset;
using rlplanner::util::CommandLine;

int Usage(const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "error: %s\n", error.c_str());
  std::fprintf(
      stderr,
      "usage: rlplanner_cli <list|info|export|gold|plan|train|metrics|"
      "inspect|save-snapshot|load-snapshot|snapshot-info|serve|fleet|"
      "profile> [options]\n"
      "       rlplanner_cli snapshot-info FILE\n"
      "       rlplanner_cli fleet <run|status> --dataset D [options]\n"
      "       rlplanner_cli profile --dataset D --out FILE [options]\n"
      "  --dataset <name|file.csv>   (toy, univ1-dsct, univ1-cyber,\n"
      "                               univ1-cs, univ2-ds, nyc, paris)\n"
      "  --start CODE  --episodes N  --alpha A  --gamma G  --epsilon E\n"
      "  --similarity avg|min  --beam  --seed S  --out FILE  --in FILE\n"
      "  --snapshot FILE  --requests N  --threads T  --queue Q\n"
      "  --deadline-ms D  --metrics-out FILE\n"
      "  --metrics-interval-s N  --trace-out FILE\n"
      "  --workers K  --format prom|json\n"
      "  --q-repr auto|dense|sparse  --snapshot-mode deserialize|mmap\n"
      "  --listen HOST:PORT  --shards N  --duration-s S\n"
      "  --drain-timeout-ms D  --profile-hz HZ  --slo-ms MS\n"
      "  --fleet-policies N  --fleet-ticks T\n"
      "  --policies N  --ticks T  --freshness-ticks F  --canary-permille P\n"
      "  --hold-ticks H  --reward-band B  --force-rollback\n");
  return 2;
}

std::optional<Dataset> LoadDataset(const std::string& spec) {
  using namespace rlplanner::datagen;
  if (spec == "toy") return MakeTableIIToy();
  if (spec == "univ1-dsct") return MakeUniv1DsCt();
  if (spec == "univ1-cyber") return MakeUniv1Cybersecurity();
  if (spec == "univ1-cs") return MakeUniv1Cs();
  if (spec == "univ2-ds") return MakeUniv2Ds();
  if (spec == "nyc") return MakeNycTrip();
  if (spec == "paris") return MakeParisTrip();
  auto loaded = LoadDatasetCsv(spec);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load dataset '%s': %s\n", spec.c_str(),
                 loaded.status().ToString().c_str());
    return std::nullopt;
  }
  return std::move(loaded).value();
}

// Table III defaults by dataset shape, adjusted by the shared training
// flags (--episodes/--alpha/--gamma/--epsilon/--similarity/--seed/--beam).
rlplanner::core::PlannerConfig BuildConfig(const Dataset& dataset,
                                           const CommandLine& cmd) {
  rlplanner::core::PlannerConfig config;
  if (dataset.catalog.domain() == rlplanner::model::Domain::kTrip) {
    config = rlplanner::core::DefaultTripConfig();
  } else if (dataset.catalog.category_names().size() > 2) {
    config = rlplanner::core::DefaultUniv2Config();
  } else {
    config = rlplanner::core::DefaultUniv1Config();
  }
  if (dataset.catalog.category_names().size() !=
      config.reward.category_weights.size()) {
    const std::size_t c = dataset.catalog.category_names().size();
    config.reward.category_weights.assign(c, 1.0 / static_cast<double>(c));
  }
  if (auto v = cmd.GetFlag("episodes")) {
    config.sarsa.num_episodes = std::atoi(v->c_str());
  }
  if (auto v = cmd.GetFlag("alpha")) config.sarsa.alpha = std::atof(v->c_str());
  if (auto v = cmd.GetFlag("gamma")) config.sarsa.gamma = std::atof(v->c_str());
  if (auto v = cmd.GetFlag("epsilon")) {
    config.reward.epsilon = std::atof(v->c_str());
  }
  if (auto v = cmd.GetFlag("seed")) {
    config.seed = std::strtoull(v->c_str(), nullptr, 10);
  }
  if (auto v = cmd.GetFlag("similarity")) {
    config.reward.similarity = *v == "min"
                                   ? rlplanner::mdp::SimilarityMode::kMinimum
                                   : rlplanner::mdp::SimilarityMode::kAverage;
  }
  if (cmd.HasFlag("beam")) config.use_beam_search = true;
  if (auto v = cmd.GetFlag("workers")) {
    config.sarsa.num_workers = std::atoi(v->c_str());
  }
  if (auto v = cmd.GetFlag("q-repr")) {
    config.sarsa.q_representation =
        *v == "sparse" ? rlplanner::rl::QRepresentation::kSparse
        : *v == "dense" ? rlplanner::rl::QRepresentation::kDense
                        : rlplanner::rl::QRepresentation::kAuto;
  }
  config.sarsa.start_item = dataset.default_start;
  return config;
}

// Writes `payload` to `path`, reporting the path (or the failure) on stdout.
bool WriteTextFile(const std::string& path, const std::string& payload) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(payload.data(), 1, payload.size(), f);
  std::fclose(f);
  return true;
}

// Crash-safe replacement of `path`: the payload goes to `path + ".tmp"`
// first and is renamed over the target, so a reader (or a crash mid-write)
// never observes a torn file.
bool AtomicWriteTextFile(const std::string& path, const std::string& payload) {
  const std::string tmp = path + ".tmp";
  if (!WriteTextFile(tmp, payload)) return false;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "cannot rename %s to %s\n", tmp.c_str(),
                 path.c_str());
    return false;
  }
  return true;
}

// Constructs the `--trace-out` collector when requested (null disables
// tracing entirely — emitters resolve the null pointer to one predictable
// branch per span).
std::unique_ptr<rlplanner::obs::TraceCollector> MakeTraceCollector(
    const CommandLine& cmd, rlplanner::obs::Registry* metrics) {
  if (!cmd.HasFlag("trace-out")) return nullptr;
  rlplanner::obs::TraceCollectorConfig config;
  config.metrics = metrics;
  auto trace = std::make_unique<rlplanner::obs::TraceCollector>(config);
  trace->SetCurrentThreadName("main");
  return trace;
}

// Writes the Chrome-trace JSON when `--trace-out` was given.
bool WriteTraceOut(const CommandLine& cmd,
                   const rlplanner::obs::TraceCollector* trace) {
  const auto path = cmd.GetFlag("trace-out");
  if (!path.has_value() || trace == nullptr) return true;
  if (!WriteTextFile(*path, trace->ToChromeTrace())) return false;
  std::printf("trace: %s (%llu events, %llu dropped)\n", path->c_str(),
              static_cast<unsigned long long>(trace->emitted_total()),
              static_cast<unsigned long long>(trace->dropped_total()));
  return true;
}

// The `--metrics-out` payload: the full registry snapshot plus the
// per-round training progression.
std::string MetricsOutJson(const rlplanner::obs::Registry& registry,
                           const rlplanner::core::RlPlanner& planner) {
  std::string out = "{\"metrics\": ";
  out += rlplanner::obs::MetricsJsonArray(registry.Collect());
  out += ", \"training_rounds\": ";
  out += rlplanner::obs::TrainingRoundsJsonArray(
      planner.training_metrics() != nullptr
          ? planner.training_metrics()->rounds()
          : std::vector<rlplanner::obs::TrainingRoundSample>{});
  out += "}";
  return out;
}

// Resolves --start to an item id, or the dataset default.
rlplanner::util::Result<rlplanner::model::ItemId> ResolveStart(
    const Dataset& dataset, const CommandLine& cmd) {
  const auto v = cmd.GetFlag("start");
  if (!v.has_value()) return dataset.default_start;
  auto found = dataset.catalog.FindByCode(*v);
  if (!found.ok()) {
    return rlplanner::util::Status::NotFound("unknown start item '" + *v +
                                             "'");
  }
  return found.value();
}

int CmdList() {
  std::printf("built-in datasets:\n");
  const char* rows[][2] = {
      {"toy", "Table II toy program (6 courses, 13 topics)"},
      {"univ1-dsct", "Univ-1 M.S. DS-CT (31 courses, 60 topics)"},
      {"univ1-cyber", "Univ-1 M.S. Cybersecurity (30 courses, 61 topics)"},
      {"univ1-cs", "Univ-1 M.S. CS (32 courses, 100 topics)"},
      {"univ2-ds", "Univ-2 M.S. DS (36 courses, 73 topics, 6 categories)"},
      {"nyc", "NYC trip (90 POIs, 21 themes)"},
      {"paris", "Paris trip (114 POIs, 16 themes)"},
  };
  for (const auto& row : rows) std::printf("  %-12s %s\n", row[0], row[1]);
  return 0;
}

int CmdInfo(const Dataset& dataset) {
  const auto& catalog = dataset.catalog;
  std::printf("dataset:     %s\n", dataset.name.c_str());
  std::printf("domain:      %s\n",
              catalog.domain() == rlplanner::model::Domain::kTrip
                  ? "trip"
                  : "course");
  std::printf("items:       %zu (%d primary, %d secondary)\n",
              catalog.size(),
              catalog.CountByType(rlplanner::model::ItemType::kPrimary),
              catalog.CountByType(rlplanner::model::ItemType::kSecondary));
  std::printf("topics:      %zu\n", catalog.vocabulary_size());
  std::printf("constraints: min_credits=%.1f  split=%d/%d  gap=%d\n",
              dataset.hard.min_credits, dataset.hard.num_primary,
              dataset.hard.num_secondary, dataset.hard.gap);
  std::printf("templates:   %zu permutations of length %zu\n",
              dataset.soft.interleaving.size(),
              dataset.soft.interleaving.length());
  std::printf("start:       %s\n",
              catalog.item(dataset.default_start).code.c_str());
  std::printf("fingerprint: %016llx\n",
              static_cast<unsigned long long>(
                  rlplanner::serve::CatalogFingerprint(catalog)));
  int with_prereqs = 0;
  for (const auto& item : catalog.items()) {
    if (!item.prereqs.empty()) ++with_prereqs;
  }
  std::printf("prereqs:     %d items carry antecedents\n", with_prereqs);
  return 0;
}

int CmdExport(const Dataset& dataset, const std::string& out) {
  const auto status = rlplanner::datagen::SaveDatasetCsv(dataset, out);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int CmdGold(const Dataset& dataset) {
  const rlplanner::model::TaskInstance instance = dataset.Instance();
  auto gold = rlplanner::baselines::BuildGoldStandard(instance);
  if (!gold.ok()) {
    std::fprintf(stderr, "no gold standard: %s\n",
                 gold.status().ToString().c_str());
    return 1;
  }
  std::printf("gold standard (score %.2f):\n  %s\n",
              rlplanner::core::ScorePlan(instance, gold.value()),
              gold.value().ToString(dataset.catalog).c_str());
  return 0;
}

int CmdPlan(const Dataset& dataset, const CommandLine& cmd) {
  const rlplanner::model::TaskInstance instance = dataset.Instance();
  rlplanner::core::PlannerConfig config = BuildConfig(dataset, cmd);
  auto start = ResolveStart(dataset, cmd);
  if (!start.ok()) {
    std::fprintf(stderr, "%s\n", start.status().ToString().c_str());
    return 1;
  }
  config.sarsa.start_item = start.value();

  rlplanner::obs::Registry registry;
  if (cmd.HasFlag("metrics-out")) config.metrics = &registry;
  const auto trace = MakeTraceCollector(cmd, config.metrics);
  config.trace = trace.get();
  rlplanner::core::RlPlanner planner(instance, config);
  if (const auto status = planner.Train(); !status.ok()) {
    std::fprintf(stderr, "training failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("trained %d episodes in %.3f s\n", config.sarsa.num_episodes,
              planner.train_seconds());
  auto plan = planner.Recommend(start.value());
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("plan:  %s\n", plan.value().ToString(dataset.catalog).c_str());
  std::printf("check: %s\n",
              planner.Validate(plan.value()).ToString().c_str());
  std::printf("score: %.2f\n", planner.Score(plan.value()));
  if (auto v = cmd.GetFlag("metrics-out")) {
    if (!WriteTextFile(*v, MetricsOutJson(registry, planner))) return 1;
    std::printf("metrics: %s\n", v->c_str());
  }
  if (!WriteTraceOut(cmd, trace.get())) return 1;
  return 0;
}

// Trains only, reporting per-round progress from the metrics registry —
// the observability-first counterpart of `plan`.
int CmdTrain(const Dataset& dataset, const CommandLine& cmd) {
  const rlplanner::model::TaskInstance instance = dataset.Instance();
  rlplanner::core::PlannerConfig config = BuildConfig(dataset, cmd);
  rlplanner::obs::Registry registry;
  config.metrics = &registry;
  const auto trace = MakeTraceCollector(cmd, config.metrics);
  config.trace = trace.get();

  rlplanner::core::RlPlanner planner(instance, config);
  if (const auto status = planner.Train(); !status.ok()) {
    std::fprintf(stderr, "training failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("trained %d episodes in %.3f s (%d workers)\n",
              config.sarsa.num_episodes, planner.train_seconds(),
              config.sarsa.num_workers);
  for (const auto& round : planner.training_metrics()->rounds()) {
    std::printf(
        "  round %d: %llu episodes, %.1f eps/sec, epsilon %.4f, %s\n",
        round.round, static_cast<unsigned long long>(round.episodes),
        round.episodes_per_sec, round.epsilon,
        round.safe ? "safe" : "VIOLATION");
  }
  if (auto v = cmd.GetFlag("metrics-out")) {
    if (!WriteTextFile(*v, MetricsOutJson(registry, planner))) return 1;
    std::printf("metrics: %s\n", v->c_str());
  }
  if (!WriteTraceOut(cmd, trace.get())) return 1;
  return 0;
}

// Trains and dumps the registry snapshot to stdout in the requested format
// — the quickest way to see what the exporters produce.
int CmdMetrics(const Dataset& dataset, const CommandLine& cmd) {
  const rlplanner::model::TaskInstance instance = dataset.Instance();
  rlplanner::core::PlannerConfig config = BuildConfig(dataset, cmd);
  rlplanner::obs::Registry registry;
  config.metrics = &registry;

  rlplanner::core::RlPlanner planner(instance, config);
  if (const auto status = planner.Train(); !status.ok()) {
    std::fprintf(stderr, "training failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const std::string format = cmd.GetFlagOr("format", "prom");
  if (format == "json") {
    std::printf("%s\n", rlplanner::obs::ToJson(registry.Collect()).c_str());
  } else {
    std::printf("%s",
                rlplanner::obs::ToPrometheusText(registry.Collect()).c_str());
  }
  return 0;
}

// Trains a policy and prints its strongest transitions; with --out, also
// writes a Graphviz DOT rendering. The inspector reads the dense table, so
// a run that resolves to the sparse representation stops before training.
int CmdInspect(const Dataset& dataset, const CommandLine& cmd) {
  const rlplanner::model::TaskInstance instance = dataset.Instance();
  rlplanner::core::PlannerConfig config = BuildConfig(dataset, cmd);
  if (rlplanner::rl::ResolveQRepresentation(config.sarsa.q_representation,
                                            dataset.catalog.size()) ==
      rlplanner::rl::QRepresentation::kSparse) {
    std::fprintf(stderr,
                 "inspect reads the dense Q-table: the sparse policy needs "
                 "--q-repr dense\n");
    return 1;
  }
  rlplanner::core::RlPlanner planner(instance, config);
  if (const auto status = planner.Train(); !status.ok()) {
    std::fprintf(stderr, "training failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const rlplanner::rl::PolicyInspector inspector(planner.q_table(),
                                                 dataset.catalog);
  std::printf("strongest learned transitions:\n");
  for (const auto& edge : inspector.TopTransitions(15)) {
    std::printf("  %-28s -> %-28s Q=%.2f\n",
                dataset.catalog.item(edge.from).code.c_str(),
                dataset.catalog.item(edge.to).code.c_str(), edge.q_value);
  }
  if (auto out = cmd.GetFlag("out")) {
    FILE* f = std::fopen(out->c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out->c_str());
      return 1;
    }
    const std::string dot = inspector.ToDot(40);
    std::fwrite(dot.data(), 1, dot.size(), f);
    std::fclose(f);
    std::printf("wrote %s (render with: dot -Tsvg %s)\n", out->c_str(),
                out->c_str());
  }
  return 0;
}

// Trains a policy and writes it as a checksummed v2 snapshot.
int CmdSaveSnapshot(const Dataset& dataset, const CommandLine& cmd) {
  const rlplanner::model::TaskInstance instance = dataset.Instance();
  const rlplanner::core::PlannerConfig config = BuildConfig(dataset, cmd);
  rlplanner::core::RlPlanner planner(instance, config);
  if (const auto status = planner.Train(); !status.ok()) {
    std::fprintf(stderr, "training failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const std::string out = *cmd.GetFlag("out");
  auto snapshot = rlplanner::serve::MakeSnapshotV2(planner);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
    return 1;
  }
  if (const auto status = snapshot.value().SaveToFile(out); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (sparse-v2, %zu items, fingerprint %016llx, "
              "%d episodes, seed %llu)\n",
              out.c_str(), snapshot.value().table.num_items(),
              static_cast<unsigned long long>(
                  snapshot.value().catalog_fingerprint),
              snapshot.value().provenance.num_episodes,
              static_cast<unsigned long long>(snapshot.value().seed));
  return 0;
}

// Loads a snapshot, validates it against the dataset catalog, and rolls out
// the greedy plan — the offline check that a snapshot is servable. The file
// parses into a SparseQTable, so its allocation is bounded by the file size
// whatever dimension the file claims.
int CmdLoadSnapshot(const Dataset& dataset, const CommandLine& cmd) {
  const rlplanner::model::TaskInstance instance = dataset.Instance();
  auto snapshot = rlplanner::serve::SparsePolicySnapshotV2::LoadFromFile(
      *cmd.GetFlag("in"));
  if (!snapshot.ok()) {
    std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
    return 1;
  }
  const auto fingerprint =
      rlplanner::serve::CatalogFingerprint(dataset.catalog);
  if (snapshot.value().catalog_fingerprint != fingerprint) {
    std::fprintf(stderr,
                 "snapshot fingerprint %016llx does not match dataset "
                 "fingerprint %016llx: refusing to serve\n",
                 static_cast<unsigned long long>(
                     snapshot.value().catalog_fingerprint),
                 static_cast<unsigned long long>(fingerprint));
    return 1;
  }
  rlplanner::core::PlannerConfig config = BuildConfig(dataset, cmd);
  config.sarsa = snapshot.value().provenance;
  config.seed = snapshot.value().seed;
  rlplanner::core::RlPlanner planner(instance, config);
  if (const auto status = planner.AdoptPolicy(snapshot.value().table);
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  auto start = ResolveStart(dataset, cmd);
  if (!start.ok()) {
    std::fprintf(stderr, "%s\n", start.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded snapshot (%zu items, %d episodes, seed %llu)\n",
              snapshot.value().table.num_items(),
              snapshot.value().provenance.num_episodes,
              static_cast<unsigned long long>(snapshot.value().seed));
  auto plan = planner.Recommend(start.value());
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("plan:  %s\n", plan.value().ToString(dataset.catalog).c_str());
  std::printf("check: %s\n",
              planner.Validate(plan.value()).ToString().c_str());
  std::printf("score: %.2f\n", planner.Score(plan.value()));
  return 0;
}

// Inspects a snapshot file without needing the dataset: the header carries
// everything but the catalog itself, and the full-file checksum pass
// reports integrity without deserializing into a planner.
int CmdSnapshotInfo(const std::string& path) {
  auto info = rlplanner::serve::InspectSnapshotFile(path);
  if (!info.ok()) {
    std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
    return 1;
  }
  const auto& i = info.value();
  std::printf("file:        %s\n", path.c_str());
  std::printf("format:      sparse-v2 (version %u)\n", i.format_version);
  std::printf("items:       %llu\n",
              static_cast<unsigned long long>(i.num_items));
  std::printf("entries:     %llu\n",
              static_cast<unsigned long long>(i.entry_count));
  std::printf("nonzero:     %.6f\n", i.nonzero_fraction);
  std::printf("checksum:    %s\n", i.checksum_ok ? "OK" : "MISMATCH");
  std::printf("fingerprint: %016llx\n",
              static_cast<unsigned long long>(i.catalog_fingerprint));
  std::printf("seed:        %llu\n",
              static_cast<unsigned long long>(i.seed));
  std::printf("size:        %llu bytes\n",
              static_cast<unsigned long long>(i.file_bytes));
  return i.checksum_ok ? 0 : 1;
}

volatile std::sig_atomic_t g_shutdown_signal = 0;
void OnShutdownSignal(int) { g_shutdown_signal = 1; }

// Wire mode of `serve`: an epoll HTTP front end over the PlanService until
// SIGINT/SIGTERM (or --duration-s), then a graceful drain. The drain order
// matters: the service drains first so every admitted plan is delivered
// while its connection is still open (new wire requests map to 503
// meanwhile), then the server drains its connections, then the workers join.
int RunWireServer(rlplanner::serve::PlanService& service,
                  const rlplanner::util::HostPort& listen,
                  rlplanner::net::PlanHandler::Options options,
                  const CommandLine& cmd) {
  rlplanner::net::HttpServerConfig server_config;
  server_config.host = listen.host;
  server_config.port = listen.port;
  server_config.num_shards = static_cast<std::size_t>(
      std::atoi(cmd.GetFlagOr("shards", "0").c_str()));
  server_config.metrics = options.metrics;
  server_config.trace = options.trace;
  rlplanner::net::PlanHandler handler(&service, std::move(options));
  rlplanner::net::HttpServer server(server_config, handler.AsHandler());
  if (const auto status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  // The front end's own statusz section: bound address, shard count, and the
  // service's live queue depth (the "shard/queue depths" line of the issue).
  handler.AddStatuszSection("server", [&server, &service] {
    return "{\"host\": \"" + server.config().host +
           "\", \"port\": " + std::to_string(server.port()) +
           ", \"shards\": " + std::to_string(server.num_shards()) +
           ", \"queue_depth\": " + std::to_string(service.queue_depth()) +
           ", \"workers\": " +
           std::to_string(service.config().num_workers) + "}";
  });
  // check.sh and the CI smoke lane parse this exact line for the bound port.
  std::printf("listening on %s:%u (%zu shards)\n", server.config().host.c_str(),
              static_cast<unsigned>(server.port()), server.num_shards());
  std::fflush(stdout);

  g_shutdown_signal = 0;
  std::signal(SIGINT, OnShutdownSignal);
  std::signal(SIGTERM, OnShutdownSignal);
  const double duration_s =
      std::atof(cmd.GetFlagOr("duration-s", "0").c_str());
  const auto begin = std::chrono::steady_clock::now();
  while (g_shutdown_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (duration_s > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
                .count() >= duration_s) {
      break;
    }
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  const double drain_timeout_ms =
      std::atof(cmd.GetFlagOr("drain-timeout-ms", "5000").c_str());
  const auto drained = service.Drain(std::chrono::milliseconds(
      static_cast<long long>(drain_timeout_ms < 0.0 ? 0.0 : drain_timeout_ms)));
  server.Shutdown();
  service.Stop();
  if (!drained.ok()) {
    std::fprintf(stderr, "drain: %s\n", drained.ToString().c_str());
  }
  std::printf("%s\n", service.stats().ToJson().c_str());
  return 0;
}

// Runs the concurrent PlanService over synthetic round-robin traffic and
// prints the stats JSON — a smoke test / demo of the serving layer.
int CmdServe(const Dataset& dataset, const CommandLine& cmd) {
  // Validate --listen before spending time on training: a malformed spec is
  // a usage error (exit 2), not a runtime failure.
  std::optional<rlplanner::util::HostPort> listen;
  if (const auto spec = cmd.GetFlag("listen")) {
    auto parsed = rlplanner::util::ParseHostPort(*spec);
    if (!parsed.ok()) return Usage(parsed.status().message());
    listen = parsed.value();
  }
  const rlplanner::model::TaskInstance instance = dataset.Instance();
  rlplanner::core::PlannerConfig config = BuildConfig(dataset, cmd);

  // Training (when no snapshot is supplied) and serving record into the
  // same registry, so the final snapshot covers the whole process. Likewise
  // one trace collector covers training rounds and request lifecycles.
  rlplanner::obs::Registry metrics_registry;
  config.metrics = &metrics_registry;
  const auto trace = MakeTraceCollector(cmd, config.metrics);
  config.trace = trace.get();

  // --profile-hz arms the sampling CPU profiler for the whole process
  // (training included) and exposes GET /debug/pprof in wire mode. 0 (the
  // default) leaves the hot paths bit-for-bit unprofiled.
  const int profile_hz = std::atoi(cmd.GetFlagOr("profile-hz", "0").c_str());
  rlplanner::obs::ProfilerConfig profiler_config;
  profiler_config.enabled = profile_hz > 0;
  if (profile_hz > 0) profiler_config.sample_hz = profile_hz;
  rlplanner::obs::Profiler profiler(profiler_config);
  if (profiler.enabled()) {
    if (const auto status = profiler.Start(); !status.ok()) {
      std::fprintf(stderr, "profiler: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  // --slo-ms arms the tail-latency flight recorder: requests slower than
  // this retain their span breakdown for GET /debug/tracez, and the latency
  // histogram starts capturing exemplars.
  rlplanner::obs::FlightRecorderConfig recorder_config;
  recorder_config.slo_ms = std::atof(cmd.GetFlagOr("slo-ms", "0").c_str());
  rlplanner::obs::FlightRecorder recorder(recorder_config);

  rlplanner::serve::PolicyRegistry registry(
      rlplanner::serve::CatalogFingerprint(dataset.catalog),
      dataset.catalog.size());
  // Snapshot-install latency to surface in the stats once the service
  // exists (the install necessarily precedes service construction).
  double snapshot_load_seconds = -1.0;
  bool snapshot_load_mmap = false;
  if (auto path = cmd.GetFlag("snapshot")) {
    snapshot_load_mmap =
        cmd.GetFlagOr("snapshot-mode", "deserialize") == "mmap";
    const auto load_mode = snapshot_load_mmap
                               ? rlplanner::serve::SnapshotLoadMode::kMmap
                               : rlplanner::serve::SnapshotLoadMode::kDeserialize;
    const auto load_begin = std::chrono::steady_clock::now();
    auto installed = registry.InstallSnapshotFile("default", *path, load_mode);
    if (!installed.ok()) {
      std::fprintf(stderr, "%s\n", installed.status().ToString().c_str());
      return 1;
    }
    snapshot_load_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      load_begin)
            .count();
  } else {
    rlplanner::core::RlPlanner planner(instance, config);
    if (const auto status = planner.Train(); !status.ok()) {
      std::fprintf(stderr, "training failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    // Install the trained table directly (no serialize/deserialize round
    // trip); the registry applies the same dimension validation.
    auto installed =
        planner.uses_sparse()
            ? registry.Install("default", planner.sparse_q_table(),
                               config.sarsa, config.seed)
            : registry.Install("default", planner.q_table(), config.sarsa,
                               config.seed);
    if (!installed.ok()) {
      std::fprintf(stderr, "%s\n", installed.status().ToString().c_str());
      return 1;
    }
  }

  // --fleet-policies spins up an in-process fleet orchestrator sharing the
  // serving registry: N extra slots are retrained/published through the
  // canary pipeline for --fleet-ticks ticks, then wire mode serves the live
  // status document at GET /fleet/status (and in /debug/statusz).
  std::unique_ptr<rlplanner::util::ThreadPool> fleet_pool;
  std::unique_ptr<rlplanner::fleet::FleetOrchestrator> fleet;
  const int fleet_policies =
      std::atoi(cmd.GetFlagOr("fleet-policies", "0").c_str());
  if (fleet_policies > 0) {
    fleet_pool = std::make_unique<rlplanner::util::ThreadPool>();
    rlplanner::fleet::FleetConfig fleet_config;
    fleet_config.canary_permille = static_cast<std::uint32_t>(
        std::atoi(cmd.GetFlagOr("canary-permille", "200").c_str()));
    fleet_config.canary_hold_ticks =
        std::atoi(cmd.GetFlagOr("hold-ticks", "1").c_str());
    fleet_config.reward_band =
        std::atof(cmd.GetFlagOr("reward-band", "0.5").c_str());
    fleet_config.metrics = &metrics_registry;
    fleet_config.trace = trace.get();
    if (cmd.HasFlag("force-rollback")) {
      fleet_config.hooks.override_canary_verdict =
          [](const rlplanner::fleet::PolicySpec&) {
            return std::optional<bool>(false);
          };
    }
    fleet = std::make_unique<rlplanner::fleet::FleetOrchestrator>(
        instance, config.reward, registry, *fleet_pool, fleet_config);
    const std::uint64_t fingerprint =
        rlplanner::serve::CatalogFingerprint(dataset.catalog);
    for (int i = 0; i < fleet_policies; ++i) {
      rlplanner::fleet::PolicySpec spec;
      spec.slot = "policy-" + std::to_string(i);
      spec.segment_id = "segment-" + std::to_string(i);
      spec.catalog_fingerprint = fingerprint;
      spec.sarsa = config.sarsa;
      spec.seed = config.seed + static_cast<std::uint64_t>(i);
      spec.freshness_ticks =
          std::max(1, std::atoi(cmd.GetFlagOr("freshness-ticks", "3").c_str()));
      if (const auto status = fleet->AddSpec(std::move(spec)); !status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
    }
    fleet->RunTicks(
        std::max(1, std::atoi(cmd.GetFlagOr("fleet-ticks", "4").c_str())));
  }

  rlplanner::serve::PlanServiceConfig service_config;
  service_config.num_workers = static_cast<std::size_t>(
      std::atoi(cmd.GetFlagOr("threads", "4").c_str()));
  service_config.max_queue = static_cast<std::size_t>(
      std::atoi(cmd.GetFlagOr("queue", "256").c_str()));
  service_config.default_deadline_ms =
      std::atof(cmd.GetFlagOr("deadline-ms", "0").c_str());
  service_config.metrics = &metrics_registry;
  service_config.trace = trace.get();
  service_config.recorder = &recorder;
  const int num_requests = std::atoi(cmd.GetFlagOr("requests", "200").c_str());

  rlplanner::serve::PlanService service(instance, config.reward, registry,
                                        service_config);
  if (snapshot_load_seconds >= 0.0) {
    service.stats().RecordSnapshotLoad(snapshot_load_mmap,
                                       snapshot_load_seconds);
  }
  service.Start();

  // --metrics-interval-s: rewrite --metrics-out periodically while serving,
  // always via temp-file + atomic rename so a crash mid-interval never
  // leaves a torn JSON for a scraper to trip over.
  const double metrics_interval_s =
      std::atof(cmd.GetFlagOr("metrics-interval-s", "0").c_str());
  const auto metrics_path = cmd.GetFlag("metrics-out");
  std::mutex writer_mutex;
  std::condition_variable writer_cv;
  bool writer_stop = false;
  std::thread metrics_writer;
  if (metrics_interval_s > 0.0 && metrics_path.has_value()) {
    metrics_writer = std::thread([&] {
      std::unique_lock<std::mutex> lock(writer_mutex);
      while (!writer_cv.wait_for(
          lock, std::chrono::duration<double>(metrics_interval_s),
          [&] { return writer_stop; })) {
        lock.unlock();
        AtomicWriteTextFile(
            *metrics_path,
            rlplanner::obs::ToJson(metrics_registry.Collect()));
        lock.lock();
      }
    });
  }
  if (listen.has_value()) {
    rlplanner::net::PlanHandler::Options handler_options;
    handler_options.metrics = &metrics_registry;
    handler_options.trace = trace.get();
    handler_options.profiler = &profiler;
    handler_options.recorder = &recorder;
    handler_options.slots = &registry;
    if (fleet != nullptr) {
      handler_options.fleet_status =
          [fleet_ptr = fleet.get()] { return fleet_ptr->StatusJson(); };
    }
    const int wire_rc =
        RunWireServer(service, *listen, std::move(handler_options), cmd);
    if (fleet != nullptr) {
      std::fprintf(stderr, "fleet: %s\n", fleet->SummaryJson().c_str());
    }
    if (metrics_writer.joinable()) {
      {
        std::lock_guard<std::mutex> lock(writer_mutex);
        writer_stop = true;
      }
      writer_cv.notify_all();
      metrics_writer.join();
    }
    if (metrics_path.has_value()) {
      if (!AtomicWriteTextFile(
              *metrics_path,
              rlplanner::obs::ToJson(metrics_registry.Collect()))) {
        return 1;
      }
      std::printf("metrics: %s\n", metrics_path->c_str());
    }
    if (!WriteTraceOut(cmd, trace.get())) return 1;
    return wire_rc;
  }
  std::vector<std::future<
      rlplanner::util::Result<rlplanner::serve::PlanResponse>>> futures;
  futures.reserve(static_cast<std::size_t>(num_requests));
  int valid = 0, errors = 0, retried = 0;
  for (int i = 0; i < num_requests; ++i) {
    rlplanner::serve::PlanRequest request;
    request.start_item = static_cast<rlplanner::model::ItemId>(
        static_cast<std::size_t>(i) % dataset.catalog.size());
    auto submitted = service.Submit(std::move(request));
    while (!submitted.ok() &&
           submitted.status().code() ==
               rlplanner::util::StatusCode::kResourceExhausted) {
      // Closed-loop backpressure: drain one in-flight response, retry.
      ++retried;
      if (!futures.empty()) {
        auto result = futures.back().get();
        futures.pop_back();
        if (result.ok() && result.value().valid) ++valid;
        if (!result.ok()) ++errors;
      }
      rlplanner::serve::PlanRequest retry;
      retry.start_item = static_cast<rlplanner::model::ItemId>(
          static_cast<std::size_t>(i) % dataset.catalog.size());
      submitted = service.Submit(std::move(retry));
    }
    if (!submitted.ok()) {
      std::fprintf(stderr, "%s\n", submitted.status().ToString().c_str());
      return 1;
    }
    futures.push_back(std::move(submitted).value());
  }
  for (auto& future : futures) {
    auto result = future.get();
    if (result.ok() && result.value().valid) ++valid;
    if (!result.ok()) ++errors;
  }
  service.Stop();
  if (metrics_writer.joinable()) {
    {
      std::lock_guard<std::mutex> lock(writer_mutex);
      writer_stop = true;
    }
    writer_cv.notify_all();
    metrics_writer.join();
  }
  std::printf("served %d requests (%d valid plans, %d errors, %d retries) "
              "on %zu workers\n",
              num_requests, valid, errors, retried,
              service.config().num_workers);
  std::printf("%s\n", service.stats().ToJson().c_str());
  if (metrics_path.has_value()) {
    // The final write is atomic too: the periodic writer may have left a
    // mid-run snapshot in place, and this replaces it wholesale.
    if (!AtomicWriteTextFile(
            *metrics_path,
            rlplanner::obs::ToJson(metrics_registry.Collect()))) {
      return 1;
    }
    std::printf("metrics: %s\n", metrics_path->c_str());
  }
  if (!WriteTraceOut(cmd, trace.get())) return 1;
  return errors == 0 ? 0 : 1;
}

// Trains under the sampling profiler and writes the collapsed-stack profile
// to --out — the offline flamegraph path (flamegraph.pl or speedscope read
// the output directly; see docs/observability.md).
int CmdProfile(const Dataset& dataset, const CommandLine& cmd) {
  const std::string out = *cmd.GetFlag("out");
  const rlplanner::model::TaskInstance instance = dataset.Instance();
  rlplanner::core::PlannerConfig config = BuildConfig(dataset, cmd);

  rlplanner::obs::ProfilerConfig profiler_config;
  profiler_config.enabled = true;
  profiler_config.sample_hz =
      std::max(1, std::atoi(cmd.GetFlagOr("profile-hz", "97").c_str()));
  rlplanner::obs::Profiler profiler(profiler_config);
  if (const auto status = profiler.Start(); !status.ok()) {
    std::fprintf(stderr, "profiler: %s\n", status.ToString().c_str());
    return 1;
  }
  rlplanner::core::RlPlanner planner(instance, config);
  const auto trained = planner.Train();
  profiler.Stop();
  if (!trained.ok()) {
    std::fprintf(stderr, "training failed: %s\n", trained.ToString().c_str());
    return 1;
  }
  if (!WriteTextFile(out, profiler.Collapsed(0.0))) return 1;
  std::printf("trained %d episodes in %.3f s under %d Hz sampling "
              "(%llu samples)\n",
              config.sarsa.num_episodes, planner.train_seconds(),
              profiler.sample_hz(),
              static_cast<unsigned long long>(profiler.samples_total()));
  std::printf("profile: %s\n", out.c_str());
  return 0;
}

// Runs the continuous-training fleet orchestrator over a small multi-policy
// fleet and prints its status. `mode` is "run" (per-tick progress on stderr,
// final status JSON on stdout) or "status" (status JSON only — the
// machine-readable flavor the smoke lane parses).
int CmdFleet(const Dataset& dataset, const CommandLine& cmd,
             const std::string& mode) {
  const rlplanner::model::TaskInstance instance = dataset.Instance();
  rlplanner::core::PlannerConfig config = BuildConfig(dataset, cmd);
  const bool verbose = mode == "run";

  rlplanner::obs::Registry metrics_registry;
  const auto trace = MakeTraceCollector(cmd, &metrics_registry);

  const std::uint64_t fingerprint =
      rlplanner::serve::CatalogFingerprint(dataset.catalog);
  rlplanner::serve::PolicyRegistry registry(fingerprint,
                                            dataset.catalog.size());
  rlplanner::util::ThreadPool pool;

  rlplanner::fleet::FleetConfig fleet_config;
  fleet_config.canary_permille = static_cast<std::uint32_t>(
      std::atoi(cmd.GetFlagOr("canary-permille", "200").c_str()));
  fleet_config.canary_hold_ticks =
      std::atoi(cmd.GetFlagOr("hold-ticks", "1").c_str());
  fleet_config.reward_band =
      std::atof(cmd.GetFlagOr("reward-band", "0.5").c_str());
  fleet_config.metrics = &metrics_registry;
  fleet_config.trace = trace.get();
  if (cmd.HasFlag("force-rollback")) {
    // Rollback drill: veto every canary verdict so each publication beyond
    // the first exercises the full publish -> canary -> rollback cycle.
    fleet_config.hooks.override_canary_verdict =
        [](const rlplanner::fleet::PolicySpec&) {
          return std::optional<bool>(false);
        };
  }
  rlplanner::fleet::FleetOrchestrator fleet(instance, config.reward, registry,
                                            pool, fleet_config);

  const int num_policies =
      std::max(1, std::atoi(cmd.GetFlagOr("policies", "3").c_str()));
  const int freshness =
      std::max(1, std::atoi(cmd.GetFlagOr("freshness-ticks", "3").c_str()));
  for (int i = 0; i < num_policies; ++i) {
    rlplanner::fleet::PolicySpec spec;
    spec.slot = "policy-" + std::to_string(i);
    spec.segment_id = "segment-" + std::to_string(i);
    spec.catalog_fingerprint = fingerprint;
    spec.sarsa = config.sarsa;
    spec.seed = config.seed + static_cast<std::uint64_t>(i);
    spec.freshness_ticks = freshness;
    if (const auto status = fleet.AddSpec(std::move(spec)); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }

  const int ticks = std::max(1, std::atoi(cmd.GetFlagOr("ticks", "6").c_str()));
  for (int t = 0; t < ticks; ++t) {
    fleet.Tick();
    if (verbose) {
      for (const auto& s : fleet.Statuses()) {
        std::fprintf(stderr,
                     "tick %d  %s phase=%s incumbent=v%llu canary=v%llu "
                     "publishes=%llu promotes=%llu rollbacks=%llu\n",
                     t, s.slot.c_str(),
                     rlplanner::fleet::PolicyPhaseName(s.phase),
                     static_cast<unsigned long long>(s.incumbent_version),
                     static_cast<unsigned long long>(s.canary_version),
                     static_cast<unsigned long long>(s.publishes),
                     static_cast<unsigned long long>(s.promotes),
                     static_cast<unsigned long long>(s.rollbacks));
      }
    }
  }

  std::printf("%s\n", fleet.StatusJson().c_str());
  if (const auto metrics_path = cmd.GetFlag("metrics-out")) {
    if (!AtomicWriteTextFile(
            *metrics_path,
            rlplanner::obs::ToJson(metrics_registry.Collect()))) {
      return 1;
    }
    if (verbose) std::fprintf(stderr, "metrics: %s\n", metrics_path->c_str());
  }
  if (!WriteTraceOut(cmd, trace.get())) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CommandLine cmd = rlplanner::util::ParseCommandLine(argc, argv);
  if (cmd.command.empty()) return Usage("missing subcommand");
  // Every flag some subcommand reads: a typo or a removed flag fails here
  // instead of being silently ignored.
  if (const auto status = rlplanner::util::AllowFlags(
          cmd, {"alpha", "beam", "canary-permille", "dataset", "deadline-ms",
                "drain-timeout-ms", "duration-s", "episodes", "epsilon",
                "fleet-policies", "fleet-ticks", "force-rollback", "format",
                "freshness-ticks", "gamma", "hold-ticks", "in", "listen",
                "metrics-interval-s", "metrics-out", "out", "policies",
                "profile-hz", "q-repr", "queue", "requests", "reward-band",
                "seed", "shards", "similarity", "slo-ms", "snapshot",
                "snapshot-mode", "start", "threads", "ticks", "trace-out",
                "workers"});
      !status.ok()) {
    return Usage(status.message());
  }
  if (cmd.command == "list") return CmdList();
  if (cmd.command == "snapshot-info") {
    // The only positional-argument command: `snapshot-info FILE`.
    if (cmd.positional.size() != 1) {
      return Usage(cmd.positional.empty()
                       ? "snapshot-info requires a FILE argument"
                       : "snapshot-info takes exactly one FILE argument");
    }
    return CmdSnapshotInfo(cmd.positional.front());
  }

  std::string fleet_mode;
  if (cmd.command == "fleet") {
    // `fleet <run|status>`: the verb rides in as the single positional.
    if (cmd.positional.size() != 1 ||
        (cmd.positional.front() != "run" &&
         cmd.positional.front() != "status")) {
      return Usage("fleet requires a mode: fleet <run|status> --dataset D");
    }
    fleet_mode = cmd.positional.front();
  }

  // Required flags per subcommand; anything else is an unknown command.
  std::vector<std::string> required = {"dataset"};
  if (cmd.command == "export" || cmd.command == "save-snapshot" ||
      cmd.command == "profile") {
    required.push_back("out");
  } else if (cmd.command == "load-snapshot") {
    required.push_back("in");
  } else if (cmd.command != "info" && cmd.command != "gold" &&
             cmd.command != "plan" && cmd.command != "train" &&
             cmd.command != "metrics" && cmd.command != "inspect" &&
             cmd.command != "serve" && cmd.command != "fleet") {
    return Usage("unknown command '" + cmd.command + "'");
  }
  if (const auto status = rlplanner::util::RequireFlags(cmd, required);
      !status.ok()) {
    return Usage(status.message());
  }

  auto dataset = LoadDataset(*cmd.GetFlag("dataset"));
  if (!dataset.has_value()) return 1;

  if (cmd.command == "info") return CmdInfo(*dataset);
  if (cmd.command == "export") return CmdExport(*dataset, *cmd.GetFlag("out"));
  if (cmd.command == "gold") return CmdGold(*dataset);
  if (cmd.command == "plan") return CmdPlan(*dataset, cmd);
  if (cmd.command == "train") return CmdTrain(*dataset, cmd);
  if (cmd.command == "metrics") return CmdMetrics(*dataset, cmd);
  if (cmd.command == "inspect") return CmdInspect(*dataset, cmd);
  if (cmd.command == "save-snapshot") return CmdSaveSnapshot(*dataset, cmd);
  if (cmd.command == "load-snapshot") return CmdLoadSnapshot(*dataset, cmd);
  if (cmd.command == "profile") return CmdProfile(*dataset, cmd);
  if (cmd.command == "fleet") return CmdFleet(*dataset, cmd, fleet_mode);
  return CmdServe(*dataset, cmd);
}
