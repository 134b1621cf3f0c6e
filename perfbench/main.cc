// perfbench: end-to-end and per-layer benchmark of plan serving and of the
// fleet's retrain -> gate -> publish cycle.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 [--snapshot FILE] [--out-dir DIR] [--short]
//                 [--tamper-every K]
//   perfbench make-snapshot --out FILE
//
// Workloads (closed loop, keep-alive connections, one process):
//   paper_wire     114-item catalog; a dense policy trained at startup as
//                  `rlplanner_cli serve` does without --snapshot; 1 shard,
//                  2 plan workers, 2 connections. The rollout is cheap, so
//                  the wire path (epoll, hand-offs, HTTP, JSON) is a large
//                  share of each plan.
//   scale10k_wire  10k-item catalog; the ~100 MB v2 snapshot written by
//                  `make-snapshot` in a separate process, mmap-installed as
//                  `serve --snapshot F --snapshot-mode mmap` does. Same
//                  server and clients. The rollout dominates each plan.
//   fleet_live     114-item catalog; a FleetOrchestrator with 4 specs due
//                  every tick and a live feedback stream retrains, gates,
//                  canaries and promotes on a 1-worker pool while one
//                  connection plans against the 4 canary-routed slots.
//
// A run sets up several times, then measures --seconds of load split into
// ~2 s sessions (fresh serving stack and connections each), then runs the
// fixed verification set. --trace 0 prints the end-to-end metrics; --trace 1
// is the separate traced run that prints the per-layer metrics and budget
// tables and writes its spans under --out-dir. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Any failed
// request or check makes the exit code non-zero.

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/planner.h"
#include "deploy.h"
#include "fleet/fleet.h"
#include "layers.h"
#include "mdp/reward.h"
#include "mdp/sparse_q_table.h"
#include "serve/policy_registry.h"
#include "serve/policy_snapshot.h"
#include "spans.h"
#include "sysstat.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "verify.h"
#include "wire.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace core = rlplanner::core;
namespace datagen = rlplanner::datagen;
namespace fleet = rlplanner::fleet;
namespace mdp = rlplanner::mdp;
namespace model = rlplanner::model;
namespace serve = rlplanner::serve;

void SleepSeconds(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double Share(std::uint64_t part, std::uint64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

// Input properties of the requests sent in the measured windows.
struct RequestShares {
  double repeat = 0.0;      // identical to an earlier request of the run
  double overridden = 0.0;  // carrying excluded items or ideal topics
  /// Of the ideal-topics requests, those whose profile an earlier request
  /// of the run already carried.
  double profile_reuse = 0.0;
};

RequestShares MeasureRequestShares(const RequestMix& mix,
                                   std::vector<WireSample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const WireSample& a, const WireSample& b) {
              return a.send_ns < b.send_ns;
            });
  std::unordered_set<std::string_view> seen;
  std::unordered_set<int> seen_profiles;
  std::uint64_t measured = 0, repeats = 0, overrides = 0, ideal = 0,
                reused = 0;
  for (const WireSample& s : samples) {
    const BenchRequest& request = mix.requests()[s.request];
    const bool repeat = !seen.insert(request.body).second;
    const bool reuse =
        request.profile >= 0 && !seen_profiles.insert(request.profile).second;
    if (s.phase == kWarmup) continue;
    ++measured;
    repeats += repeat ? 1 : 0;
    overrides += (!request.excluded.empty() || request.profile >= 0) ? 1 : 0;
    ideal += request.profile >= 0 ? 1 : 0;
    reused += reuse ? 1 : 0;
  }
  return {Share(repeats, measured), Share(overrides, measured),
          Share(reused, ideal)};
}

// Touches every row of an mmap-served policy so resident memory holds the
// whole table before timing, as on a server that has run for a while.
void PrefaultPolicy(const serve::ServablePolicy& policy) {
  const std::size_t n = policy.num_items();
  rlplanner::util::DynamicBitset all(n);
  all.SetAll();
  std::uint64_t sum = 0;
  policy.VisitQ([&](const auto& q) {
    for (std::size_t s = 0; s < n; ++s) {
      sum += static_cast<std::uint64_t>(
          q.ArgmaxAction(static_cast<ItemId>(s), all));
    }
  });
  if (sum == 0) std::printf("prefault: every argmax is item 0\n");
}

// ---------------------------------------------------------------------------
// Measurement. The window is split into sessions, each with a fresh serving
// stack and fresh connections behind a short warm-up of its own: where the
// server and client threads settle among the vCPUs moves a paper-scale p50
// by up to a third for the life of those threads, so a run reports medians
// over sessions rather than trusting one placement.
// ---------------------------------------------------------------------------

constexpr double kSessionSeconds = 2.0;
// How many threads train in parallel in one tick: the fleet pool's single
// worker plus the ticking thread.
constexpr std::size_t kFleetTrainingThreads = 2;

struct SessionResult {
  Phase phase = kWindow;
  double seconds = 0.0;
  double cpu_s = 0.0;  // on the serving stack's threads
  std::uint64_t completed = 0;
  double p50_ms = 0.0;
};

struct Measurement {
  std::vector<SessionResult> sessions;
  double fleet_seconds = 0.0;
  std::uint64_t retrains = 0;
  std::uint64_t attempted = 0, failed = 0, rejected = 0;
  // Per entry of kTamperable: responses corrupted to trip that check, and
  // how many of them it caught.
  std::uint64_t tampered[std::size(kTamperable)] = {};
  std::uint64_t caught[std::size(kTamperable)] = {};
  std::vector<std::string> errors;
  // Kept only by the traced run, which reports no memory figure.
  std::vector<WireSample> samples;
  SpanLog spans;
  std::map<std::string, double> metrics_before, metrics_after;
};

Measurement Measure(const Options& o, const Shape& shape, Deployment* d,
                    const RequestMix& mix, FleetDriver* fleet_driver) {
  Measurement m;
  const int sessions = std::max(
      2, static_cast<int>(std::lround(o.seconds / kSessionSeconds)));
  const int fleet_ticks =
      kCanaryCycleTicks *
      std::max(1, static_cast<int>(std::lround(
                      o.seconds * kFleetTicksPerSecond / kCanaryCycleTicks)));
  const double warmup_s = o.short_mode ? 0.1 : 0.3;
  const auto samples_per_connection = static_cast<std::size_t>(
      shape.max_rate * (o.seconds / sessions + warmup_s + 1.0));
  m.metrics_before = ScrapeMetrics(d->stack->port());
  std::size_t next_request = 0;
  for (int k = 0; k < sessions; ++k) {
    if (k > 0) {
      d->stack.reset();
      d->stack = std::make_unique<ServingStack>(
          d->instance, d->config.reward, *d->registry, &d->metrics,
          shape.workers);
    }
    // The traced run alternates untraced and traced sessions.
    SessionResult s;
    s.phase = o.trace && k % 2 == 1 ? kTracedWindow : kWindow;
    LoadGenerator load(d->stack->port(), mix, shape.connections,
                       o.tamper_every, samples_per_connection, next_request);
    SleepSeconds(warmup_s);
    const std::uint64_t generations =
        fleet_driver ? fleet_driver->Generations() : 0;
    const double cpu_before = ThreadsCpuSeconds(d->stack->threads());
    const std::int64_t begin = NowNs();
    load.SetPhase(s.phase);
    if (fleet_driver) {
      // Each session does its share of a fixed number of ticks.
      const int ticks = fleet_ticks * (k + 1) / sessions -
                        fleet_ticks * k / sessions;
      for (int t = 0; t < ticks; ++t) {
        const std::int64_t tick_begin = NowNs();
        const std::uint64_t retrains = fleet_driver->Tick();
        if (s.phase == kTracedWindow) {
          m.spans.Add("fleet.tick", tick_begin, NowNs(), -1,
                      static_cast<std::uint64_t>(t),
                      static_cast<double>(retrains));
        }
      }
      m.retrains += fleet_driver->Generations() - generations;
    } else {
      SleepSeconds(o.seconds / sessions);
    }
    s.seconds = SecondsSince(begin);
    s.cpu_s = ThreadsCpuSeconds(d->stack->threads()) - cpu_before;
    load.Stop();
    next_request += load.MaxSentPerConnection();

    s.completed = load.Completed(s.phase);
    s.p50_ms = load.LatencyPercentile(s.phase, 0.5);
    std::printf("session %d%s: p50 %.6f ms, %.6f serving cpu ms/plan, "
                "%llu plans in %.3f s\n",
                k, s.phase == kTracedWindow ? " (traced)" : "", s.p50_ms,
                s.completed > 0 ? s.cpu_s * 1e3 / s.completed : 0.0,
                static_cast<unsigned long long>(s.completed), s.seconds);
    if (fleet_driver) m.fleet_seconds += s.seconds;
    m.attempted += load.attempted();
    m.failed += load.failed();
    m.rejected += load.rejected();
    for (std::size_t i = 0; i < std::size(kTamperable); ++i) {
      m.tampered[i] += load.tampered(kTamperable[i]);
      m.caught[i] += load.caught(kTamperable[i]);
    }
    for (const std::string& e : load.errors()) {
      if (m.errors.size() < 8) m.errors.push_back(e);
    }
    if (o.trace) {
      for (const Phase phase : {kWarmup, s.phase}) {
        const std::vector<WireSample> samples = load.Samples(phase);
        m.samples.insert(m.samples.end(), samples.begin(), samples.end());
      }
      m.spans.Append(load.TakeSpans());
    }
    m.sessions.push_back(s);
  }
  m.metrics_after = ScrapeMetrics(d->stack->port());
  return m;
}

// Median over sessions of a per-session figure.
template <typename Fn>
double SessionMedian(const Measurement& m, Phase phase, Fn&& value) {
  std::vector<double> values;
  for (const SessionResult& s : m.sessions) {
    if (s.phase == phase) values.push_back(value(s));
  }
  return Median(values);
}

std::vector<Metric> EndToEndMetrics(double setup_s, double peak_rss_mib,
                                    const Measurement& m,
                                    const Verification& verification) {
  return {
      {"setup_s", setup_s, "s"},
      {"plan_p50_ms",
       SessionMedian(m, kWindow, [](const SessionResult& s) { return s.p50_ms; }),
       "ms"},
      {"cpu_ms_per_plan", SessionMedian(m, kWindow,
                                        [](const SessionResult& s) {
                                          return s.completed > 0
                                                     ? s.cpu_s * 1e3 /
                                                           s.completed
                                                     : 0.0;
                                        }),
       "ms"},
      {"peak_rss_mb", peak_rss_mib, "MiB"},
      {"valid_plan_share", verification.ValidShare(), "ratio"},
      {"plan_score_mean", verification.ScoreMean(), "score"},
  };
}

// The traced run's per-layer metrics and budget tables; see layers.h.
std::vector<Metric> LayerMetrics(const Options& o, const Shape& shape,
                                 Deployment* d, const RequestMix& mix,
                                 FleetDriver* fleet_driver, Measurement* m,
                                 const HostCpu& host_before,
                                 const std::vector<fleet::PolicyStatus>&
                                     statuses_before) {
  std::vector<WireSample> untraced, traced;
  for (const WireSample& s : m->samples) {
    if (s.phase == kWindow) untraced.push_back(s);
    if (s.phase == kTracedWindow) traced.push_back(s);
  }
  // Replay a seeded sample of the traced median-band requests in process.
  std::vector<std::uint32_t> band = MedianBand(traced);
  rlplanner::util::Rng pick(o.seed ^ 0x7ac3d);
  for (std::size_t i = band.size(); i > 1; --i) {
    std::swap(band[i - 1], band[pick.NextBounded(i)]);
  }
  band.resize(std::min(band.size(), shape.replay_count));
  const RewardCache rewards(mix, *d);
  ReplayTarget target;
  target.mix = &mix;
  target.instance = &d->instance;
  target.weights = &d->config.reward;
  target.reward = &rewards.base();
  target.registry = d->registry.get();
  // As many replay threads as the server has plan workers, so replayed
  // rollouts share the memory system as the served ones did.
  std::vector<SpanLog> replay_logs(shape.workers);
  std::vector<std::thread> replayers;
  for (std::size_t w = 0; w < shape.workers; ++w) {
    std::vector<std::uint32_t> part;
    for (std::size_t i = w; i < band.size(); i += shape.workers) {
      part.push_back(band[i]);
    }
    replayers.emplace_back([&target, &replay_logs, w, part] {
      ReplayRequests(target, part, &replay_logs[w]);
    });
  }
  for (std::thread& t : replayers) t.join();
  for (const SpanLog& log : replay_logs) m->spans.Append(log);

  // The request-local reward rebuild of an ideal-topics override, timed
  // per profile: override requests rarely fall in the median band.
  const model::Catalog& catalog = d->dataset->catalog;
  std::vector<double> reward_builds;
  for (int p = 0; p < kProfiles; ++p) {
    const std::int64_t begin = NowNs();
    auto ideal = catalog.MakeTopicVector(mix.ProfileTopics(p));
    if (!ideal.ok()) Die(ideal.status().ToString());
    model::TaskInstance local = d->instance;
    local.soft.ideal_topics = std::move(ideal).value();
    const mdp::RewardFunction reward(local, d->config.reward);
    reward_builds.push_back(SecondsSince(begin) * 1e6);
  }

  // Setup-path calls, timed on scratch registries.
  std::vector<double> fingerprints, installs;
  for (int r = 0; r < 5; ++r) {
    std::int64_t begin = NowNs();
    const std::uint64_t fingerprint = serve::CatalogFingerprint(catalog);
    fingerprints.push_back(SecondsSince(begin) * 1e3);
    serve::PolicyRegistry scratch(fingerprint, catalog.size());
    const auto current = d->registry->Current(d->slots[0]);
    begin = NowNs();
    const bool ok =
        o.kind == Kind::kScale10kWire
            ? scratch
                  .InstallSnapshotFile("default", o.snapshot,
                                       serve::SnapshotLoadMode::kMmap)
                  .ok()
            : scratch
                  .Install("default", *current->dense, current->provenance,
                           current->seed)
                  .ok();
    installs.push_back(SecondsSince(begin) * 1e3);
    if (!ok) Die("scratch install failed");
  }

  // Route over the workload's slots; fleet_live stages a canary on each.
  double route_ns = 0.0;
  if (o.kind == Kind::kFleetLive) {
    serve::PolicyRegistry staged(d->registry->catalog_fingerprint(),
                                 catalog.size());
    for (const std::string& slot : d->slots) {
      const auto current = d->registry->Current(slot);
      if (!staged.Install(slot, *current->dense, current->provenance).ok() ||
          !staged
               .InstallCanary(slot, *current->dense,
                              d->fleet_config.canary_permille,
                              current->provenance)
               .ok()) {
        Die("staging canaries failed");
      }
    }
    route_ns = MeasureRouteNs(staged, d->slots);
  } else {
    route_ns = MeasureRouteNs(*d->registry, d->slots);
  }

  FleetBudget fleet_budget;
  double retrain_per_s = 0.0, gate_pass_share = 0.0;
  std::uint64_t gate_failures = 0, rejections = 0;
  if (fleet_driver) {
    ReplayFleet(d->instance, rewards.base(), *d->registry, d->fleet_config,
                d->fleet->probe_set(), fleet_driver->Slots(), &m->spans);
    fleet_budget = ComputeFleetBudget(m->spans, kFleetTrainingThreads);
    retrain_per_s = static_cast<double>(m->retrains) / m->fleet_seconds;
    std::uint64_t publishes = 0;
    const std::vector<fleet::PolicyStatus> after = d->fleet->Statuses();
    for (std::size_t i = 0; i < after.size(); ++i) {
      publishes += after[i].publishes - statuses_before[i].publishes;
      gate_failures += after[i].gate_failures - statuses_before[i].gate_failures;
      rejections += after[i].candidate_rejections -
                    statuses_before[i].candidate_rejections;
    }
    gate_pass_share = Share(publishes, m->retrains);
  }
  const WireBudget budget = ComputeWireBudget(traced, m->spans);

  PrintBudget("p50 budget (traced sessions)", budget.p50_ms, budget.parts);
  std::printf("  waits: serve.queue median %.6f ms; failures: %llu failed, "
              "%llu rejected (503)\n",
              budget.queue_ms, static_cast<unsigned long long>(m->failed),
              static_cast<unsigned long long>(m->rejected));
  if (fleet_driver) {
    PrintBudget("median retraining tick budget", fleet_budget.tick_ms,
                fleet_budget.parts);
  }
  const std::filesystem::path dir = std::filesystem::path(o.out_dir) / "traces";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path =
      (dir / (o.workload + "_seed" + std::to_string(o.seed) + ".jsonl"))
          .string();
  if (!m->spans.WriteJsonLines(path)) Die("cannot write " + path);
  std::printf("spans: %s (%zu spans)\n", path.c_str(),
              m->spans.spans().size());

  std::vector<double> untraced_latencies, traced_latencies;
  for (const WireSample& s : untraced) untraced_latencies.push_back(s.latency_ms);
  for (const WireSample& s : traced) traced_latencies.push_back(s.latency_ms);
  const double untraced_p50 = Percentile(untraced_latencies, 0.5);
  const RequestShares shares = MeasureRequestShares(mix, m->samples);
  std::uint64_t untraced_completed = 0;
  double untraced_seconds = 0.0;
  for (const SessionResult& s : m->sessions) {
    if (s.phase != kWindow) continue;
    untraced_completed += s.completed;
    untraced_seconds += s.seconds;
  }
  auto delta = [&](const char* name) {
    const auto a = m->metrics_after.find(name);
    const auto b = m->metrics_before.find(name);
    return a == m->metrics_after.end() || b == m->metrics_before.end()
               ? 0.0
               : a->second - b->second;
  };
  return {
      {"net.decode_us", budget.decode_us, "us"},
      {"net.encode_us", budget.encode_us, "us"},
      {"net.wire_ms", budget.wire_ms, "ms"},
      // Every request the server read in the run, warm-ups and the two
      // /metrics scrapes included, over the same span of the counters.
      {"net.bytes_per_plan",
       (delta("net_bytes_read_total") + delta("net_bytes_written_total")) /
           std::max(1.0, delta("net_requests_total")),
       "count"},
      {"net.parse_errors", delta("net_parse_errors_total"), "count"},
      {"serve.queue_ms", budget.queue_ms, "ms"},
      {"serve.exec_ms", budget.exec_ms, "ms"},
      {"serve.exec_p90_ms", budget.exec_p90_ms, "ms"},
      {"serve.route_ns", route_ns, "ns"},
      {"serve.fingerprint_ms", Median(fingerprints), "ms"},
      {"serve.install_ms", Median(installs), "ms"},
      {"serve.rejected", static_cast<double>(m->rejected), "count"},
      {"rl.rollout_ms", budget.rollout_ms, "ms"},
      {"rl.mask_us_per_step", budget.mask_us_per_step, "us"},
      {"rl.steps_per_plan", budget.steps_per_plan, "count"},
      {"rl.admissible_per_step", budget.admissible_per_step, "count"},
      {"rl.rollout_unattributed_share", budget.rollout_unattributed_share,
       "ratio"},
      {"mdp.theta_ns", budget.theta_ns, "ns"},
      {"mdp.reward_ns", budget.reward_ns, "ns"},
      {"mdp.q_get_ns", budget.q_get_ns, "ns"},
      {"mdp.reward_build_us", Median(reward_builds), "us"},
      {"core.check_us", budget.check_us, "us"},
      {"bench.plan_p90_ms", Percentile(untraced_latencies, 0.9), "ms"},
      {"bench.plan_per_s",
       untraced_seconds > 0 ? untraced_completed / untraced_seconds : 0.0,
       "1/s"},
      {"fleet.retrain_per_s", retrain_per_s, "1/s"},
      {"fleet.tick_ms", fleet_budget.tick_ms, "ms"},
      {"fleet.learn_ms", fleet_budget.learn_ms, "ms"},
      {"fleet.gate_ms", fleet_budget.gate_ms, "ms"},
      {"fleet.snapshot_ms", fleet_budget.snapshot_ms, "ms"},
      {"fleet.publish_us", fleet_budget.publish_us, "us"},
      {"fleet.gate_pass_share", gate_pass_share, "ratio"},
      {"fleet.retrains", static_cast<double>(m->retrains), "count"},
      {"fleet.gate_failures", static_cast<double>(gate_failures), "count"},
      {"fleet.candidate_rejections", static_cast<double>(rejections),
       "count"},
      {"fleet.tick_unattributed_share", fleet_budget.unattributed_share,
       "ratio"},
      {"bench.budget_unattributed_share", budget.unattributed_share, "ratio"},
      {"bench.trace_overhead_share",
       untraced_p50 > 0 ? Percentile(traced_latencies, 0.5) / untraced_p50 - 1
                        : 0.0,
       "ratio"},
      {"bench.repeat_request_share", shares.repeat, "ratio"},
      {"bench.override_share", shares.overridden, "ratio"},
      {"bench.profile_reuse_share", shares.profile_reuse, "ratio"},
      {"bench.cpu_steal_share", StealShare(host_before, ReadHostCpu()),
       "ratio"},
  };
}

int Run(const Options& o) {
  const Shape shape = ShapeOf(o);
  const HostCpu host_before = ReadHostCpu();

  // Setup, several times; the last deployment serves. The untraced run
  // sets up as often again once serving is done, so setup_s, the median of
  // all of them, samples the host across the whole run.
  std::vector<double> setup_times;
  std::unique_ptr<Deployment> d;
  auto deploy = [&] {
    d.reset();
    const std::int64_t begin = NowNs();
    d = Deploy(o, shape);
    setup_times.push_back(SecondsSince(begin));
  };
  for (int r = 0; r < shape.setup_reps; ++r) deploy();

  // 8192 requests, cycled: enough that 10k-item runs never wrap, small
  // enough that the stream adds little to the process's resident memory.
  const RequestMix mix(d->instance, d->slots, o.seed, 8192);
  std::optional<FleetDriver> fleet_driver;
  if (o.kind == Kind::kFleetLive) {
    fleet_driver.emplace(d.get());
    for (int t = 0; t < kCanaryCycleTicks; ++t) fleet_driver->Tick();
  }
  if (o.kind == Kind::kScale10kWire) {
    PrefaultPolicy(*d->registry->Current("default"));
  }
  const std::vector<fleet::PolicyStatus> statuses_before =
      d->fleet ? d->fleet->Statuses() : std::vector<fleet::PolicyStatus>{};

  Measurement m = Measure(o, shape, d.get(), mix,
                          fleet_driver ? &*fleet_driver : nullptr);

  // Verification set, outside the timed window.
  const Verification verification =
      o.kind == Kind::kFleetLive ? VerifyFleetIncumbents(*d, shape.verify_count)
                                 : VerifyOverWire(*d, shape.verify_count);
  // Read before the analysis below, whose copies of the samples grow with
  // the number of requests served and are not the serving process's own.
  const double peak_rss_mib = PeakRssMiB();
  std::printf("plan_digest: %016llx over %zu verification plans\n",
              static_cast<unsigned long long>(PlanDigest(verification.plans)),
              verification.plans.size());
  if (fleet_driver) {
    std::printf("fleet: %llu retrains in %.3f s of fleet work\n",
                static_cast<unsigned long long>(m.retrains), m.fleet_seconds);
  }
  if (o.tamper_every > 0) {
    for (std::size_t i = 0; i < std::size(kTamperable); ++i) {
      std::printf("tampered %s: %llu, caught %llu\n",
                  CheckName(kTamperable[i]),
                  static_cast<unsigned long long>(m.tampered[i]),
                  static_cast<unsigned long long>(m.caught[i]));
    }
  }
  for (const std::string& e : m.errors) {
    std::fprintf(stderr, "failed request: %s\n", e.c_str());
  }
  for (const std::string& e : verification.errors) {
    std::fprintf(stderr, "failed verification: %s\n", e.c_str());
  }
  const std::uint64_t attempted = m.attempted + verification.attempted;
  const std::uint64_t failed = m.failed + verification.failed;

  std::vector<Metric> metrics;
  if (o.trace) {
    metrics = LayerMetrics(o, shape, d.get(), mix,
                           fleet_driver ? &*fleet_driver : nullptr, &m,
                           host_before, statuses_before);
  } else {
    fleet_driver.reset();  // it points into the deployment replaced below
    for (int r = 0; r < shape.setup_reps; ++r) deploy();
    metrics = EndToEndMetrics(Median(setup_times), peak_rss_mib, m,
                              verification);
  }
  const bool correct = failed == 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// make-snapshot: serve_bench's 10k-item fixture — a briefly trained sparse
// policy padded with deterministic filler entries (tiny negatives, so
// learned positives still win every argmax) to ~880 stored entries per row.
// ---------------------------------------------------------------------------

int MakeSnapshot(const std::string& path) {
  const datagen::Dataset dataset = Scale10kCatalog();
  core::PlannerConfig config;
  config.sarsa.q_representation = rlplanner::rl::QRepresentation::kSparse;
  config.sarsa.policy_rounds = 1;
  config.sarsa.num_episodes = 60;
  config.sarsa.start_item = dataset.default_start;
  config.seed = 17;
  const model::TaskInstance instance = dataset.Instance();
  core::RlPlanner planner(instance, config);
  if (const auto status = planner.Train(); !status.ok()) {
    Die("10k training failed: " + status.ToString());
  }
  mdp::SparseQTable padded = planner.sparse_q_table();
  const std::size_t n = padded.num_items();
  constexpr std::size_t kPerRow = 880;  // 12 bytes per entry on disk
  for (std::size_t state = 0; state < n; ++state) {
    for (std::size_t j = 0; j < kPerRow; ++j) {
      const auto action =
          static_cast<ItemId>((state * 2654435761ull + j * 40503ull) % n);
      const auto s = static_cast<ItemId>(state);
      if (padded.Get(s, action) == 0.0) {
        padded.Set(s, action, -1e-9 * static_cast<double>(j + 1));
      }
    }
  }
  serve::SparsePolicySnapshotV2 snapshot;
  snapshot.catalog_fingerprint = serve::CatalogFingerprint(dataset.catalog);
  snapshot.seed = config.seed;
  snapshot.provenance = config.sarsa;
  snapshot.table = std::move(padded);
  const std::string tmp = path + ".tmp";
  if (const auto status = snapshot.SaveToFile(tmp); !status.ok()) {
    Die("snapshot save failed: " + status.ToString());
  }
  auto info = serve::InspectSnapshotFile(tmp);
  if (!info.ok() || !info.value().checksum_ok) Die("snapshot failed inspection");
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) Die("cannot rename snapshot: " + ec.message());
  std::printf("snapshot: %s (%llu bytes)\n", path.c_str(),
              static_cast<unsigned long long>(info.value().file_bytes));
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench run --workload paper_wire|scale10k_wire|"
               "fleet_live --seed N --seconds S --trace 0|1 [--snapshot F] "
               "[--out-dir D] [--short] [--tamper-every K]\n"
               "       perfbench make-snapshot --out F\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Kind;
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) return perfbench::Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return perfbench::Usage();
    key = key.substr(2);
    if (key == "short") {
      flags[key] = "1";
    } else if (i + 1 < argc) {
      flags[key] = argv[++i];
    } else {
      return perfbench::Usage();
    }
  }
  if (command == "make-snapshot") {
    if (flags.count("out") == 0) return perfbench::Usage();
    return perfbench::MakeSnapshot(flags["out"]);
  }
  if (command != "run" || flags.count("workload") == 0) {
    return perfbench::Usage();
  }
  perfbench::Options o;
  o.workload = flags["workload"];
  if (o.workload == "paper_wire") {
    o.kind = Kind::kPaperWire;
  } else if (o.workload == "scale10k_wire") {
    o.kind = Kind::kScale10kWire;
  } else if (o.workload == "fleet_live") {
    o.kind = Kind::kFleetLive;
  } else {
    return perfbench::Usage();
  }
  if (flags.count("seed")) o.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  if (flags.count("seconds")) o.seconds = std::atof(flags["seconds"].c_str());
  if (flags.count("trace")) o.trace = flags["trace"] == "1";
  if (flags.count("tamper-every")) {
    o.tamper_every = std::atoi(flags["tamper-every"].c_str());
  }
  o.short_mode = flags.count("short") != 0;
  if (flags.count("snapshot")) o.snapshot = flags["snapshot"];
  if (flags.count("out-dir")) o.out_dir = flags["out-dir"];
  if (o.seconds <= 0.0) return perfbench::Usage();
  if (o.kind == Kind::kScale10kWire && o.snapshot.empty()) {
    std::fprintf(stderr, "scale10k_wire needs --snapshot (see make-snapshot)\n");
    return 2;
  }
  return perfbench::Run(o);
}
