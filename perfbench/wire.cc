#include "wire.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <sstream>
#include <utility>

#include "net/client.h"
#include "sysstat.h"

namespace perfbench {

ServingStack::ServingStack(const rlplanner::model::TaskInstance& instance,
                           const rlplanner::mdp::RewardWeights& weights,
                           const rlplanner::serve::PolicyRegistry& registry,
                           rlplanner::obs::Registry* metrics,
                           std::size_t workers)
    : recorder_(rlplanner::obs::FlightRecorderConfig{}),
      profiler_(rlplanner::obs::ProfilerConfig{}) {
  const std::vector<int> before = ListThreads();
  rlplanner::serve::PlanServiceConfig service_config;
  service_config.num_workers = workers;
  service_config.metrics = metrics;
  service_config.recorder = &recorder_;
  service_ = std::make_unique<rlplanner::serve::PlanService>(
      instance, weights, registry, service_config);
  service_->Start();

  rlplanner::net::PlanHandler::Options options;
  options.metrics = metrics;
  options.profiler = &profiler_;
  options.recorder = &recorder_;
  options.slots = &registry;
  handler_ = std::make_unique<rlplanner::net::PlanHandler>(service_.get(),
                                                           std::move(options));
  rlplanner::net::HttpServerConfig server_config;
  server_config.host = "127.0.0.1";
  server_config.port = 0;
  server_config.num_shards = 1;
  server_config.metrics = metrics;
  server_ = std::make_unique<rlplanner::net::HttpServer>(
      server_config, handler_->AsHandler());
  if (const auto status = server_->Start(); !status.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  threads_ = ThreadsSince(before);
}

ServingStack::~ServingStack() {
  (void)service_->Drain(std::chrono::milliseconds(5000));
  server_->Shutdown();
  service_->Stop();
}

std::map<std::string, double> ScrapeMetrics(std::uint16_t port) {
  std::map<std::string, double> series;
  rlplanner::net::BlockingHttpClient client;
  if (!client.Connect("127.0.0.1", port).ok()) return series;
  auto response = client.Request("GET", "/metrics");
  if (!response.ok() || response.value().status != 200) return series;
  std::istringstream lines(response.value().body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    const std::string name = line.substr(0, space);
    if (name.find('{') != std::string::npos) continue;
    series[name] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return series;
}

LoadGenerator::LoadGenerator(std::uint16_t port, const RequestMix& mix,
                             std::size_t connections, int tamper_every,
                             std::size_t samples_per_connection,
                             std::size_t first_request)
    : port_(port),
      mix_(&mix),
      first_request_(first_request),
      tamper_every_(tamper_every),
      samples_(connections,
               std::vector<WireSample>(samples_per_connection)),
      used_(connections, 0),
      scratch_(connections * samples_per_connection),
      spans_(connections) {
  for (std::size_t c = 0; c < connections; ++c) {
    threads_.emplace_back([this, c] { Client(c); });
  }
}

LoadGenerator::~LoadGenerator() { Stop(); }

void LoadGenerator::Stop() {
  stop_.store(true);
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

void LoadGenerator::RecordFailure(const std::string& error) {
  failed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(errors_mutex_);
  if (errors_.size() < 8) errors_.push_back(error);
}

std::vector<std::string> LoadGenerator::errors() const {
  std::lock_guard<std::mutex> lock(errors_mutex_);
  return errors_;
}

void LoadGenerator::Client(std::size_t connection) {
  const std::vector<BenchRequest>& requests = mix_->requests();
  std::vector<WireSample>& samples = samples_[connection];
  std::size_t& used = used_[connection];
  SpanLog& spans = spans_[connection];
  rlplanner::net::BlockingHttpClient client;
  std::size_t next =
      first_request_ + connection * requests.size() / samples_.size();
  std::uint64_t checked = 0, tamper_cycle = 0;
  Check pending = Check::kPassed;  // the corruption waiting for a response
  ServedPlan served;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (!client.connected() && !client.Connect("127.0.0.1", port_).ok()) {
      attempted_.fetch_add(1);
      RecordFailure("connect failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    const auto index = static_cast<std::uint32_t>(next++ % requests.size());
    const BenchRequest& request = requests[index];
    WireSample sample;
    sample.request = index;
    sample.phase = static_cast<std::uint8_t>(
        phase_.load(std::memory_order_relaxed));
    sample.send_ns = NowNs();
    auto response = client.Request("POST", "/v1/plan", request.body);
    const std::int64_t recv_ns = NowNs();
    attempted_.fetch_add(1, std::memory_order_relaxed);

    std::string error;
    if (!response.ok()) {
      error = "transport: " + response.status().ToString();
      client.Close();
    } else {
      if (response.value().status == 503) rejected_.fetch_add(1);
      if (tamper_every_ > 0 && pending == Check::kPassed &&
          ++checked % static_cast<std::uint64_t>(tamper_every_) == 0) {
        pending = kTamperable[tamper_cycle++ % std::size(kTamperable)];
      }
      CheckResult result =
          CheckResponse(*mix_, request, response.value().status,
                        response.value().body, pending, &served);
      if (result.tampered) {
        const auto k = static_cast<std::size_t>(pending);
        tampered_[k].fetch_add(1);
        if (result.failed == pending) caught_[k].fetch_add(1);
        pending = Check::kPassed;
      }
      error = std::move(result.error);
    }
    sample.ok = error.empty();
    if (sample.ok) {
      sample.latency_ms = static_cast<double>(recv_ns - sample.send_ns) * 1e-6;
      sample.queue_ms = static_cast<float>(served.queue_ms);
      sample.exec_ms = static_cast<float>(served.exec_ms);
    } else {
      sample.latency_ms = std::numeric_limits<double>::infinity();
      RecordFailure(error);
    }
    if (sample.phase == kTracedWindow) {
      // The server reports durations only; the queue and exec children are
      // centred in the wire span, which is all self-time accounting needs.
      const int root = spans.Add("wire", sample.send_ns, recv_ns, -1, index);
      if (sample.ok) {
        const auto queue_ns = static_cast<std::int64_t>(served.queue_ms * 1e6);
        const auto exec_ns = static_cast<std::int64_t>(served.exec_ms * 1e6);
        const std::int64_t slack =
            (recv_ns - sample.send_ns - queue_ns - exec_ns) / 2;
        const std::int64_t queue_start = sample.send_ns + slack;
        spans.Add("serve.queue", queue_start, queue_start + queue_ns, root,
                  index);
        spans.Add("serve.exec", queue_start + queue_ns,
                  queue_start + queue_ns + exec_ns, root, index);
      }
    }
    if (used < samples.size()) {
      samples[used] = sample;
    } else {
      samples.push_back(sample);
    }
    ++used;
  }
}

std::size_t LoadGenerator::MaxSentPerConnection() const {
  return *std::max_element(used_.begin(), used_.end());
}

std::vector<WireSample> LoadGenerator::Samples(Phase phase) const {
  std::vector<WireSample> out;
  for (std::size_t c = 0; c < samples_.size(); ++c) {
    for (std::size_t i = 0; i < used_[c]; ++i) {
      if (samples_[c][i].phase == phase) out.push_back(samples_[c][i]);
    }
  }
  return out;
}

std::uint64_t LoadGenerator::Completed(Phase phase) const {
  std::uint64_t completed = 0;
  for (std::size_t c = 0; c < samples_.size(); ++c) {
    for (std::size_t i = 0; i < used_[c]; ++i) {
      const WireSample& sample = samples_[c][i];
      completed += sample.phase == phase && sample.ok ? 1 : 0;
    }
  }
  return completed;
}

double LoadGenerator::LatencyPercentile(Phase phase, double q) {
  std::size_t n = 0;
  for (std::size_t c = 0; c < samples_.size(); ++c) {
    for (std::size_t i = 0; i < used_[c]; ++i) {
      if (samples_[c][i].phase != phase) continue;
      if (n == scratch_.size()) scratch_.push_back(0.0);
      scratch_[n++] = samples_[c][i].latency_ms;
    }
  }
  if (n == 0) return 0.0;
  // Linear interpolation between the two order statistics around the rank,
  // as Percentile() in layers.cc does.
  const double rank = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto first = scratch_.begin();
  std::nth_element(first, first + lo, first + n);
  const double low = scratch_[lo];
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0 || lo + 1 == n) return low;
  const double high = *std::min_element(first + lo + 1, first + n);
  if (std::isinf(high)) return std::numeric_limits<double>::infinity();
  return low + (high - low) * frac;
}

SpanLog LoadGenerator::TakeSpans() {
  SpanLog merged;
  for (const SpanLog& log : spans_) merged.Append(log);
  return merged;
}

}  // namespace perfbench
