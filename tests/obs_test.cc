// Tests for the observability layer (src/obs/): exactness of the sharded
// counters under concurrent writers, within-bucket-exact histograms, the
// registry's validation and idempotent-registration contract, golden-file
// checks for both exporters (metrics and Chrome traces) and the flight
// recorder's tracez records, ScopedSpan emission, and the trace
// collector's exact-overflow accounting. The
// concurrency tests double as the sanitizer workload for the sharded cells
// and the single-writer trace rings.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/debugz.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/metric.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "obs/training_metrics.h"
#include "util/json.h"
#include "util/status.h"

namespace rlplanner::obs {
namespace {

// ------------------------------------------------------------ counters --

TEST(ObsCounterTest, ConcurrentIncrementsAreExact) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Total(), kThreads * kPerThread);
}

TEST(ObsCounterTest, IncrementByNAndDisabled) {
  Counter counter;
  counter.Increment(41);
  counter.Increment();
  EXPECT_EQ(counter.Total(), 42u);

  Counter disabled(/*enabled=*/false);
  disabled.Increment(1000);
  EXPECT_EQ(disabled.Total(), 0u);
  EXPECT_FALSE(disabled.enabled());
}

TEST(ObsGaugeTest, ConcurrentAddsSumExactly) {
  Gauge gauge;
  gauge.Set(100.0);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) gauge.Add(1.0);
    });
  }
  for (auto& thread : threads) thread.join();
  // Every Add is a CAS loop, and the values are small integers, so the sum
  // is exact in double arithmetic.
  EXPECT_EQ(gauge.Value(), 100.0 + kThreads * kPerThread);
}

// ----------------------------------------------------------- histogram --

TEST(ObsHistogramTest, BucketBoundariesAreConsistent) {
  // Every value must land in a bucket whose inclusive upper bound is >= the
  // value, and (for non-first buckets) whose predecessor's bound is < it —
  // i.e. BucketUpperBound() really is the boundary BucketIndex() uses.
  std::vector<std::uint64_t> probes;
  for (std::uint64_t v = 0; v < 4096; ++v) probes.push_back(v);
  for (int shift = 12; shift < 43; ++shift) {
    const std::uint64_t base = std::uint64_t{1} << shift;
    probes.insert(probes.end(), {base - 1, base, base + 1, base + base / 3});
  }
  probes.push_back((std::uint64_t{1} << 43) - 1);  // top of the range
  for (std::uint64_t value : probes) {
    const int index = Histogram::BucketIndex(value);
    ASSERT_GE(index, 0);
    ASSERT_LT(index, Histogram::kNumBuckets);
    EXPECT_GE(Histogram::BucketUpperBound(index), value) << value;
    if (index > 0) {
      EXPECT_LT(Histogram::BucketUpperBound(index - 1), value) << value;
    }
  }
  // Bounds are strictly increasing across the whole range.
  for (int i = 1; i < Histogram::kNumBuckets; ++i) {
    EXPECT_LT(Histogram::BucketUpperBound(i - 1), Histogram::BucketUpperBound(i));
  }
  // Values past the covered range clamp into the last bucket.
  EXPECT_EQ(Histogram::BucketIndex(std::uint64_t{1} << 43),
            Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(~std::uint64_t{0}),
            Histogram::kNumBuckets - 1);
}

TEST(ObsHistogramTest, QuantileWithinRelativeErrorAndClampedToMax) {
  Histogram histogram;
  for (std::uint64_t v = 1; v <= 1000; ++v) histogram.Record(v);
  EXPECT_EQ(histogram.count(), 1000u);
  EXPECT_EQ(histogram.sum(), 500500u);
  EXPECT_EQ(histogram.Max(), 1000u);
  EXPECT_NEAR(histogram.Mean(), 500.5, 1e-9);
  // 8 sub-buckets per octave bound the relative quantile error by 12.5%.
  EXPECT_NEAR(histogram.Quantile(0.50), 500.0, 0.125 * 500.0);
  EXPECT_NEAR(histogram.Quantile(0.95), 950.0, 0.125 * 950.0);
  // The top quantile may not exceed the exact observed maximum.
  EXPECT_LE(histogram.Quantile(0.999), 1000.0);
  EXPECT_EQ(histogram.Quantile(1.0), 1000.0);
}

TEST(ObsHistogramTest, QuantileMatchesSortedSampleOracle) {
  // Randomized property check against the exact oracle: for any sample, the
  // histogram quantile is the bucket upper bound of the observation the
  // oracle picks — so it is >= the oracle value and within the documented
  // 12.5% relative error (values below kSubBuckets are bucket-exact).
  std::mt19937_64 rng(20260805);
  const double qs[] = {0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0};
  for (int trial = 0; trial < 25; ++trial) {
    Histogram histogram;
    std::vector<std::uint64_t> values;
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 3000);
    values.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Random octave spread: anything from single digits to ~2^40.
      const std::uint64_t value = rng() >> (24 + rng() % 40);
      values.push_back(value);
      histogram.Record(value);
    }
    std::sort(values.begin(), values.end());
    for (const double q : qs) {
      const std::size_t rank = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::ceil(q * static_cast<double>(n))));
      const auto oracle = static_cast<double>(values[rank - 1]);
      const double estimate = histogram.Quantile(q);
      EXPECT_GE(estimate, oracle) << "n=" << n << " q=" << q;
      EXPECT_LE(estimate, oracle * 1.125 + 1e-9) << "n=" << n << " q=" << q;
    }
    // The top quantile is clamped to the exact maximum, not a bucket bound.
    EXPECT_EQ(histogram.Quantile(1.0), static_cast<double>(values.back()));
  }
}

TEST(ObsHistogramTest, ConcurrentRecordsMatchSerialReplayPerBucket) {
  // 8 writers record deterministic per-thread streams; afterwards every
  // bucket count, the total count, and the sum must equal a serial replay
  // of the same stream — the sharded bookkeeping loses nothing.
  Histogram concurrent;
  Histogram serial;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  auto value_of = [](int t, int i) {
    // SplitMix64-ish scramble for a spread of octaves, deterministic.
    std::uint64_t x = static_cast<std::uint64_t>(t) * 0x9e3779b97f4a7c15ull +
                      static_cast<std::uint64_t>(i);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    return x % 1000000;
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&concurrent, t, &value_of] {
      for (int i = 0; i < kPerThread; ++i) concurrent.Record(value_of(t, i));
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) serial.Record(value_of(t, i));
  }
  EXPECT_EQ(concurrent.count(), serial.count());
  EXPECT_EQ(concurrent.sum(), serial.sum());
  EXPECT_EQ(concurrent.Max(), serial.Max());
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    ASSERT_EQ(concurrent.BucketCount(i), serial.BucketCount(i)) << i;
  }
}

TEST(ObsHistogramTest, RecordRoundedClampsNegativeToZero) {
  Histogram histogram;
  histogram.RecordRounded(-3.7);
  histogram.RecordRounded(0.49);
  histogram.RecordRounded(2.51);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.BucketCount(Histogram::BucketIndex(0)), 2u);
  EXPECT_EQ(histogram.BucketCount(Histogram::BucketIndex(3)), 1u);
}

// ------------------------------------------------------------ registry --

TEST(ObsRegistryTest, RegistrationIsIdempotentSamePointer) {
  Registry registry;
  auto first = registry.GetCounter("demo_total", "Demo.", {{"k", "v"}});
  auto second = registry.GetCounter("demo_total", "Demo.", {{"k", "v"}});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());
  // A different label set is a distinct instance.
  auto third = registry.GetCounter("demo_total", "Demo.", {{"k", "w"}});
  ASSERT_TRUE(third.ok());
  EXPECT_NE(first.value(), third.value());
}

TEST(ObsRegistryTest, KindConflictIsInvalidArgument) {
  Registry registry;
  ASSERT_TRUE(registry.GetCounter("demo_total", "Demo.").ok());
  auto conflict = registry.GetGauge("demo_total", "Demo.");
  ASSERT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(ObsRegistryTest, MalformedNamesAndLabelsAreRejected) {
  Registry registry;
  for (const char* name : {"", "1bad", "bad-dash", "bad name", "bad\xc3\xa9"}) {
    auto result = registry.GetCounter(name, "Help.");
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument)
        << name;
  }
  const std::vector<std::vector<Label>> bad_labels = {
      {{"", "v"}},                  // empty key
      {{"1bad", "v"}},              // bad first char
      {{"bad-dash", "v"}},          // bad char
      {{"__reserved", "v"}},        // reserved prefix
      {{"dup", "a"}, {"dup", "b"}}  // duplicate key
  };
  for (const auto& labels : bad_labels) {
    auto result = registry.GetCounter("ok_total", "Help.", labels);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  }
  // Colons are legal in metric names (recording rules), not in label keys.
  EXPECT_TRUE(registry.GetCounter("ns:demo_total", "Help.").ok());
}

TEST(ObsRegistryTest, DisabledRegistryRecordsNothingAndCollectsEmpty) {
  Registry registry(/*enabled=*/false);
  auto counter = registry.GetCounter("demo_total", "Demo.");
  auto histogram = registry.GetHistogram("demo_us", "Demo.");
  ASSERT_TRUE(counter.ok());
  ASSERT_TRUE(histogram.ok());
  counter.value()->Increment(100);
  histogram.value()->Record(7);
  EXPECT_EQ(counter.value()->Total(), 0u);
  EXPECT_EQ(histogram.value()->count(), 0u);
  EXPECT_TRUE(registry.Collect().metrics.empty());
}

TEST(ObsRegistryTest, EnabledRegistryStartsWithBuildInfoAndStartTime) {
  Registry registry;
  const MetricsSnapshot snapshot = registry.Collect();
  bool saw_build_info = false;
  bool saw_start_time = false;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (m.name == "rlplanner_build_info") {
      saw_build_info = true;
      EXPECT_EQ(m.kind, MetricKind::kGauge);
      EXPECT_EQ(m.value, 1.0);  // info pattern: the labels carry the data
      ASSERT_EQ(m.labels.size(), 2u);
      EXPECT_EQ(m.labels[0].key, "build_type");
      EXPECT_EQ(m.labels[0].value, BuildType());
      EXPECT_EQ(m.labels[1].key, "version");
      EXPECT_EQ(m.labels[1].value, kBuildVersion);
    } else if (m.name == "process_start_time_seconds") {
      saw_start_time = true;
      EXPECT_EQ(m.kind, MetricKind::kGauge);
      // A sane Unix timestamp (after 2020), and shared process-wide: a
      // second registry reports the identical value.
      EXPECT_GT(m.value, 1577836800.0);
    }
  }
  EXPECT_TRUE(saw_build_info);
  EXPECT_TRUE(saw_start_time);

  Registry other;
  double first = 0.0, second = 0.0;
  for (const MetricSnapshot& m : registry.Collect().metrics) {
    if (m.name == "process_start_time_seconds") first = m.value;
  }
  for (const MetricSnapshot& m : other.Collect().metrics) {
    if (m.name == "process_start_time_seconds") second = m.value;
  }
  EXPECT_EQ(first, second);
}

TEST(ObsRegistryTest, ConcurrentRegistrationAndWritesAreExact) {
  // Threads race to register the same counter and a per-thread labelled
  // sibling, then hammer both. Registration must converge on one instance
  // per (name, labels) and no increment may be lost.
  Registry registry;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      Counter* shared =
          registry.GetCounter("stress_total", "Shared.").value();
      Counter* mine = registry
                          .GetCounter("stress_by_thread_total", "Per thread.",
                                      {{"thread", std::to_string(t)}})
                          .value();
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        shared->Increment();
        mine->Increment();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const MetricsSnapshot snapshot = registry.Collect();
  std::uint64_t shared_total = 0;
  std::uint64_t labelled_instances = 0;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (m.name == "stress_total") {
      shared_total = static_cast<std::uint64_t>(m.value);
    } else if (m.name == "stress_by_thread_total") {
      ++labelled_instances;
      EXPECT_EQ(static_cast<std::uint64_t>(m.value), kPerThread);
    }
  }
  EXPECT_EQ(shared_total, kThreads * kPerThread);
  EXPECT_EQ(labelled_instances, static_cast<std::uint64_t>(kThreads));
}

// ----------------------------------------------------------- exporters --

// One registry exercising every exporter feature: several label sets under
// one name, label-value escaping, a gauge with a fractional value, and a
// histogram with known buckets. The registry's two default metrics are part
// of the golden output; process_start_time_seconds is re-Get (registration
// is idempotent) and pinned so the goldens are deterministic.
void FillGoldenRegistry(Registry& registry) {
  registry
      .GetGauge("process_start_time_seconds",
                "Unix time the process started, in seconds.")
      .value()
      ->Set(1234567890.5);
  Counter* escaped = registry
                         .GetCounter("demo_requests_total",
                                     "Total \"demo\" requests.",
                                     {{"path", "a\\b\"c\nd"}})
                         .value();
  escaped->Increment(3);
  registry
      .GetCounter("demo_requests_total", "Total \"demo\" requests.",
                  {{"path", "plain"}})
      .value()
      ->Increment();
  registry.GetGauge("demo_queue_depth", "Current queue depth.")
      .value()
      ->Set(2.5);
  Histogram* histogram =
      registry.GetHistogram("demo_latency_us", "Demo latency.").value();
  histogram->Record(1);
  histogram->Record(2);
  histogram->Record(2);
  histogram->Record(250);  // octave 4, bucket upper bound 255
}

TEST(ObsExportTest, PrometheusTextGolden) {
  Registry registry;
  FillGoldenRegistry(registry);
  const std::string expected =
      "# HELP demo_latency_us Demo latency.\n"
      "# TYPE demo_latency_us histogram\n"
      "demo_latency_us_bucket{le=\"1\"} 1\n"
      "demo_latency_us_bucket{le=\"2\"} 3\n"
      "demo_latency_us_bucket{le=\"255\"} 4\n"
      "demo_latency_us_bucket{le=\"+Inf\"} 4\n"
      "demo_latency_us_sum 255\n"
      "demo_latency_us_count 4\n"
      "# HELP demo_queue_depth Current queue depth.\n"
      "# TYPE demo_queue_depth gauge\n"
      "demo_queue_depth 2.5\n"
      "# HELP demo_requests_total Total \"demo\" requests.\n"
      "# TYPE demo_requests_total counter\n"
      "demo_requests_total{path=\"a\\\\b\\\"c\\nd\"} 3\n"
      "demo_requests_total{path=\"plain\"} 1\n"
      "# HELP process_start_time_seconds Unix time the process started, in "
      "seconds.\n"
      "# TYPE process_start_time_seconds gauge\n"
      "process_start_time_seconds 1234567890.5\n"
      "# HELP rlplanner_build_info Build metadata; the value is always 1 "
      "(Prometheus info pattern).\n"
      "# TYPE rlplanner_build_info gauge\n"
      "rlplanner_build_info{build_type=\"" +
      std::string(BuildType()) + "\",version=\"" + kBuildVersion +
      "\"} 1\n";
  EXPECT_EQ(ToPrometheusText(registry.Collect()), expected);
}

TEST(ObsExportTest, JsonGolden) {
  Registry registry;
  FillGoldenRegistry(registry);
  const std::string expected =
      "{\"metrics\": ["
      "{\"name\": \"demo_latency_us\", \"kind\": \"histogram\", "
      "\"labels\": {}, \"count\": 4, \"sum\": 255, \"max\": 250, "
      "\"mean\": 63.75, \"p50\": 2, \"p95\": 250, \"p99\": 250, "
      "\"buckets\": [{\"le\": 1, \"count\": 1}, {\"le\": 2, \"count\": 3}, "
      "{\"le\": 255, \"count\": 4}]}, "
      "{\"name\": \"demo_queue_depth\", \"kind\": \"gauge\", "
      "\"labels\": {}, \"value\": 2.5}, "
      "{\"name\": \"demo_requests_total\", \"kind\": \"counter\", "
      "\"labels\": {\"path\": \"a\\\\b\\\"c\\nd\"}, \"value\": 3}, "
      "{\"name\": \"demo_requests_total\", \"kind\": \"counter\", "
      "\"labels\": {\"path\": \"plain\"}, \"value\": 1}, "
      "{\"name\": \"process_start_time_seconds\", \"kind\": \"gauge\", "
      "\"labels\": {}, \"value\": 1234567890.5}, "
      "{\"name\": \"rlplanner_build_info\", \"kind\": \"gauge\", "
      "\"labels\": {\"build_type\": \"" +
      std::string(BuildType()) + "\", \"version\": \"" + kBuildVersion +
      "\"}, \"value\": 1}"
      "]}";
  EXPECT_EQ(ToJson(registry.Collect()), expected);
}

TEST(ObsExportTest, FormatMetricValueRoundTrips) {
  EXPECT_EQ(FormatMetricValue(0.0), "0");
  EXPECT_EQ(FormatMetricValue(42.0), "42");
  EXPECT_EQ(FormatMetricValue(-7.0), "-7");
  EXPECT_EQ(FormatMetricValue(2.5), "2.5");
  EXPECT_EQ(FormatMetricValue(0.1), "0.1");
  const double awkward = 1.0 / 3.0;
  EXPECT_EQ(std::strtod(FormatMetricValue(awkward).c_str(), nullptr),
            awkward);
}

// Every branch of the one JSON string escaper the exporters, the wire
// error bodies and the fleet status document share.
TEST(ObsExportTest, JsonEscapePinsEveryBranch) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape("a\rb"), "a\\rb");
  EXPECT_EQ(JsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(JsonEscape("\x01"), "\\u0001");
  EXPECT_EQ(JsonEscape("\x1f"), "\\u001f");
  EXPECT_EQ(JsonEscape(std::string_view("a\0b", 3)), "a\\u0000b");
  EXPECT_EQ(JsonEscape(" "), " ");  // 0x20 is the first byte left as is
  // UTF-8 bytes (here U+00E9, 0xC3 0xA9) pass through unchanged.
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
}

// --------------------------------------------------------------- spans --

TEST(ObsSpanTest, NullCollectorIsANoOp) {
  ScopedSpan span(nullptr, "quiet");
  EXPECT_FALSE(span.traced());
  span.AddArg("status", "ok");  // dropped without a collector
}

TEST(ObsSpanTest, AttachedCollectorReceivesSpanEventWithArgs) {
  TraceCollector trace;
  {
    ScopedSpan span(&trace, "plan");
    EXPECT_TRUE(span.traced());
    span.AddArg("version", std::uint64_t{7});
    span.AddArg("status", "ok");
  }
  EXPECT_EQ(trace.emitted_total(), 1u);
  const std::string json = trace.ToChromeTrace();
  EXPECT_NE(json.find("\"name\": \"plan\""), std::string::npos);
  EXPECT_NE(json.find("\"version\": \"7\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
}

// --------------------------------------------------------------- traces --

// An event at fixed nanosecond offsets from the collector's epoch, so the
// export is fully deterministic.
TraceEvent EventAt(const TraceCollector& trace, const char* name,
                   std::uint64_t begin_ns, std::uint64_t end_ns) {
  return TraceEvent{.name = name,
                    .begin = trace.epoch() + std::chrono::nanoseconds(begin_ns),
                    .end = trace.epoch() + std::chrono::nanoseconds(end_ns)};
}

TEST(ObsTraceTest, ChromeTraceGoldenPinsFullJson) {
  // Fixed timestamps make the whole export deterministic, so the golden
  // pins everything: the process/thread metadata records, event ordering,
  // µs conversion, arg rendering, and JSON escaping in names and arg
  // values.
  TraceCollector trace;
  trace.SetCurrentThreadName("main");
  trace.Emit(EventAt(trace, "train_round", 1000, 5000)
                 .AddArg("round", "0")
                 .AddArg("safe", "true"));
  trace.Emit(EventAt(trace, "train_merge", 2500, 3500).AddArg("round", "0"));
  trace.Emit(
      EventAt(trace, "note \"q\"\\", 4000, 4000).AddArg("msg", "line\nbreak"));
  const std::string expected =
      "{\"traceEvents\": [\n"
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"rlplanner\"}},\n"
      "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"main\"}},\n"
      "{\"name\": \"train_round\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, "
      "\"ts\": 1, \"dur\": 4, \"args\": {\"round\": \"0\", "
      "\"safe\": \"true\"}},\n"
      "{\"name\": \"train_merge\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, "
      "\"ts\": 2.5, \"dur\": 1, \"args\": {\"round\": \"0\"}},\n"
      "{\"name\": \"note \\\"q\\\"\\\\\", \"ph\": \"X\", \"pid\": 1, "
      "\"tid\": 0, \"ts\": 4, \"dur\": 0, \"args\": "
      "{\"msg\": \"line\\nbreak\"}}\n"
      "],\n"
      "\"displayTimeUnit\": \"ms\",\n"
      "\"otherData\": {\"trace_events_emitted\": 3, "
      "\"trace_events_dropped\": 0}}";
  EXPECT_EQ(trace.ToChromeTrace(), expected);
  EXPECT_EQ(trace.emitted_total(), 3u);
  EXPECT_EQ(trace.dropped_total(), 0u);
}

TEST(ObsTraceTest, TraceIdIsTheFirstArgAndArgsReadBack) {
  TraceCollector trace;
  TraceEvent event = EventAt(trace, "serve_plan", 0, 2000);
  event.trace_id = 42;
  event.AddArg("status", "ok").AddArg("version", std::uint64_t{3});
  EXPECT_EQ(event.Arg("version"), "3");
  EXPECT_EQ(event.Arg("status"), "ok");
  EXPECT_EQ(event.Arg("absent"), "");
  trace.Emit(event);
  EXPECT_NE(trace.ToChromeTrace().find(
                "\"args\": {\"trace_id\": \"42\", \"status\": \"ok\", "
                "\"version\": \"3\"}"),
            std::string::npos);
}

TEST(ObsTraceTest, ArgValuesTruncateAndExtraArgsAreDropped) {
  TraceCollector trace;
  const std::string long_value(3 * kTraceArgValueCap, 'x');
  trace.Emit(EventAt(trace, "ev", 0, 1)
                 .AddArg("k", long_value)
                 .AddArg("a1", "1")
                 .AddArg("a2", "2")
                 .AddArg("a3", "3")
                 .AddArg("beyond_cap", "dropped"));
  const std::string json = trace.ToChromeTrace();
  // Values are cut at the fixed cap (kTraceArgValueCap - 1 payload chars)...
  EXPECT_NE(json.find("\"k\": \"" + std::string(kTraceArgValueCap - 1, 'x') +
                      "\""),
            std::string::npos);
  EXPECT_EQ(json.find(std::string(kTraceArgValueCap, 'x')),
            std::string::npos);
  // ...and args past kMaxTraceArgs are silently ignored.
  EXPECT_NE(json.find("\"a3\": \"3\""), std::string::npos);
  EXPECT_EQ(json.find("beyond_cap"), std::string::npos);
}

TEST(ObsTraceTest, OverflowAccountingIsExactAcrossThreads) {
  // Four threads hammer a collector whose budget covers exactly two rings:
  // two threads fill 128 events each, the other two get zero-capacity
  // buffers and drop everything. Every attempt must be accounted for, both
  // in the collector and in the registry counter.
  Registry registry;
  TraceCollectorConfig config;
  config.events_per_thread = 128;
  config.memory_budget_bytes = 2 * 128 * sizeof(TraceEvent);
  config.metrics = &registry;
  TraceCollector trace(config);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        trace.Emit(EventAt(trace, "ev", i, i + 1).AddArg("i", "x"));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const std::uint64_t attempted = kThreads * kPerThread;
  EXPECT_EQ(trace.emitted_total(), 2u * 128u);
  EXPECT_EQ(trace.dropped_total(), attempted - 2u * 128u);
  EXPECT_EQ(trace.emitted_total() + trace.dropped_total(), attempted);
  std::uint64_t counter = 0;
  for (const MetricSnapshot& m : registry.Collect().metrics) {
    if (m.name == "trace_events_dropped_total") {
      counter = static_cast<std::uint64_t>(m.value);
    }
  }
  EXPECT_EQ(counter, trace.dropped_total());
  // The export agrees with the accessors.
  const std::string json = trace.ToChromeTrace();
  EXPECT_NE(json.find("\"trace_events_emitted\": 256"), std::string::npos);
  EXPECT_NE(json.find("\"trace_events_dropped\": " +
                      std::to_string(attempted - 256)),
            std::string::npos);
}

TEST(ObsTraceTest, ConcurrentEmitAndExportAreCoherent) {
  // The exporter may run while emitters are live: it must only see fully
  // published events (acquire/release on the ring size) and never tear.
  // This is the sanitizer workload for the single-writer rings.
  TraceCollectorConfig config;
  config.events_per_thread = 512;
  TraceCollector trace(config);
  std::atomic<bool> stop{false};
  std::thread reader([&trace, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string json = trace.ToChromeTrace();
      ASSERT_NE(json.find("\"traceEvents\""), std::string::npos);
    }
  });
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&trace] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        trace.Emit(EventAt(trace, "ev", i, i + 1).AddArg("status", "ok"));
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(trace.emitted_total() + trace.dropped_total(),
            kThreads * kPerThread);
  EXPECT_EQ(trace.emitted_total(), 4u * 512u);
}

// ---------------------------------------------------- training metrics --

TEST(ObsTrainingMetricsTest, NullRegistryRecordingIsANoOp) {
  TrainingMetrics metrics(nullptr);
  metrics.RecordStep(0.5);
  metrics.RecordEpisode();
  metrics.RecordMergeBarrierWait(10);
  TrainingRoundSample sample;
  sample.round = 1;
  sample.episodes = 20;
  sample.safe = false;
  metrics.RecordRound(sample);
  EXPECT_EQ(metrics.registry(), nullptr);
  EXPECT_TRUE(metrics.rounds().empty());
}

TEST(ObsTrainingMetricsTest, RecordsIntoRegistryAndRendersRoundsJson) {
  Registry registry;
  TrainingMetrics metrics(&registry);
  metrics.RecordStep(-0.25);
  metrics.RecordStep(0.5);
  metrics.RecordEpisode();
  TrainingRoundSample sample;
  sample.round = 1;
  sample.episodes = 1;
  sample.seconds = 0.5;
  sample.episodes_per_sec = 2.0;
  sample.epsilon = 0.125;
  sample.safe = true;
  metrics.RecordRound(sample);

  std::uint64_t steps = 0, episodes = 0, rounds = 0, violations = 0;
  std::uint64_t td_count = 0;
  for (const MetricSnapshot& m : registry.Collect().metrics) {
    if (m.name == "train_steps_total") {
      steps = static_cast<std::uint64_t>(m.value);
    } else if (m.name == "train_episodes_total") {
      episodes = static_cast<std::uint64_t>(m.value);
    } else if (m.name == "train_rounds_total") {
      rounds = static_cast<std::uint64_t>(m.value);
    } else if (m.name == "train_round_violations_total") {
      violations = static_cast<std::uint64_t>(m.value);
    } else if (m.name == "train_td_error_abs_micro") {
      td_count = m.count;
    }
  }
  EXPECT_EQ(steps, 2u);
  EXPECT_EQ(episodes, 1u);
  EXPECT_EQ(rounds, 1u);
  EXPECT_EQ(violations, 0u);
  EXPECT_EQ(td_count, 2u);  // |−0.25|·1e6 and |0.5|·1e6

  EXPECT_EQ(TrainingRoundsJsonArray(metrics.rounds()),
            "[{\"round\": 1, \"episodes\": 1, \"seconds\": 0.5, "
            "\"episodes_per_sec\": 2, \"epsilon\": 0.125, "
            "\"safe\": true}]");
}

// --------------------------------------------------------- exemplars --

TEST(ObsExemplarTest, CapturesLatestTracedObservationPerBucket) {
  Histogram histogram;
  histogram.EnableExemplars();
  EXPECT_TRUE(histogram.exemplars_enabled());
  histogram.Record(100, /*trace_id=*/7, /*version=*/3);
  histogram.Record(101, /*trace_id=*/8, /*version=*/4);  // same bucket: wins
  histogram.Record(1u << 20, /*trace_id=*/9, /*version=*/5);

  const std::vector<HistogramExemplar> exemplars =
      histogram.CollectExemplars();
  ASSERT_EQ(exemplars.size(), 2u);
  EXPECT_EQ(exemplars[0].bucket, Histogram::BucketIndex(101));
  EXPECT_EQ(exemplars[0].value, 101u);
  EXPECT_EQ(exemplars[0].trace_id, 8u);
  EXPECT_EQ(exemplars[0].version, 4u);
  EXPECT_EQ(exemplars[1].bucket, Histogram::BucketIndex(1u << 20));
  EXPECT_EQ(exemplars[1].trace_id, 9u);
}

TEST(ObsExemplarTest, UntracedOrDisabledObservationsCaptureNothing) {
  Histogram histogram;
  histogram.Record(100, /*trace_id=*/1, /*version=*/1);  // not enabled yet
  histogram.EnableExemplars();
  histogram.EnableExemplars();                            // idempotent
  histogram.Record(100, /*trace_id=*/0, /*version=*/1);   // trace_id 0 skipped
  EXPECT_TRUE(histogram.CollectExemplars().empty());
  EXPECT_EQ(histogram.count(), 2u);  // plain recording still happened
}

TEST(ObsExemplarTest, ConcurrentRecordAndCollectNeverTears) {
  Histogram histogram;
  histogram.EnableExemplars();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&histogram, &stop, t] {
      std::uint64_t i = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        // All writers target the same bucket; value/trace/version move in
        // lockstep so a torn read is detectable below.
        const std::uint64_t tick = i++ * 4 + static_cast<std::uint64_t>(t);
        histogram.Record(50 + (tick % 8), tick, tick);
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    for (const HistogramExemplar& e : histogram.CollectExemplars()) {
      EXPECT_EQ(e.trace_id, e.version) << "torn exemplar read";
    }
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
}

TEST(ObsExportTest, OpenMetricsRendersExemplarsAndEof) {
  Registry registry;
  auto latency = registry.GetHistogram("rpc_latency_us", "Request latency.");
  ASSERT_TRUE(latency.ok());
  latency.value()->EnableExemplars();
  latency.value()->Record(100, /*trace_id=*/42, /*version=*/7);
  auto requests = registry.GetCounter("rpc_requests_total", "Requests.");
  ASSERT_TRUE(requests.ok());
  requests.value()->Increment();

  const std::string text = ToOpenMetricsText(registry.Collect());
  // Counter families drop the `_total` suffix in TYPE/HELP lines only.
  EXPECT_NE(text.find("# TYPE rpc_requests counter\n"), std::string::npos);
  EXPECT_NE(text.find("rpc_requests_total 1\n"), std::string::npos);
  // The traced bucket carries the exemplar in OpenMetrics syntax.
  const std::uint64_t bound =
      Histogram::BucketUpperBound(Histogram::BucketIndex(100));
  const std::string exemplar_line =
      "rpc_latency_us_bucket{le=\"" + std::to_string(bound) +
      "\"} 1 # {trace_id=\"42\",policy_version=\"7\"} 100\n";
  EXPECT_NE(text.find(exemplar_line), std::string::npos) << text;
  // +Inf bucket has no exemplar, and the exposition is EOF-terminated.
  EXPECT_NE(text.find("rpc_latency_us_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_EQ(text.compare(text.size() - 6, 6, "# EOF\n"), 0);
}

// ---------------------------------------------------------- profiler --

TEST(ObsProfilerTest, DisabledProfilerIsInert) {
  ProfilerConfig config;  // enabled = false
  Profiler profiler(config);
  EXPECT_FALSE(profiler.enabled());
  EXPECT_TRUE(profiler.Start().ok());
  EXPECT_FALSE(profiler.running());
  profiler.RecordNow();
  EXPECT_EQ(profiler.samples_total(), 0u);
  const std::string collapsed = profiler.Collapsed(0.0);
  EXPECT_NE(collapsed.find("# profile: cpu_samples\n"), std::string::npos);
  EXPECT_NE(collapsed.find("# samples: 0\n"), std::string::npos);
  profiler.Stop();
}

TEST(ObsProfilerTest, RecordNowProducesCollapsedStacks) {
  ProfilerConfig config;
  config.enabled = true;
  Profiler profiler(config);
  for (int i = 0; i < 5; ++i) profiler.RecordNow();
  EXPECT_EQ(profiler.samples_total(), 5u);

  const std::string collapsed = profiler.Collapsed(/*window_seconds=*/0.0);
  EXPECT_NE(collapsed.find("# profile: cpu_samples\n"), std::string::npos);
  EXPECT_NE(collapsed.find("# sample_hz: 97\n"), std::string::npos);
  EXPECT_NE(collapsed.find("# samples: 5\n"), std::string::npos);
  // At least one non-header "frames... count" line, collapsed-stack shaped.
  bool found_stack = false;
  std::size_t pos = 0;
  while (pos < collapsed.size()) {
    const std::size_t eol = collapsed.find('\n', pos);
    const std::string line = collapsed.substr(pos, eol - pos);
    pos = (eol == std::string::npos) ? collapsed.size() : eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::atoi(line.c_str() + space + 1), 0) << line;
    found_stack = true;
  }
  EXPECT_TRUE(found_stack) << collapsed;
  // A zero-width window keeps nothing but the headers stay shape-stable.
  const std::string empty_window = profiler.Collapsed(1e-9);
  EXPECT_NE(empty_window.find("# samples_total: 5\n"), std::string::npos);

  auto parsed = util::json::Parse(profiler.StatusJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const util::json::Value& status = parsed.value();
  EXPECT_TRUE(status.Find("enabled")->AsBool());
  EXPECT_EQ(status.Find("samples_total")->AsNumber(), 5.0);
}

TEST(ObsProfilerTest, SecondRunningProfilerIsRejected) {
  ProfilerConfig config;
  config.enabled = true;
  Profiler first(config);
  ASSERT_TRUE(first.Start().ok());
  EXPECT_TRUE(first.running());
  Profiler second(config);
  const util::Status status = second.Start();
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_FALSE(second.running());
  first.Stop();
  EXPECT_FALSE(first.running());
  first.Stop();  // idempotent
}

// The TSan workload for the profiler ring: writers sampling through the
// seqlock slots while a reader symbolizes and renders concurrently.
TEST(ObsProfilerTest, ConcurrentSamplingAndExport) {
  ProfilerConfig config;
  config.enabled = true;
  config.ring_capacity = 64;  // small ring: wraps many times under the test
  Profiler profiler(config);
  std::atomic<bool> stop{false};
  std::vector<std::thread> samplers;
  for (int t = 0; t < 4; ++t) {
    samplers.emplace_back([&profiler, &stop] {
      while (!stop.load(std::memory_order_relaxed)) profiler.RecordNow();
    });
  }
  // Make sure the exports below genuinely race with live sampling.
  while (profiler.samples_total() == 0) std::this_thread::yield();
  for (int round = 0; round < 50; ++round) {
    const std::string collapsed = profiler.Collapsed(0.0);
    EXPECT_NE(collapsed.find("# profile: cpu_samples\n"), std::string::npos);
  }
  stop.store(true);
  for (std::thread& s : samplers) s.join();
  EXPECT_GT(profiler.samples_total(), 0u);
}

#if defined(__SANITIZE_THREAD__)
#define RLPLANNER_TEST_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RLPLANNER_TEST_UNDER_TSAN 1
#endif
#endif

// SIGPROF-driven sampling calls backtrace() from a signal handler — fine in
// production, but TSan's signal interception makes the timing too flaky to
// assert on, so the end-to-end timer test runs in the non-TSan lanes only
// (RecordNow() above covers the ring under TSan).
#if !defined(RLPLANNER_TEST_UNDER_TSAN)
TEST(ObsProfilerTest, SigprofSamplingCapturesBusyLoop) {
  ProfilerConfig config;
  config.enabled = true;
  config.sample_hz = 997;  // fast so a short spin is enough
  Profiler profiler(config);
  ASSERT_TRUE(profiler.Start().ok());
  // Burn CPU until samples arrive (ITIMER_PROF counts CPU time, not wall).
  volatile double sink = 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (profiler.samples_total() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  }
  profiler.Stop();
  EXPECT_GT(profiler.samples_total(), 0u) << "no SIGPROF samples in 5s of spin";
}
#endif

// ---------------------------------------------------- flight recorder --

// A served request's stage events: a 0.25 ms queue wait, then a plan by
// version 1 that ends `total_ms` after admission.
std::vector<TraceEvent> ServedStages(std::uint64_t trace_id,
                                     double total_ms) {
  const auto at = [](double ms) {
    return std::chrono::steady_clock::time_point{} +
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double, std::milli>(ms));
  };
  std::vector<TraceEvent> events(2);
  events[0] = {.name = "serve_queue_wait", .trace_id = trace_id,
               .begin = at(0.0), .end = at(0.25)};
  events[0].AddArg("status", "ok");
  events[1] = {.name = "serve_plan", .trace_id = trace_id, .begin = at(0.25),
               .end = at(total_ms)};
  events[1].AddArg("status", "ok").AddArg("version", std::uint64_t{1});
  return events;
}

TEST(ObsFlightRecorderTest, DisabledRecorderRetainsNothing) {
  FlightRecorder recorder(FlightRecorderConfig{});  // slo_ms = 0 → disabled
  EXPECT_FALSE(recorder.enabled());
  recorder.Complete("default", ServedStages(1, 100.0));  // a no-op
  EXPECT_EQ(recorder.requests_observed(), 0u);
  EXPECT_EQ(recorder.slo_violations(), 0u);
}

TEST(ObsFlightRecorderTest, ReservoirsKeepSlowestAndRecent) {
  constexpr std::size_t kSlowest = FlightRecorder::kKeepSlowest;
  constexpr std::size_t kRecent = FlightRecorder::kKeepRecent;
  FlightRecorderConfig config;
  config.slo_ms = 10.0;
  FlightRecorder recorder(config);
  ASSERT_TRUE(recorder.enabled());
  recorder.Complete("default", ServedStages(1, 5.0));  // under SLO: kept out
  // Violators 2..last: even ids are slow and grow slower, odd ids sit just
  // over the SLO. Once "slowest" is full, an even arrival evicts its fastest
  // record and an odd one is turned away; both age through "recent".
  const std::uint64_t last = 2 * kSlowest + 9;
  static_assert(2 * kSlowest + 9 > kRecent);
  for (std::uint64_t id = 2; id <= last; ++id) {
    const double total_ms = id % 2 == 0 ? 100.0 + static_cast<double>(id)
                                        : 11.0;
    recorder.Complete("default", ServedStages(id, total_ms));
  }
  EXPECT_EQ(recorder.requests_observed(), last);
  EXPECT_EQ(recorder.slo_violations(), last - 1);

  auto parsed = util::json::Parse(recorder.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const util::json::Value& root = parsed.value();
  const auto& slowest = root.Find("slowest")->AsArray();
  ASSERT_EQ(slowest.size(), kSlowest);
  const std::uint64_t slowest_id = last - last % 2;
  for (std::size_t i = 0; i < kSlowest; ++i) {  // slowest first
    EXPECT_EQ(slowest[i].Find("trace_id")->AsNumber(),
              static_cast<double>(slowest_id - 2 * i));
  }
  const auto& recent = root.Find("recent")->AsArray();
  ASSERT_EQ(recent.size(), kRecent);
  for (std::size_t i = 0; i < kRecent; ++i) {  // newest first
    EXPECT_EQ(recent[i].Find("trace_id")->AsNumber(),
              static_cast<double>(last - i));
  }
  // Span breakdowns survive into the export.
  const auto& spans = slowest[0].Find("spans")->AsArray();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].Find("name")->AsString(), "serve_queue_wait");
  EXPECT_EQ(spans[1].Find("name")->AsString(), "serve_plan");
}

TEST(ObsFlightRecorderTest, ActiveTableTracksInFlight) {
  FlightRecorderConfig config;
  config.slo_ms = 10.0;
  FlightRecorder recorder(config);
  recorder.BeginActive(11, "default", /*start_ns=*/1);
  recorder.BeginActive(12, "canary", /*start_ns=*/2);
  auto during = util::json::Parse(recorder.ToJson());
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(during.value().Find("active")->AsArray().size(), 2u);
  // Completing a request ends its entry; completing one that never became
  // active (a queue-rejected request) leaves the table alone.
  recorder.Complete("default", ServedStages(11, 1.0));
  recorder.Complete("default", ServedStages(13, 1.0));
  auto one_left = util::json::Parse(recorder.ToJson());
  ASSERT_TRUE(one_left.ok());
  const auto& active = one_left.value().Find("active")->AsArray();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].Find("trace_id")->AsNumber(), 12.0);
  recorder.Complete("canary", ServedStages(12, 1.0));
  auto after = util::json::Parse(recorder.ToJson());
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().Find("active")->AsArray().empty());
}

TEST(ObsFlightRecorderTest, ToJsonGoldenPinsRecordJson) {
  // Timings that are exact in binary and no active entries (whose ages read
  // the clock) make the whole page deterministic, so the golden pins the
  // record layout /debug/tracez serves: field order, number formatting,
  // escaping, and the order of both reservoirs.
  FlightRecorderConfig config;
  config.slo_ms = 10.0;
  FlightRecorder recorder(config);
  const auto at = [](std::int64_t us) {
    return std::chrono::steady_clock::time_point{} +
           std::chrono::microseconds(us);
  };
  // Request 7: served by version 3 after a 0.25 ms queue wait.
  std::vector<TraceEvent> served(2);
  served[0] = {.name = "serve_queue_wait", .trace_id = 7, .begin = at(0),
               .end = at(250)};
  served[0].AddArg("status", "ok");
  served[1] = {.name = "serve_plan", .trace_id = 7, .begin = at(250),
               .end = at(12750)};
  served[1].AddArg("status", "ok").AddArg("version", std::uint64_t{3});
  recorder.Complete("default", served);
  // Request 8: under the SLO, so observed but not retained.
  std::vector<TraceEvent> fast = served;
  for (TraceEvent& event : fast) event.trace_id = 8;
  fast[1].end = at(1750);
  recorder.Complete("default", fast);
  // Request 9: expired after 20 ms in the queue; never planned.
  const TraceEvent expired[] = {
      TraceEvent{.name = "serve_queue_wait", .trace_id = 9, .begin = at(0),
                 .end = at(20000)}
          .AddArg("status", "deadline_exceeded")};
  recorder.Complete("seg\"1", expired);

  const std::string served_json =
      "{\"trace_id\": 7, \"policy_version\": 3, \"slot\": \"default\", "
      "\"status\": \"ok\", \"queue_ms\": 0.25, \"exec_ms\": 12.5, "
      "\"total_ms\": 12.75, \"spans\": ["
      "{\"name\": \"serve_queue_wait\", \"start_ms\": 0, "
      "\"duration_ms\": 0.25}, "
      "{\"name\": \"serve_plan\", \"start_ms\": 0.25, "
      "\"duration_ms\": 12.5}]}";
  const std::string expired_json =
      "{\"trace_id\": 9, \"policy_version\": 0, \"slot\": \"seg\\\"1\", "
      "\"status\": \"deadline_exceeded\", \"queue_ms\": 20, \"exec_ms\": 0, "
      "\"total_ms\": 20, \"spans\": ["
      "{\"name\": \"serve_queue_wait\", \"start_ms\": 0, "
      "\"duration_ms\": 20}]}";
  const std::string expected =
      "{\"enabled\": true, \"slo_ms\": 10, \"requests_observed\": 3, "
      "\"slo_violations\": 2, \"active\": [], \"slowest\": [" +
      expired_json + ", " + served_json + "], \"recent\": [" + expired_json +
      ", " + served_json + "]}";
  EXPECT_EQ(recorder.ToJson(), expected);
}

// ------------------------------------------------------- debugz pages --

TEST(ObsDebugzTest, StatuszJsonShape) {
  ProfilerConfig profiler_config;
  profiler_config.enabled = true;
  Profiler profiler(profiler_config);
  FlightRecorderConfig recorder_config;
  recorder_config.slo_ms = 25.0;
  FlightRecorder recorder(recorder_config);
  const std::vector<StatuszSection> sections = {
      {"serve", "{\"completed\": 3}"},
      {"fleet", "{\"policies\": 2}"},
  };
  auto parsed = util::json::Parse(StatuszJson(&profiler, &recorder, sections));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const util::json::Value& root = parsed.value();
  EXPECT_EQ(root.Find("build")->Find("version")->AsString(), kBuildVersion);
  EXPECT_GE(root.Find("uptime_seconds")->AsNumber(), 0.0);
  EXPECT_TRUE(root.Find("profiler")->Find("enabled")->AsBool());
  EXPECT_EQ(root.Find("flight_recorder")->Find("slo_ms")->AsNumber(), 25.0);
  EXPECT_EQ(root.Find("serve")->Find("completed")->AsNumber(), 3.0);
  EXPECT_EQ(root.Find("fleet")->Find("policies")->AsNumber(), 2.0);
  // Absent subsystems export as null, not as missing keys.
  auto bare = util::json::Parse(StatuszJson(nullptr, nullptr, {}));
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare.value().Find("profiler")->is_null());
  EXPECT_TRUE(bare.value().Find("flight_recorder")->is_null());
}

TEST(ObsDebugzTest, TracezJsonMergesExemplars) {
  FlightRecorderConfig config;
  config.slo_ms = 10.0;
  FlightRecorder recorder(config);
  recorder.Complete("default", ServedStages(42, 30.0));

  Registry registry;
  auto latency = registry.GetHistogram("serve_request_latency_us",
                                       "Request latency.");
  ASSERT_TRUE(latency.ok());
  latency.value()->EnableExemplars();
  latency.value()->Record(30000, /*trace_id=*/42, /*version=*/1);

  auto parsed = util::json::Parse(TracezJson(&recorder, registry.Collect()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const util::json::Value& root = parsed.value();
  const auto& slowest =
      root.Find("flight_recorder")->Find("slowest")->AsArray();
  ASSERT_EQ(slowest.size(), 1u);
  EXPECT_EQ(slowest[0].Find("trace_id")->AsNumber(), 42.0);
  const auto& exemplars = root.Find("exemplars")->AsArray();
  ASSERT_EQ(exemplars.size(), 1u);
  EXPECT_EQ(exemplars[0].Find("metric")->AsString(),
            "serve_request_latency_us");
  EXPECT_EQ(exemplars[0].Find("trace_id")->AsNumber(), 42.0);
  EXPECT_EQ(exemplars[0].Find("value")->AsNumber(), 30000.0);
  // A null recorder still yields a parseable page with empty reservoirs.
  auto bare = util::json::Parse(TracezJson(nullptr, MetricsSnapshot{}));
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare.value()
                  .Find("flight_recorder")
                  ->Find("slowest")
                  ->AsArray()
                  .empty());
}

}  // namespace
}  // namespace rlplanner::obs
