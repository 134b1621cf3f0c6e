// Unit tests for the utility substrate: Status/Result, DynamicBitset, Rng,
// string helpers, CSV, the ASCII table renderer, HOST:PORT parsing, and the
// strict JSON reader.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "util/bitset.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace rlplanner::util {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, AllCodeNamesDistinct) {
  std::set<std::string> names;
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kAlreadyExists, StatusCode::kInternal,
        StatusCode::kUnimplemented}) {
    names.insert(StatusCodeName(code));
  }
  EXPECT_EQ(names.size(), 8u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(result.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::NotFound("missing"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(BitsetTest, SetTestCount) {
  DynamicBitset bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_TRUE(bits.None());
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(129));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_EQ(bits.Count(), 3u);
  bits.Set(64, false);
  EXPECT_EQ(bits.Count(), 2u);
}

TEST(BitsetTest, FromBitsMatchesToString) {
  DynamicBitset bits = DynamicBitset::FromBits({1, 0, 1, 1, 0});
  EXPECT_EQ(bits.ToString(), "10110");
  EXPECT_EQ(bits.Count(), 3u);
}

TEST(BitsetTest, BitwiseOps) {
  DynamicBitset a = DynamicBitset::FromBits({1, 1, 0, 0});
  DynamicBitset b = DynamicBitset::FromBits({0, 1, 1, 0});
  DynamicBitset or_ab = a;
  or_ab |= b;
  EXPECT_EQ(or_ab.ToString(), "1110");
  DynamicBitset and_ab = a;
  and_ab &= b;
  EXPECT_EQ(and_ab.ToString(), "0100");
  DynamicBitset a_minus_b = a;
  a_minus_b.AndNotAssign(b);
  EXPECT_EQ(a_minus_b.ToString(), "1000");
  EXPECT_EQ(a.IntersectCount(b), 1u);
  EXPECT_TRUE(a.Intersects(b));
}

TEST(BitsetTest, ResizePreservesPrefixAndTrimsTail) {
  DynamicBitset bits(70);
  bits.Set(69);
  bits.Set(3);
  bits.Resize(64);
  EXPECT_EQ(bits.Count(), 1u);  // bit 69 trimmed away
  bits.Resize(70);
  EXPECT_FALSE(bits.Test(69));  // re-grown bits are zero
  EXPECT_TRUE(bits.Test(3));
}

TEST(BitsetTest, EqualityComparesBits) {
  EXPECT_EQ(DynamicBitset::FromBits({1, 0}), DynamicBitset::FromBits({1, 0}));
  EXPECT_FALSE(DynamicBitset::FromBits({1, 0}) ==
               DynamicBitset::FromBits({1, 1}));
  EXPECT_FALSE(DynamicBitset::FromBits({1, 0}) ==
               DynamicBitset::FromBits({1, 0, 0}));
}

TEST(BitsetTest, SetAllSetsEveryBitAndTrimsTail) {
  DynamicBitset bits(70);
  bits.SetAll();
  EXPECT_EQ(bits.Count(), 70u);
  bits.Resize(71);  // the bit past the old size must have stayed zero
  EXPECT_FALSE(bits.Test(70));
  DynamicBitset empty(0);
  empty.SetAll();
  EXPECT_EQ(empty.Count(), 0u);
}

TEST(BitsetTest, AndNotAssignClearsOtherBitsInPlace) {
  DynamicBitset bits = DynamicBitset::FromBits({1, 1, 0, 1});
  const DynamicBitset mask = DynamicBitset::FromBits({0, 1, 1, 0});
  bits.AndNotAssign(mask);
  EXPECT_EQ(bits, DynamicBitset::FromBits({1, 0, 0, 1}));
}

TEST(BitsetTest, AssignComplementOfFlipsAndResizes) {
  DynamicBitset chosen(130);
  chosen.Set(0);
  chosen.Set(64);
  chosen.Set(129);
  DynamicBitset complement(5);  // wrong size on purpose: must resize
  complement.AssignComplementOf(chosen);
  EXPECT_EQ(complement.size(), 130u);
  EXPECT_EQ(complement.Count(), 127u);
  EXPECT_FALSE(complement.Test(0));
  EXPECT_FALSE(complement.Test(64));
  EXPECT_FALSE(complement.Test(129));
  EXPECT_TRUE(complement.Test(1));
  // The tail bits past 130 stay clear, so Count() cannot overcount.
  complement.Resize(192);
  EXPECT_EQ(complement.Count(), 127u);
}

TEST(BitsetTest, ForEachSetBitVisitsAscendingAcrossWords) {
  DynamicBitset bits(200);
  const std::vector<std::size_t> expected = {0, 1, 63, 64, 65, 127, 199};
  for (std::size_t i : expected) bits.Set(i);
  std::vector<std::size_t> seen;
  bits.ForEachSetBit([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
  // FindNext walks the same bits and reports size() past the last one.
  seen.clear();
  for (std::size_t i = bits.FindNext(0); i < bits.size();
       i = bits.FindNext(i + 1)) {
    seen.push_back(i);
  }
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(bits.FindNext(66), 127u);
  EXPECT_EQ(bits.FindNext(200), 200u);
  EXPECT_EQ(DynamicBitset(0).FindNext(0), 0u);
  // FindNth(n) is the n-th bit of the same walk, size() past the count.
  for (std::size_t n = 0; n < expected.size(); ++n) {
    EXPECT_EQ(bits.FindNth(n), expected[n]);
  }
  EXPECT_EQ(bits.FindNth(expected.size()), 200u);
  EXPECT_EQ(DynamicBitset(0).FindNth(0), 0u);
}

TEST(BitsetTest, ForEachSetWordSkipsZeroWords) {
  DynamicBitset bits(256);
  bits.Set(2);
  bits.Set(130);
  bits.Set(131);
  std::vector<std::pair<std::size_t, std::uint64_t>> words;
  bits.ForEachSetWord([&](std::size_t base, std::uint64_t word) {
    words.emplace_back(base, word);
  });
  ASSERT_EQ(words.size(), 2u);  // words 1 and 3 are zero and skipped
  EXPECT_EQ(words[0].first, 0u);
  EXPECT_EQ(words[0].second, std::uint64_t{1} << 2);
  EXPECT_EQ(words[1].first, 128u);
  EXPECT_EQ(words[1].second, (std::uint64_t{1} << 2) | (std::uint64_t{1} << 3));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(10), 10u);
    const int v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, DoubleRangeRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble(2.0, 4.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 4.0);
  }
}

TEST(RngTest, GaussianHasRoughMoments) {
  Rng rng(99);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian(1.0, 2.0);
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(5);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(3);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ";"), "x;y;z");
  EXPECT_EQ(Split(Join(parts, ";"), ';'), parts);
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hello \t\n"), "hello");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringUtilTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(4.60, 2), "4.6");
  EXPECT_EQ(FormatDouble(5.00, 2), "5");
  EXPECT_EQ(FormatDouble(3.39, 2), "3.39");
  EXPECT_EQ(FormatDouble(0.0, 2), "0");
}

TEST(CsvTest, ParseSimple) {
  auto doc = ParseCsv("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().header, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(doc.value().rows.size(), 2u);
  EXPECT_EQ(doc.value().rows[1][2], "6");
  EXPECT_EQ(doc.value().ColumnIndex("b"), 1);
  EXPECT_EQ(doc.value().ColumnIndex("zzz"), -1);
}

TEST(CsvTest, QuotedFieldsWithCommasAndNewlines) {
  auto doc = ParseCsv("name,notes\n\"doe, jane\",\"line1\nline2\"\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().rows[0][0], "doe, jane");
  EXPECT_EQ(doc.value().rows[0][1], "line1\nline2");
}

TEST(CsvTest, EscapedQuotes) {
  auto doc = ParseCsv("a\n\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().rows[0][0], "say \"hi\"");
}

TEST(CsvTest, RowWidthMismatchRejected) {
  auto doc = ParseCsv("a,b\n1\n");
  EXPECT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, UnterminatedQuoteRejected) {
  auto doc = ParseCsv("a\n\"oops\n");
  EXPECT_FALSE(doc.ok());
}

TEST(CsvTest, WriteThenParseRoundTrips) {
  CsvDocument doc;
  doc.header = {"k", "v"};
  doc.rows = {{"x,1", "plain"}, {"with \"q\"", "line\nbreak"}};
  auto reparsed = ParseCsv(WriteCsv(doc));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().header, doc.header);
  EXPECT_EQ(reparsed.value().rows, doc.rows);
}

TEST(CsvTest, MissingTrailingNewlineStillParses) {
  auto doc = ParseCsv("a,b\n1,2");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc.value().rows.size(), 1u);
  EXPECT_EQ(doc.value().rows[0][1], "2");
}

TEST(StatsTest, EmptySampleIsAllZero) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(ConfidenceHalfWidth95(s), 0.0);
}

TEST(StatsTest, SummaryOfKnownSample) {
  const Summary s = Summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);  // classic textbook sample
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
}

TEST(StatsTest, MedianOddCount) {
  EXPECT_DOUBLE_EQ(Summarize({3.0, 1.0, 2.0}).median, 2.0);
}

TEST(StatsTest, ConfidenceIntervalShrinksWithN) {
  Summary small = Summarize({1, 2, 3, 4});
  Summary large = small;
  large.count = 400;
  EXPECT_GT(ConfidenceHalfWidth95(small), ConfidenceHalfWidth95(large));
}

TEST(StatsTest, PerfectCorrelation) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> neg = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, neg), -1.0, 1e-12);
}

TEST(StatsTest, CorrelationEdgeCases) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 2}, {1}), 0.0);  // size mismatch
  EXPECT_DOUBLE_EQ(PearsonCorrelation({3, 3, 3}, {1, 2, 3}), 0.0);
}

TEST(StatsTest, LinearSlopeRecoversLine) {
  const std::vector<double> x = {100, 200, 300, 500, 1000};
  std::vector<double> y;
  for (double v : x) y.push_back(3.5 * v + 10.0);
  EXPECT_NEAR(LinearSlope(x, y), 3.5, 1e-9);
  EXPECT_DOUBLE_EQ(LinearSlope({2, 2, 2}, {1, 2, 3}), 0.0);
}

TEST(AsciiTableTest, AlignsColumns) {
  AsciiTable table({"name", "score"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22.5"});
  const std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("| name  | score |"), std::string::npos);
  EXPECT_NE(rendered.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(AsciiTableTest, ShortRowsPadded) {
  AsciiTable table({"a", "b", "c"});
  table.AddRow({"only"});
  EXPECT_NE(table.ToString().find("| only |"), std::string::npos);
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_GE(pool.num_threads(), 1u);
  std::vector<std::atomic<int>> counts(1000);
  pool.ParallelFor(counts.size(),
                   [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, HandlesEmptyAndSingleRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](std::size_t i) { calls += static_cast<int>(i) + 1; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // The caller participates in its own job, so a worker that issues a nested
  // ParallelFor makes progress even when every pool thread is busy.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(4, [&](std::size_t) {
    pool.ParallelFor(4, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPoolTest, DefaultSizeUsesAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, NumWorkersReportsPoolSize) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.NumWorkers(), 3u);
  EXPECT_EQ(pool.NumWorkers(), pool.num_threads());
}

TEST(ParseHostPortTest, AcceptsValidSpecs) {
  auto listen = ParseHostPort("127.0.0.1:8080");
  ASSERT_TRUE(listen.ok()) << listen.status().ToString();
  EXPECT_EQ(listen.value().host, "127.0.0.1");
  EXPECT_EQ(listen.value().port, 8080);
  EXPECT_EQ(listen.value().ToString(), "127.0.0.1:8080");

  // Port 0 is legal (ephemeral bind), as is the max port.
  EXPECT_EQ(ParseHostPort("0.0.0.0:0").value().port, 0);
  EXPECT_EQ(ParseHostPort("localhost:65535").value().port, 65535);
}

TEST(ParseHostPortTest, RejectsMalformedSpecsByName) {
  const struct {
    const char* spec;
    const char* expect_in_message;
  } cases[] = {
      {"nocolon", "HOST:PORT"},      {":8080", "host"},
      {"host:", "port"},             {"host:notaport", "port"},
      {"host:-1", "port"},           {"host:65536", "port"},
      {"host:80x", "port"},          {"", "HOST:PORT"},
  };
  for (const auto& c : cases) {
    auto parsed = ParseHostPort(c.spec);
    ASSERT_FALSE(parsed.ok()) << c.spec;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << c.spec;
    EXPECT_NE(parsed.status().message().find(c.expect_in_message),
              std::string::npos)
        << c.spec << " -> " << parsed.status().ToString();
  }
}

TEST(ParseDecimalTest, AcceptsBareDecimalsInRange) {
  EXPECT_EQ(ParseDecimal("0", 0, 1000, "--x").value(), 0u);
  EXPECT_EQ(ParseDecimal("1000", 0, 1000, "--x").value(), 1000u);
  EXPECT_EQ(ParseDecimal("007", 1, 8, "--x").value(), 7u);
}

TEST(ParseDecimalTest, RejectsSignsGarbageAndOutOfRange) {
  for (const char* text : {"-1", "+1", "", " 1", "1 ", "1e3", "0x10", "4k",
                           "1025", "0", "99999999999999999999999"}) {
    auto parsed = ParseDecimal(text, 1, 1024, "--threads");
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(parsed.status().message().find("--threads"), std::string::npos)
        << parsed.status().ToString();
    EXPECT_NE(parsed.status().message().find("[1, 1024]"), std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(JsonParseTest, ParsesScalarsArraysAndObjects) {
  auto document = json::Parse(
      " {\"a\": 1, \"b\": -2.5e2, \"c\": [true, false, null], "
      "\"d\": {\"nested\": \"str\\u0041\\n\"}} ");
  ASSERT_TRUE(document.ok()) << document.status().ToString();
  const json::Value& root = document.value();
  ASSERT_TRUE(root.is_object());
  ASSERT_NE(root.Find("a"), nullptr);
  EXPECT_TRUE(root.Find("a")->is_integer());
  EXPECT_EQ(root.Find("a")->AsNumber(), 1.0);
  EXPECT_FALSE(root.Find("b")->is_integer());  // fraction/exponent present
  EXPECT_EQ(root.Find("b")->AsNumber(), -250.0);
  ASSERT_TRUE(root.Find("c")->is_array());
  ASSERT_EQ(root.Find("c")->AsArray().size(), 3u);
  EXPECT_TRUE(root.Find("c")->AsArray()[0].AsBool());
  EXPECT_TRUE(root.Find("c")->AsArray()[2].is_null());
  const json::Value* nested = root.Find("d")->Find("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->AsString(), "strA\n");
  EXPECT_EQ(root.Find("missing"), nullptr);
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",            "{",           "{\"a\":}",      "[1,]",
      "{\"a\" 1}",   "nul",         "01",            "1.",
      "\"unterminated", "{} trailing", "[1] [2]",    "{\"a\":NaN}",
      "\"bad \\u12 escape\"",
  };
  for (const char* text : bad) {
    auto document = json::Parse(text);
    EXPECT_FALSE(document.ok()) << "accepted: " << text;
    if (!document.ok()) {
      EXPECT_EQ(document.status().code(), StatusCode::kInvalidArgument);
    }
  }
  // Depth bound: 40 nested arrays exceed the 32-level limit.
  std::string deep(40, '[');
  deep += std::string(40, ']');
  EXPECT_FALSE(json::Parse(deep).ok());
}

TEST(ThreadPoolTest, NestedCallsAcrossPoolsDegradeSerially) {
  // A ParallelFor issued from inside *another pool's* task must also run
  // inline: the depth marker is per-thread, not per-pool, so no worker is
  // ever parked on an inner latch.
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> total{0};
  outer.ParallelFor(4, [&](std::size_t) {
    inner.ParallelFor(4, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16);
}

}  // namespace
}  // namespace rlplanner::util
