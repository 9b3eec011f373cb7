// Tests for the observability substrate (DESIGN.md §5d): histogram bucket
// math and quantile envelopes, exact concurrent counting, registry handle
// identity, trace recording, the JSON codec (obs/json.h) and the JSON
// exports parsed back through it (the Chrome trace_event schema and the
// RunReport shape).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace bloc::obs {
namespace {

// ---------------------------------------------------------------------------
// The JSON codec.

std::string Written(const JsonValue& value) {
  std::ostringstream os;
  JsonWriter(os).Value(value);
  return os.str();
}

TEST(JsonParser, AcceptsAndRejects) {
  const auto doc = ParseJson(R"({"a": [1, 2.5, "x"], "b": {"c": true}})");
  ASSERT_TRUE(doc);
  EXPECT_EQ(doc->object.size(), 2u);
  EXPECT_EQ(doc->Find("a")->array.size(), 3u);
  EXPECT_TRUE(doc->Path("b.c")->boolean);
  for (const char* bad :
       {"", "{", R"({"a": 1} garbage)", R"({"a": })", "[1,]", R"({"a" 1})",
        "01", "1.", ".5", "-", "nan", "inf", "[1e999]", "tru", R"("\x")",
        "\"raw\ttab\"", R"("\ud800")", R"("\udc00")"}) {
    EXPECT_FALSE(ParseJson(bad)) << bad;
  }
}

TEST(JsonCodec, NestedObjectsAndArraysRoundTrip) {
  const JsonValue doc = JsonValue::Object(
      {{"name", "fig9"},
       {"ok", true},
       {"none", JsonValue()},
       {"empty", JsonValue::Object()},
       {"results",
        JsonValue::Array(
            {JsonValue::Object({{"threads", 1}, {"rounds_per_sec", 209.735}}),
             JsonValue::Array({1, -2, JsonValue::Array()})})}});
  const std::string text = Written(doc);
  // Depth 0 and 1 put one member per line, deeper containers one line.
  EXPECT_NE(text.find("\n  \"ok\": true,\n"), std::string::npos) << text;
  EXPECT_NE(text.find(R"({"threads": 1, "rounds_per_sec": 209.735})"),
            std::string::npos)
      << text;

  const auto back = ParseJson(text);
  ASSERT_TRUE(back) << text;
  EXPECT_EQ(Written(*back), text);
  EXPECT_EQ(back->Find("name")->str, "fig9");
  EXPECT_EQ(back->Find("none")->kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(back->Find("empty")->object.empty());
  const JsonValue& results = *back->Find("results");
  ASSERT_EQ(results.array.size(), 2u);
  EXPECT_EQ(results.array[0].Number("rounds_per_sec"), 209.735);
  EXPECT_EQ(results.array[1].array[1].number, -2.0);
}

TEST(JsonCodec, EscapesEveryClassAndDecodesItBack) {
  std::string raw = "quote\" backslash\\ slash/ ";
  for (int c = 0; c < 0x20; ++c) raw += static_cast<char>(c);
  raw += "\x7f \xc3\xa9";  // DEL and UTF-8 pass through unescaped
  std::ostringstream os;
  JsonWriter(os).Value(raw);
  const std::string text = os.str();
  EXPECT_NE(text.find(R"(quote\")"), std::string::npos) << text;
  EXPECT_NE(text.find(R"(backslash\\)"), std::string::npos) << text;
  for (const char* escaped : {R"(\u0000)", R"(\u000a)", R"(\u001f)"}) {
    EXPECT_NE(text.find(escaped), std::string::npos) << escaped;
  }
  for (const char c : text) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
  const auto back = ParseJson(text);
  ASSERT_TRUE(back) << text;
  EXPECT_EQ(back->str, raw);

  const auto decoded = ParseJson(
      R"("\" \\ \/ \b \f \n \r \t \u0041 \u00e9 \u20AC \ud83d\ude00")");
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->str,
            "\" \\ / \b \f \n \r \t A \xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80");
}

TEST(JsonCodec, DoublesRoundTripBitExact) {
  for (const double v :
       {1500140.123, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, -2.5e-7,
        1e6, 123456789.0, 9007199254740993.0, 0.0, -0.0}) {
    std::ostringstream os;
    JsonWriter(os).Value(v);
    const auto back = ParseJson(os.str());
    ASSERT_TRUE(back) << os.str();
    ASSERT_EQ(back->kind, JsonValue::Kind::kNumber) << os.str();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back->number),
              std::bit_cast<std::uint64_t>(v))
        << os.str();
  }
  std::ostringstream os;
  JsonWriter(os).BeginArray().Value(1500140.123).Value(1e6).EndArray();
  EXPECT_EQ(os.str(), "[\n  1500140.123,\n  1000000\n]");
}

TEST(JsonCodec, NonFiniteDoublesWriteNull) {
  const double inf = std::numeric_limits<double>::infinity();
  const JsonValue doc = JsonValue::Object(
      {{"nan", std::nan("")}, {"inf", inf}, {"ninf", -inf}});
  const std::string text = Written(doc);
  const auto back = ParseJson(text);
  ASSERT_TRUE(back) << text;
  for (const char* key : {"nan", "inf", "ninf"}) {
    EXPECT_EQ(back->Find(key)->kind, JsonValue::Kind::kNull) << key;
  }
}

TEST(JsonCodec, ParsesEveryCommittedBaseline) {
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(BLOC_SOURCE_DIR)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("BENCH_") || entry.path().extension() != ".json") {
      continue;
    }
    ++files;
    const auto doc = ParseJsonFile(entry.path().string());
    ASSERT_TRUE(doc) << name;
    EXPECT_EQ(doc->kind, JsonValue::Kind::kObject) << name;
    if (name == "BENCH_fig9.json") {
      EXPECT_EQ(doc->Number("figure.median_error_m"), 0.841765);
    }
  }
  EXPECT_GE(files, 6u);
}

#if !defined(BLOC_OBS_OFF)

// ---------------------------------------------------------------------------
// Histogram bucket math.

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds exactly the value 0; bucket i >= 1 holds [2^(i-1), 2^i-1].
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  for (std::size_t i = 1; i < Histogram::kBuckets - 1; ++i) {
    const std::uint64_t lo = Histogram::BucketLowerBound(i);
    const std::uint64_t hi = Histogram::BucketUpperBound(i);
    EXPECT_EQ(lo, std::uint64_t{1} << (i - 1));
    EXPECT_EQ(hi, (std::uint64_t{1} << i) - 1);
    // Both edges and an interior point map back to bucket i.
    EXPECT_EQ(Histogram::BucketIndex(lo), i);
    EXPECT_EQ(Histogram::BucketIndex(hi), i);
    EXPECT_EQ(Histogram::BucketIndex(lo + (hi - lo) / 2), i);
  }
  // The top bucket is open-ended.
  EXPECT_EQ(Histogram::BucketIndex(~std::uint64_t{0}),
            Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kBuckets - 1),
            ~std::uint64_t{0});
}

TEST(Histogram, CountsSumAndMax) {
  Histogram& h = GetHistogram("test.hist.counts");
  for (std::uint64_t v : {0u, 1u, 1u, 7u, 100u}) h.Record(v);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 109u);
  EXPECT_EQ(h.MaxValue(), 100u);
  EXPECT_EQ(h.BucketCount(0), 1u);  // the 0
  EXPECT_EQ(h.BucketCount(1), 2u);  // the two 1s
}

double ExactQuantile(std::vector<std::uint64_t> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (1.0 - frac) * static_cast<double>(samples[lo]) +
         frac * static_cast<double>(samples[hi]);
}

TEST(Histogram, QuantilesTrackExactWithinBucketEnvelope) {
  // Log-spaced-ish latency population; the estimate must stay within a
  // factor of 2 of the exact quantile (the bucket envelope), and inside
  // [min, max] of the recorded samples.
  std::vector<std::uint64_t> samples;
  for (std::uint64_t i = 1; i <= 1000; ++i) samples.push_back(3 * i + 17);
  Histogram& h = GetHistogram("test.hist.quantiles");
  for (std::uint64_t v : samples) h.Record(v);

  for (double q : {0.5, 0.95, 0.99}) {
    const double exact = ExactQuantile(samples, q);
    const double est = h.Quantile(q);
    EXPECT_GE(est, exact / 2.0) << "q=" << q;
    EXPECT_LE(est, exact * 2.0) << "q=" << q;
    EXPECT_GE(est, static_cast<double>(samples.front()));
    EXPECT_LE(est, static_cast<double>(samples.back()));
  }
  // Extremes clamp to the population bounds.
  EXPECT_GE(h.Quantile(0.0), 0.0);
  EXPECT_LE(h.Quantile(1.0), static_cast<double>(h.MaxValue()));
}

TEST(Histogram, SingleSampleQuantileStaysInBucket) {
  Histogram& h = GetHistogram("test.hist.single");
  h.Record(700);
  const std::size_t b = Histogram::BucketIndex(700);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    const double est = h.Quantile(q);
    EXPECT_GE(est, static_cast<double>(Histogram::BucketLowerBound(b)));
    EXPECT_LE(est, 700.0);  // interpolation caps at the observed max
  }
  Histogram& empty = GetHistogram("test.hist.empty");
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
}

// ---------------------------------------------------------------------------
// Counters, gauges, registry.

TEST(Counter, ConcurrentIncrementsSumExactly) {
  Counter& c = GetCounter("test.counter.concurrent");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(Counter, IncByDelta) {
  Counter& c = GetCounter("test.counter.delta");
  c.Inc(5);
  c.Inc(37);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(Gauge, TracksValueAndHighWatermark) {
  Gauge& g = GetGauge("test.gauge.watermark");
  g.Add(3);
  g.Add(4);  // peak 7
  g.Sub(5);
  g.Add(1);
  EXPECT_EQ(g.Value(), 3);
  EXPECT_EQ(g.Max(), 7);
  g.Set(-2);
  EXPECT_EQ(g.Value(), -2);
  EXPECT_EQ(g.Max(), 7);  // the watermark never goes down
}

TEST(Registry, HandlesAreStableAndIdentityPerName) {
  Counter& a = GetCounter("test.registry.same");
  Counter& b = GetCounter("test.registry.same");
  Counter& c = GetCounter("test.registry.other");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  // Same namespace string as a gauge/histogram is a distinct metric.
  Gauge& g = GetGauge("test.registry.same");
  Histogram& h = GetHistogram("test.registry.same");
  EXPECT_NE(static_cast<void*>(&g), static_cast<void*>(&a));
  EXPECT_NE(static_cast<void*>(&h), static_cast<void*>(&a));
}

TEST(Registry, RuntimeDisableStopsRecording) {
  Counter& c = GetCounter("test.registry.disable");
  Histogram& h = GetHistogram("test.registry.disable_h");
  SetMetricsEnabled(false);
  c.Inc();
  h.Record(10);
  SetMetricsEnabled(true);
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(h.Count(), 0u);
  c.Inc();
  EXPECT_EQ(c.Value(), 1u);
}

TEST(ScopedTimerTest, RecordsElapsedMicros) {
  Histogram& h = GetHistogram("test.scoped_timer.us");
  {
    ScopedTimer timer(h);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_GE(h.MaxValue(), 1000u);  // slept >= 2 ms, recorded in us
}

TEST(Snapshot, SortedAndComplete) {
  GetCounter("test.snapshot.b").Inc(2);
  GetCounter("test.snapshot.a").Inc(1);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  bool saw_a = false, saw_b = false;
  for (const CounterSnapshot& c : snap.counters) {
    if (c.name == "test.snapshot.a") saw_a = (c.value == 1);
    if (c.name == "test.snapshot.b") saw_b = (c.value == 2);
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
  EXPECT_TRUE(std::is_sorted(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& x, const auto& y) { return x.name < y.name; }));
}

// ---------------------------------------------------------------------------
// Tracing and the Chrome trace_event export.

TEST(Trace, SpansRecordOnlyWhenEnabled) {
  ClearTrace();
  SetTracingEnabled(false);
  { TraceSpan span("test.disabled", "test"); }
  EXPECT_TRUE(SnapshotTrace().empty());

  SetTracingEnabled(true);
  {
    TraceSpan outer("test.outer", "test", 42);
    TraceSpan inner("test.inner", "test");
  }
  SetTracingEnabled(false);

  const std::vector<TraceEvent> events = SnapshotTrace();
  ASSERT_EQ(events.size(), 2u);
  // Inner destructs first, so it records first.
  EXPECT_STREQ(events[0].name, "test.inner");
  EXPECT_STREQ(events[1].name, "test.outer");
  EXPECT_EQ(events[1].arg, 42u);
  EXPECT_LE(events[1].start_ns, events[0].start_ns);  // outer opened first
  ClearTrace();
}

TEST(Trace, ExplicitEndIsIdempotent) {
  ClearTrace();
  SetTracingEnabled(true);
  {
    TraceSpan span("test.end", "test");
    span.End();
    span.End();  // second call must not double-record
  }  // destructor must not record a third time
  SetTracingEnabled(false);
  EXPECT_EQ(SnapshotTrace().size(), 1u);
  ClearTrace();
}

TEST(Trace, ChromeJsonValidates) {
  ClearTrace();
  // Start the spans milliseconds past the clock's epoch, so their
  // microsecond timestamps need more than six significant digits.
  (void)NowNs();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  SetTracingEnabled(true);
  {
    TraceSpan a("test.chrome.a", "test", 7);
    TraceSpan b("test.chrome.b", "test");
  }
  SetTracingEnabled(false);

  const std::vector<TraceEvent> recorded = SnapshotTrace();
  std::ostringstream os;
  WriteChromeTrace(os);
  ClearTrace();

  const auto root = ParseJson(os.str());
  ASSERT_TRUE(root) << os.str();
  ASSERT_EQ(root->kind, JsonValue::Kind::kObject);
  const JsonValue* events = root->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(events->array.size(), 2u);
  ASSERT_EQ(recorded.size(), 2u);
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    const JsonValue& ev = events->array[i];
    ASSERT_EQ(ev.kind, JsonValue::Kind::kObject);
    // The complete-event schema chrome://tracing and Perfetto load.
    ASSERT_NE(ev.Find("name"), nullptr);
    EXPECT_EQ(ev.Find("name")->str, recorded[i].name);
    ASSERT_NE(ev.Find("ph"), nullptr);
    EXPECT_EQ(ev.Find("ph")->str, "X");
    for (const char* key : {"ts", "dur", "pid", "tid"}) {
      ASSERT_NE(ev.Find(key), nullptr) << key;
      EXPECT_EQ(ev.Find(key)->kind, JsonValue::Kind::kNumber) << key;
    }
    // Microseconds, exactly: no digit of the nanosecond clock is lost.
    EXPECT_EQ(ev.Number("ts"),
              static_cast<double>(recorded[i].start_ns) / 1e3);
    EXPECT_EQ(ev.Number("dur"), static_cast<double>(recorded[i].dur_ns) / 1e3);
  }
}

TEST(Report, JsonValidatesAndCarriesValues) {
  GetCounter("test.report.counter").Inc(9);
  GetGauge("test.report.gauge").Set(4);
  GetHistogram("test.report.hist_us").Record(100);

  std::ostringstream os;
  RunReport::Capture().WriteJson(os);

  const auto root = ParseJson(os.str());
  ASSERT_TRUE(root) << os.str();
  for (const char* section : {"counters", "gauges", "histograms"}) {
    ASSERT_NE(root->Find(section), nullptr) << section;
    EXPECT_EQ(root->Find(section)->kind, JsonValue::Kind::kObject) << section;
  }
  const JsonValue* counter =
      root->Find("counters")->Find("test.report.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->number, 9.0);
  const JsonValue* gauge = root->Find("gauges")->Find("test.report.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->Find("value")->number, 4.0);
  const JsonValue* hist =
      root->Find("histograms")->Find("test.report.hist_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->number, 1.0);
  EXPECT_EQ(hist->Find("sum")->number, 100.0);
  for (const char* key : {"max", "p50", "p95", "p99"}) {
    ASSERT_NE(hist->Find(key), nullptr) << key;
  }
}

TEST(Report, TableListsMetrics) {
  GetCounter("test.table.counter").Inc();
  std::ostringstream os;
  RunReport::Capture().PrintTable(os);
  EXPECT_NE(os.str().find("test.table.counter"), std::string::npos);
}

#else  // BLOC_OBS_OFF

TEST(ObsDisabled, ApiIsInertButPresent) {
  Counter& c = GetCounter("test.off.counter");
  c.Inc(10);
  EXPECT_EQ(c.Value(), 0u);
  { TraceSpan span("test.off.span", "test"); }
  EXPECT_TRUE(SnapshotTrace().empty());
  std::ostringstream os;
  RunReport::Capture().WriteJson(os);
  EXPECT_TRUE(ParseJson(os.str()));
}

#endif  // BLOC_OBS_OFF

}  // namespace
}  // namespace bloc::obs
