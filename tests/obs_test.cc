// Observability layer: histogram bucket boundaries and quantile-bound
// guarantees against exact sorted data, concurrent-increment exactness,
// merge associativity, the Prometheus text encoder, trace nesting and
// ordering, the structured logger, and EXPLAIN ANALYZE's probe-count
// parity with plain EXPLAIN.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "xarch/sink.h"
#include "xarch/store.h"
#include "xarch/store_registry.h"

namespace xarch {
namespace {

using obs::Histogram;
using obs::Registry;
using obs::Trace;

// --------------------------------------------------------------- buckets

TEST(HistogramBucketTest, SmallValuesGetExactBuckets) {
  for (uint64_t v = 0; v < 2 * Histogram::kSubBuckets; ++v) {
    const size_t b = Histogram::BucketIndex(v);
    EXPECT_EQ(Histogram::BucketLowerBound(b), v);
    EXPECT_EQ(Histogram::BucketUpperBound(b), v);
  }
}

TEST(HistogramBucketTest, EveryValueFallsInsideItsBucketBounds) {
  std::vector<uint64_t> probes;
  for (int bit = 0; bit < 64; ++bit) {
    const uint64_t p = uint64_t{1} << bit;
    probes.push_back(p);
    probes.push_back(p - 1);
    probes.push_back(p + 1);
    probes.push_back(p + p / 3);
  }
  probes.push_back(UINT64_MAX);
  probes.push_back(UINT64_MAX - 1);
  for (uint64_t v : probes) {
    const size_t b = Histogram::BucketIndex(v);
    ASSERT_LT(b, Histogram::kBucketCount) << v;
    EXPECT_LE(Histogram::BucketLowerBound(b), v) << v;
    EXPECT_GE(Histogram::BucketUpperBound(b), v) << v;
  }
}

TEST(HistogramBucketTest, BucketsAreContiguousAndOrdered) {
  // Walk the first 40 octaves of buckets: each bucket starts exactly one
  // past the previous bucket's end — no gaps, no overlaps.
  const size_t limit = Histogram::BucketIndex(uint64_t{1} << 40);
  for (size_t b = 1; b <= limit; ++b) {
    EXPECT_EQ(Histogram::BucketLowerBound(b),
              Histogram::BucketUpperBound(b - 1) + 1)
        << "bucket " << b;
  }
}

TEST(HistogramBucketTest, RelativeWidthIsAtMostOneSixteenth) {
  for (uint64_t v : {100u, 1000u, 65537u, 1u << 20, 1u << 30}) {
    const size_t b = Histogram::BucketIndex(v);
    const uint64_t lo = Histogram::BucketLowerBound(b);
    const uint64_t hi = Histogram::BucketUpperBound(b);
    // Width (hi - lo + 1) is at most lo/16: the quantile bound is within
    // 6.25% of the true sample.
    EXPECT_LE(hi - lo + 1, lo / 16 + 1) << v;
  }
}

// ------------------------------------------------------------- quantiles

TEST(HistogramQuantileTest, BoundsBracketExactSortedData) {
  // A skewed latency-like distribution with exact duplicates.
  std::vector<uint64_t> data;
  for (uint64_t i = 0; i < 500; ++i) data.push_back(i % 40);        // fast
  for (uint64_t i = 0; i < 90; ++i) data.push_back(1000 + 17 * i);  // slow
  for (uint64_t i = 0; i < 10; ++i) data.push_back(250000 + i);     // tail

  Histogram h;
  for (uint64_t v : data) h.Record(v);
  std::sort(data.begin(), data.end());

  for (double q : {0.0, 0.10, 0.50, 0.90, 0.99, 1.0}) {
    // The histogram promises its bucket bounds bracket the sample at the
    // same rank the old sorted-ring percentile used.
    const size_t rank = static_cast<size_t>(
        q * static_cast<double>(data.size() - 1) + 0.5);
    const uint64_t exact = data[std::min(rank, data.size() - 1)];
    EXPECT_LE(h.QuantileLowerBound(q), exact) << "q=" << q;
    EXPECT_GE(h.QuantileUpperBound(q), exact) << "q=" << q;
  }
}

TEST(HistogramQuantileTest, EmptyHistogramReportsZero) {
  Histogram h;
  EXPECT_EQ(h.QuantileUpperBound(0.5), 0u);
  EXPECT_EQ(h.QuantileLowerBound(0.99), 0u);
  EXPECT_EQ(h.count(), 0u);
}

// ----------------------------------------------------------- concurrency

TEST(ObsConcurrencyTest, ConcurrentIncrementsAreExact) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  Registry registry;
  obs::Counter* counter = registry.GetCounter("c");
  obs::Histogram* histogram = registry.GetHistogram("h");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter->Add(1);
        histogram->Record(static_cast<uint64_t>(t) * 1000 + (i % 97));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->value(), kThreads * kPerThread);
  EXPECT_EQ(histogram->count(), kThreads * kPerThread);
  // Bucketwise counts are independent atomics: no recorded sample may be
  // lost, so the buckets sum to the count too.
  uint64_t bucket_total = 0;
  for (const auto& b : histogram->NonEmptyBuckets()) bucket_total += b.count;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

TEST(HistogramMergeTest, MergeIsAssociative) {
  auto fill = [](Histogram* h, uint64_t seed) {
    for (uint64_t i = 0; i < 100; ++i) h->Record(seed * 37 + i * i);
  };
  auto snapshot = [](const Histogram& h) {
    std::vector<std::pair<size_t, uint64_t>> out;
    for (const auto& b : h.NonEmptyBuckets()) out.emplace_back(b.index,
                                                               b.count);
    return out;
  };
  // (a + b) + c
  Histogram left_a, left_b, left_c;
  fill(&left_a, 1); fill(&left_b, 2); fill(&left_c, 3);
  left_a.Merge(left_b);
  left_a.Merge(left_c);
  // a + (b + c)
  Histogram right_a, right_b, right_c;
  fill(&right_a, 1); fill(&right_b, 2); fill(&right_c, 3);
  right_b.Merge(right_c);
  right_a.Merge(right_b);

  EXPECT_EQ(snapshot(left_a), snapshot(right_a));
  EXPECT_EQ(left_a.count(), right_a.count());
  EXPECT_EQ(left_a.sum(), right_a.sum());
}

// ------------------------------------------------------------- registry

TEST(RegistryTest, SameNameAndLabelsShareOneInstrument) {
  Registry registry;
  obs::Counter* a = registry.GetCounter("x_total", "k=\"1\"");
  obs::Counter* b = registry.GetCounter("x_total", "k=\"1\"");
  obs::Counter* c = registry.GetCounter("x_total", "k=\"2\"");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a->Add(2);
  b->Add(3);
  EXPECT_EQ(a->value(), 5u);
  EXPECT_EQ(c->value(), 0u);
}

TEST(RegistryTest, EncodeTextEmitsPrometheusExposition) {
  Registry registry;
  registry.GetCounter("xarch_widgets_total", "kind=\"a\"", "Widgets made")
      ->Add(4);
  registry.GetCounter("xarch_widgets_total", "kind=\"b\"")->Add(2);
  registry.GetGauge("xarch_live", "", "Live things")->Set(7);
  obs::Histogram* h = registry.GetHistogram("xarch_lat_us", "", "Latency");
  h->Record(3);
  h->Record(3);
  h->Record(100);

  const std::string text = registry.EncodeText();
  EXPECT_NE(text.find("# HELP xarch_widgets_total Widgets made\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE xarch_widgets_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("xarch_widgets_total{kind=\"a\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("xarch_widgets_total{kind=\"b\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE xarch_live gauge\n"), std::string::npos);
  EXPECT_NE(text.find("xarch_live 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE xarch_lat_us histogram\n"), std::string::npos);
  // Cumulative buckets: le="3" holds both 3s; +Inf holds everything.
  EXPECT_NE(text.find("xarch_lat_us_bucket{le=\"3\"} 2\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("xarch_lat_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("xarch_lat_us_sum 106\n"), std::string::npos);
  EXPECT_NE(text.find("xarch_lat_us_count 3\n"), std::string::npos);
}

TEST(RegistryTest, KillSwitchStopsHotPathMutation) {
  Registry registry;
  obs::Counter* counter = registry.GetCounter("kc");
  obs::Histogram* histogram = registry.GetHistogram("kh");
  obs::SetMetricsEnabled(false);
  counter->Add(5);
  histogram->Record(42);
  obs::SetMetricsEnabled(true);
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_EQ(histogram->count(), 0u);
  counter->Add(5);
  EXPECT_EQ(counter->value(), 5u);
}

// ----------------------------------------------------------------- trace

TEST(TraceTest, RendersNestedSpansInCreationOrder) {
  Trace trace;
  const Trace::SpanId root = trace.Begin("eval", Trace::kNoSpan);
  const Trace::SpanId child = trace.Begin("scan v1", root);
  trace.Note(child, "matches", 3);
  trace.End(child);
  const Trace::SpanId second = trace.Begin("scan v2", root);
  trace.End(second);
  trace.End(root);
  EXPECT_EQ(trace.span_count(), 3u);

  const std::string text = trace.Render();
  const size_t p_root = text.find("  eval");
  const size_t p_child = text.find("    scan v1");
  const size_t p_second = text.find("    scan v2");
  ASSERT_NE(p_root, std::string::npos) << text;
  ASSERT_NE(p_child, std::string::npos) << text;
  ASSERT_NE(p_second, std::string::npos) << text;
  // Children indent one level deeper and render after their parent, in
  // creation order.
  EXPECT_LT(p_root, p_child);
  EXPECT_LT(p_child, p_second);
  EXPECT_NE(text.find("[matches=3]"), std::string::npos) << text;
}

TEST(TraceTest, AddCompletedRecordsExternallyTimedSpans) {
  Trace trace;
  const Trace::SpanId parse =
      trace.AddCompleted("parse", Trace::kNoSpan, 100, 350);
  EXPECT_EQ(parse, 0u);
  const std::string text = trace.Render();
  EXPECT_NE(text.find("parse"), std::string::npos);
  EXPECT_NE(text.find("250 us"), std::string::npos) << text;
}

TEST(TraceTest, ScopedSpanIsNullSafe) {
  obs::ScopedSpan span(nullptr, "nothing");
  span.Note("ignored", 1);
  EXPECT_EQ(span.id(), Trace::kNoSpan);
}

// ---------------------------------------------------------------- logger

TEST(LoggerTest, FormatsSingleLineKeyValueRecords) {
  const std::string line = obs::Logger::Format(
      "serving", {{"port", 4711}, {"backend", "durable(archive)"},
                  {"note", "has spaces"}});
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("ts="), std::string::npos) << line;
  EXPECT_NE(line.find("mono_us="), std::string::npos);
  EXPECT_NE(line.find("event=serving"), std::string::npos);
  EXPECT_NE(line.find("port=4711"), std::string::npos);
  EXPECT_NE(line.find("backend=durable(archive)"), std::string::npos);
  // Values with spaces are quoted so the line splits on spaces.
  EXPECT_NE(line.find("note=\"has spaces\""), std::string::npos) << line;
}

// ------------------------------------------------- explain analyze parity

constexpr const char* kKeys = R"(
(/, (db, {}))
(/db, (entry, {id}))
(/db/entry, (note, {}))
)";

std::unique_ptr<Store> MakeArchiveStore() {
  auto spec = keys::ParseKeySpecSet(kKeys);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  StoreOptions options;
  options.spec = std::move(*spec);
  options.use_index = true;
  auto store = StoreRegistry::Create("archive", std::move(options));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  const std::vector<std::string> versions = {
      "<db><entry><id>1</id><note>alpha</note></entry></db>",
      "<db><entry><id>1</id><note>beta</note></entry>"
      "<entry><id>2</id><note>gamma</note></entry></db>",
      "<db><entry><id>2</id><note>gamma2</note></entry></db>",
  };
  for (const std::string& v : versions) {
    EXPECT_TRUE((*store)->Append(v).ok());
  }
  return std::move(store).value();
}

std::string MustQuery(Store& store, const std::string& q) {
  StringSink sink;
  Status st = store.Query(q, sink);
  EXPECT_TRUE(st.ok()) << q << ": " << st.ToString();
  return std::move(sink).Take();
}

/// Pulls the number after `label` out of an EXPLAIN report.
uint64_t StatLine(const std::string& report, const std::string& label) {
  const size_t at = report.find(label);
  EXPECT_NE(at, std::string::npos) << label << " missing in:\n" << report;
  if (at == std::string::npos) return 0;
  return std::strtoull(report.c_str() + at + label.size(), nullptr, 10);
}

TEST(ExplainAnalyzeTest, AppendsSpanTreeAndKeepsProbeCountsEqual) {
  auto store = MakeArchiveStore();
  const std::string plain =
      MustQuery(*store, "explain /db/entry[id=\"2\"] @ versions 1..3");
  const std::string analyzed =
      MustQuery(*store, "explain analyze /db/entry[id=\"2\"] @ versions 1..3");

  // The span tree is the analyze report's tail — and only its.
  EXPECT_EQ(plain.find("trace:"), std::string::npos) << plain;
  ASSERT_NE(analyzed.find("trace:"), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find("parse"), std::string::npos);
  EXPECT_NE(analyzed.find("plan"), std::string::npos);
  EXPECT_NE(analyzed.find("eval"), std::string::npos);
  EXPECT_NE(analyzed.find("scan v"), std::string::npos) << analyzed;

  // The acceptance gate: tracing must not change what the query does.
  // EXPLAIN ANALYZE runs serially (the traced evaluator skips the
  // parallel executor) but probe totals are identical either way.
  for (const char* label :
       {"matches:", "naive probes:", "key comparisons:",
        "bytes streamed:"}) {
    EXPECT_EQ(StatLine(plain, label), StatLine(analyzed, label)) << label;
  }
}

TEST(ExplainAnalyzeTest, RoundTripsThroughParser) {
  auto ast = query::Parse("explain analyze /db @ version 1");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  EXPECT_TRUE(ast->explain);
  EXPECT_TRUE(ast->analyze);
  EXPECT_EQ(ast->ToString(), "explain analyze /db @ version 1");
  auto again = query::Parse(ast->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*ast == *again);
}

TEST(ExplainAnalyzeTest, CallerTraceSeesSpansWithoutAnalyze) {
  // The Store::Query trace parameter works for plain queries too: the
  // server threads one through for slow-query logging and wire traces.
  auto store = MakeArchiveStore();
  Trace trace;
  StringSink sink;
  ASSERT_TRUE(store->Query("/db @ version 2", sink, &trace).ok());
  EXPECT_GT(trace.span_count(), 0u);
  const std::string text = trace.Render();
  EXPECT_NE(text.find("parse"), std::string::npos) << text;
  EXPECT_NE(text.find("eval"), std::string::npos) << text;
  // The result itself is unchanged by tracing.
  StringSink untraced;
  ASSERT_TRUE(store->Query("/db @ version 2", untraced).ok());
  EXPECT_EQ(sink.data(), untraced.data());
}

}  // namespace
}  // namespace xarch
