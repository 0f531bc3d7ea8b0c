#include "obs/metrics.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/scan.h"
#include "obs/obs.h"
#include "storage/loader.h"

namespace jsontiles::obs {
namespace {

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kPerThread; i++) counter->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter->Value(), int64_t{kThreads} * kPerThread);
}

TEST(CounterTest, AddAndReset) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.add");
  counter->Add(7);
  counter->Add(35);
  EXPECT_EQ(counter->Value(), 42);
  counter->Reset();
  EXPECT_EQ(counter->Value(), 0);
}

TEST(CounterTest, SameNameReturnsSameCounter) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("x"), registry.GetCounter("x"));
  EXPECT_NE(registry.GetCounter("x"), registry.GetCounter("y"));
}

TEST(GaugeTest, SetOverwrites) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("test.gauge");
  gauge->Set(1.5);
  gauge->Set(-3.25);
  EXPECT_DOUBLE_EQ(gauge->Value(), -3.25);
}

TEST(HistogramTest, BucketBoundaries) {
  MetricsRegistry registry;
  // Buckets: (-inf,1], (1,10], (10,100], (100,+inf)
  Histogram* hist = registry.GetHistogram("test.hist", {1, 10, 100});
  hist->Record(0.5);   // bucket 0
  hist->Record(1.0);   // bucket 0 (le semantics: value <= bound)
  hist->Record(1.001); // bucket 1
  hist->Record(10.0);  // bucket 1
  hist->Record(99.9);  // bucket 2
  hist->Record(1e6);   // overflow bucket
  Histogram::Snapshot snap = hist->GetSnapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 2);
  EXPECT_EQ(snap.buckets[1], 2);
  EXPECT_EQ(snap.buckets[2], 1);
  EXPECT_EQ(snap.buckets[3], 1);
  EXPECT_EQ(snap.count, 6);
  EXPECT_NEAR(snap.sum, 0.5 + 1.0 + 1.001 + 10.0 + 99.9 + 1e6, 1e-6);
}

TEST(HistogramTest, ConcurrentRecordsCountExactly) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("test.hist.mt", {10, 1000});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([hist] {
      for (int i = 0; i < kPerThread; i++) hist->Record(i % 2000);
    });
  }
  for (auto& t : threads) t.join();
  Histogram::Snapshot snap = hist->GetSnapshot();
  EXPECT_EQ(snap.count, int64_t{kThreads} * kPerThread);
  int64_t bucket_total = 0;
  for (int64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(HistogramTest, ResetClearsEverything) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("test.hist.reset", {5});
  hist->Record(3);
  hist->Record(7);
  hist->Reset();
  Histogram::Snapshot snap = hist->GetSnapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_DOUBLE_EQ(snap.sum, 0.0);
  for (int64_t b : snap.buckets) EXPECT_EQ(b, 0);
}

TEST(MetricsRegistryTest, ResetAllZerosEveryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("a")->Add(5);
  registry.GetGauge("b")->Set(9);
  registry.GetHistogram("c")->Record(1);
  registry.ResetAll();
  EXPECT_EQ(registry.GetCounter("a")->Value(), 0);
  EXPECT_EQ(registry.GetHistogram("c")->GetSnapshot().count, 0);
}

TEST(MetricsRegistryTest, ToTextListsMetrics) {
  MetricsRegistry registry;
  registry.GetCounter("requests.total")->Add(3);
  registry.GetHistogram("latency", {1, 2})->Record(1.5);
  std::string text = registry.ToText();
  EXPECT_NE(text.find("requests.total 3"), std::string::npos);
  EXPECT_NE(text.find("latency.count"), std::string::npos);
}

TEST(MetricsRegistryTest, ToJsonIsWellFormedEnoughToRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("c.one")->Add(1);
  registry.GetGauge("g\"quoted")->Set(2.5);
  registry.GetHistogram("h.lat", {10})->Record(4);
  std::string json = registry.ToJson();
  // Structural sanity: balanced braces, sections present, name escaped.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("g\\\"quoted"), std::string::npos);
}

TEST(MetricsRegistryTest, DefaultIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::Default(), &MetricsRegistry::Default());
}

// Real work reaches the default registry. A tiles load parses on demand
// (jsonb.ondemand.docs); a scan of JSON text re-parses each document through
// the JSONB transform (jsonb.transform.docs); a vectorized scan counts its
// batches (exec.vec.batches).
TEST(MetricsRegistryTest, LoadAndVectorizedScanBumpDefaultCounters) {
  const char* const kNames[] = {"jsonb.ondemand.docs", "jsonb.transform.docs",
                                "exec.vec.batches"};
  int64_t before[3];
  for (int i = 0; i < 3; i++) {
    before[i] = MetricsRegistry::Default().GetCounter(kNames[i])->Value();
  }

  std::vector<std::string> text;
  for (int i = 0; i < 3000; i++) {
    text.push_back(R"({"k":)" + std::to_string(i) + "}");
  }
  for (auto mode : {storage::StorageMode::kTiles,
                    storage::StorageMode::kJsonText}) {
    storage::Loader loader(mode, {});
    auto rel = loader.Load(text, "t").MoveValueOrDie();
    exec::QueryContext ctx;
    exec::ScanSpec spec;
    spec.relation = rel.get();
    spec.table_alias = "t";
    spec.accesses = {exec::Access("t", {"k"}, exec::ValueType::kInt)};
    spec.filter = exec::Ge(exec::Slot(0), exec::ConstInt(1000));
    EXPECT_EQ(exec::ScanExec(spec, ctx).size(), 2000u);
  }

  for (int i = 0; i < 3; i++) {
    EXPECT_GT(MetricsRegistry::Default().GetCounter(kNames[i])->Value(),
              before[i])
        << kNames[i];
  }
}

}  // namespace
}  // namespace jsontiles::obs
