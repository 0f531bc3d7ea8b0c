#include "obs/trace.h"

#include <new>
#include <thread>

#include <gtest/gtest.h>

#include "obs/plan_profile.h"

namespace jsontiles::obs {
namespace {

TEST(TraceSpanTest, DisabledCollectorRecordsNothing) {
  TraceCollector collector;
  { TraceSpan span("noop", collector); }
  EXPECT_TRUE(collector.Snapshot().empty());
}

TEST(TraceSpanTest, NestedSpansRecordInnerFirst) {
  TraceCollector collector;
  collector.set_enabled(true);
  {
    TraceSpan outer("outer", collector);
    { TraceSpan inner("inner", collector); }
  }
  auto events = collector.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Destruction order: inner closes (and records) before outer.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  // The outer span contains the inner one.
  EXPECT_LE(events[1].ts_micros, events[0].ts_micros);
  EXPECT_GE(events[1].ts_micros + events[1].dur_micros,
            events[0].ts_micros + events[0].dur_micros);
}

TEST(TraceSpanTest, EnabledAtEntryWins) {
  // A span started while disabled must not record, even if tracing turns on
  // before it closes.
  TraceCollector collector;
  {
    TraceSpan span("late", collector);
    collector.set_enabled(true);
  }
  EXPECT_TRUE(collector.Snapshot().empty());
}

TEST(TraceCollectorTest, ThreadsGetDistinctIds) {
  TraceCollector collector;
  collector.set_enabled(true);
  { TraceSpan span("main", collector); }
  std::thread worker([&] { TraceSpan span("worker", collector); });
  worker.join();
  auto events = collector.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(TraceCollectorTest, ClearDropsEvents) {
  TraceCollector collector;
  collector.set_enabled(true);
  { TraceSpan span("gone", collector); }
  collector.Clear();
  EXPECT_TRUE(collector.Snapshot().empty());
}

TEST(TraceCollectorTest, ChromeJsonShape) {
  TraceCollector collector;
  collector.set_enabled(true);
  { TraceSpan span("phase \"one\"", collector); }
  std::string json = collector.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("phase \\\"one\\\""), std::string::npos);  // escaped
}

// A collector built in the storage of a destroyed one must get its own
// thread buffer, not the freed buffer the thread still has cached.
TEST(TraceCollectorTest, CollectorAtReusedAddressGetsFreshBuffer) {
  alignas(TraceCollector) unsigned char storage[sizeof(TraceCollector)];
  auto* first = new (storage) TraceCollector();
  first->Record("first", 0, 1);
  first->~TraceCollector();
  auto* second = new (storage) TraceCollector();
  second->Record("second", 0, 1);
  const std::vector<TraceEvent> events = second->Snapshot();
  second->~TraceCollector();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "second");
}

// /dev/full accepts the buffered write and fails the flush in fclose, whose
// result used to be ignored.
TEST(TraceCollectorTest, WriteToFullDeviceFails) {
  TraceCollector collector;
  collector.set_enabled(true);
  { TraceSpan span("full", collector); }
  EXPECT_FALSE(collector.WriteChromeTrace("/dev/full").ok());
}

TEST(ScopedTimerTest, RecordsIntoHistogramAndOutput) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("t", {1e9});
  double secs = -1;
  { ScopedTimer timer(hist, &secs); }
  EXPECT_GE(secs, 0);
  EXPECT_EQ(hist->GetSnapshot().count, 1);
}

TEST(PlanProfileTest, FormatTreeIndentsChildren) {
  PlanProfile profile;
  OperatorStats scan;
  scan.name = "Scan";
  scan.detail = "events";
  scan.rows_in = 100;
  scan.rows_out = 40;
  int scan_id = profile.Add(scan);
  OperatorStats filter;
  filter.name = "Filter";
  filter.rows_in = 40;
  filter.rows_out = 7;
  filter.children.push_back(scan_id);
  int filter_id = profile.Add(filter);
  profile.SetRoot(filter_id);

  std::string text = profile.FormatTree();
  size_t filter_pos = text.find("Filter");
  size_t scan_pos = text.find("Scan");
  ASSERT_NE(filter_pos, std::string::npos);
  ASSERT_NE(scan_pos, std::string::npos);
  EXPECT_LT(filter_pos, scan_pos);  // root first
  EXPECT_NE(text.find("rows in=40"), std::string::npos);
  EXPECT_NE(text.find("rows out=7"), std::string::npos);
  EXPECT_NE(text.find("events"), std::string::npos);
}

TEST(PlanProfileTest, ChainLinksLinearPipeline) {
  PlanProfile profile;
  OperatorStats a;
  a.name = "A";
  profile.SetRoot(profile.Add(a));
  OperatorStats b;
  b.name = "B";
  profile.Chain(profile.Add(b));
  EXPECT_EQ(profile.op(profile.root()).name, "B");
  ASSERT_EQ(profile.op(profile.root()).children.size(), 1u);
  EXPECT_EQ(profile.op(profile.op(profile.root()).children[0]).name, "A");
}

TEST(PlanProfileTest, ProfilerIsNoOpOnNullProfile) {
  OperatorProfiler profiler(nullptr, "Ghost");
  EXPECT_FALSE(profiler.active());
  profiler.set_rows_in(1);  // must not crash
  profiler.set_rows_out(2);
}

TEST(PlanProfileTest, ProfilerAppendsOnDestruction) {
  PlanProfile profile;
  {
    OperatorProfiler profiler(&profile, "Agg", "2 keys");
    profiler.set_rows_in(10);
    profiler.set_rows_out(3);
    profiler.AddCounter("groups", 3);
    EXPECT_EQ(profile.size(), 0u);  // nothing until the scope closes
  }
  ASSERT_EQ(profile.size(), 1u);
  const OperatorStats& stats = profile.op(profile.last_id());
  EXPECT_EQ(stats.name, "Agg");
  EXPECT_EQ(stats.rows_in, 10);
  EXPECT_EQ(stats.rows_out, 3);
  EXPECT_GE(stats.wall_nanos, 0);
  ASSERT_EQ(stats.counters.size(), 1u);
  EXPECT_EQ(stats.counters[0].first, "groups");
}

}  // namespace
}  // namespace jsontiles::obs
