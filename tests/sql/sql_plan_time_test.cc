// Plan-time sampling runs through the scan: its failures fail the statement
// (plain EXPLAIN and execution alike), and a traced EXPLAIN attributes plan
// time to parse, bind, estimate (the sampling scans nest inside it) and
// join-order spans.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "sql/sql_parser.h"
#include "storage/loader.h"
#include "util/failpoint.h"

namespace jsontiles::sql {
namespace {

using storage::Loader;
using storage::Relation;
using storage::StorageMode;

constexpr const char* kJoin =
    "SELECT c->>'name', COUNT(*) FROM orders o, customers c "
    "WHERE o->>'cid'::BigInt = c->>'cid'::BigInt "
    "AND o->>'total'::BigInt < 50 GROUP BY c->>'name'";

class PlanTimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<std::string> docs;
    for (int i = 0; i < 2000; i++) {
      docs.push_back(R"({"oid":)" + std::to_string(i) + R"(,"cid":)" +
                     std::to_string(i % 20) + R"(,"total":)" +
                     std::to_string(i % 97) + "}");
    }
    for (int c = 0; c < 20; c++) {
      docs.push_back(R"({"cid":)" + std::to_string(c) + R"(,"name":"c)" +
                     std::to_string(c) + R"("})");
    }
    rel_ = Loader(StorageMode::kTiles, {}).Load(docs, "shop").MoveValueOrDie();
    catalog_.tables["orders"] = rel_.get();
    catalog_.tables["customers"] = rel_.get();
  }
  void TearDown() override { failpoint::DisableAll(); }

  std::unique_ptr<Relation> rel_;
  SqlCatalog catalog_;
};

TEST_F(PlanTimeTest, FailedSampleScanFailsExplainAndExecution) {
  exec::QueryContext ctx;
  for (const std::string& statement :
       {std::string("EXPLAIN ") + kJoin, std::string(kJoin)}) {
    failpoint::Enable("exec.scan.chunk", failpoint::Spec::Nth(1));
    auto failed = ExecuteSql(statement, catalog_, ctx);
    ASSERT_FALSE(failed.ok()) << statement;
    EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
    EXPECT_NE(failed.status().message().find("exec.scan.chunk"),
              std::string::npos)
        << failed.status().ToString();
    failpoint::DisableAll();
    auto next = ExecuteSql(statement, catalog_, ctx);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_FALSE(next.ValueOrDie().rows.empty());
  }
}

TEST_F(PlanTimeTest, TracedExplainAttributesPlanTime) {
  obs::TraceCollector& collector = obs::TraceCollector::Default();
  collector.Clear();
  collector.set_enabled(true);
  exec::QueryContext ctx;
  auto plan = ExecuteSql(std::string("EXPLAIN ") + kJoin, catalog_, ctx);
  collector.set_enabled(false);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::vector<obs::TraceEvent> events = collector.Snapshot();
  collector.Clear();

  auto find = [&](const std::string& name) -> const obs::TraceEvent* {
    for (const auto& e : events) {
      if (e.name == name) return &e;
    }
    return nullptr;
  };
  auto end = [](const obs::TraceEvent& e) { return e.ts_micros + e.dur_micros; };
  const obs::TraceEvent* parse = find("sql.parse");
  const obs::TraceEvent* bind = find("sql.bind");
  const obs::TraceEvent* estimate = find("opt.estimate");
  const obs::TraceEvent* join_order = find("opt.join_order");
  ASSERT_NE(parse, nullptr);
  ASSERT_NE(bind, nullptr);
  ASSERT_NE(estimate, nullptr);
  ASSERT_NE(join_order, nullptr);
  // One after the other: parse, bind, estimate, join order.
  EXPECT_LE(end(*parse), bind->ts_micros);
  EXPECT_LE(end(*bind), estimate->ts_micros);
  EXPECT_LE(end(*estimate), join_order->ts_micros);
  // Every scan of a plain EXPLAIN is a sampling scan inside the estimate.
  size_t scans = 0;
  for (const auto& e : events) {
    if (e.name != "exec.scan") continue;
    scans++;
    EXPECT_GE(e.ts_micros, estimate->ts_micros);
    EXPECT_LE(end(e), end(*estimate));
  }
  EXPECT_GE(scans, 1u);
}

}  // namespace
}  // namespace jsontiles::sql
