// Multi-tenant query service: admission control, resource-group quotas,
// runaway cancellation, the mem_limit/quota clamp, and the SQL session layer
// (SET RESOURCE GROUP / SHOW RESOURCE GROUPS, queue-wait EXPLAIN footer).

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "service/query_service.h"
#include "sql/sql_session.h"
#include "storage/loader.h"

namespace jsontiles::service {
namespace {

using exec::ExecOptions;
using exec::QueryContext;

void SleepMs(uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Busy-wait inside a query until the service cancels it (or a deadline
/// trips the test). Models a long-running query with cooperative
/// cancellation checkpoints.
Status RunUntilCancelled(QueryContext& ctx, uint64_t deadline_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  while (!ctx.cancelled()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return Status::Internal("query was never cancelled");
    }
    SleepMs(1);
  }
  return Status::OK();
}

TEST(QueryServiceTest, GroupCatalog) {
  QueryService service;
  EXPECT_FALSE(service.HasGroup("etl"));
  ASSERT_TRUE(service.CreateGroup("etl", {}).ok());
  ASSERT_TRUE(service.CreateGroup("adhoc", {}).ok());
  EXPECT_TRUE(service.HasGroup("etl"));
  auto st = service.CreateGroup("etl", {});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.GroupNames().size(), 2u);
  EXPECT_TRUE(service.DropGroup("etl").ok());
  EXPECT_FALSE(service.HasGroup("etl"));
  EXPECT_EQ(service.DropGroup("etl").code(), StatusCode::kNotFound);
  EXPECT_EQ(service.CreateGroup("", {}).code(), StatusCode::kInvalidArgument);
  ResourceGroupConfig zero;
  zero.concurrency = 0;
  EXPECT_EQ(service.CreateGroup("z", zero).code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryServiceTest, AdmissionWiresBudgetsIntoOptions) {
  ServiceConfig config;
  config.total_mem_bytes = 1 << 24;
  config.spill_disk_bytes = 1 << 26;
  QueryService service(config);
  ResourceGroupConfig group;
  group.mem_quota_bytes = 1 << 20;
  ASSERT_TRUE(service.CreateGroup("etl", group).ok());

  auto admitted = service.Admit("etl", {});
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  Admission admission = admitted.MoveValueOrDie();
  EXPECT_NE(admission.options().budget_parent, nullptr);
  EXPECT_EQ(admission.options().spill_disk, service.disk_budget());
  // The group quota chains to the global budget, so a query charge shows up
  // at every level and vanishes on release.
  QueryContext ctx(admission.options());
  admission.Attach(&ctx);
  EXPECT_EQ(ctx.resource_group, "etl");
  ASSERT_TRUE(ctx.budget()->TryCharge(1000));
  EXPECT_EQ(service.global_budget()->used(), 1000u);
  ctx.budget()->Release(1000);
  EXPECT_EQ(service.global_budget()->used(), 0u);
  admission.Release();

  EXPECT_EQ(service.Admit("nope", {}).status().code(), StatusCode::kNotFound);
}

TEST(QueryServiceTest, QueueFullRejectsAndTimeoutExpires) {
  QueryService service;
  ResourceGroupConfig group;
  group.concurrency = 1;
  group.max_queue = 1;
  group.queue_timeout_ms = 50;
  ASSERT_TRUE(service.CreateGroup("g", group).ok());

  auto first = service.Admit("g", {});
  ASSERT_TRUE(first.ok());

  // Fill the one queue seat with a waiter that will time out.
  std::atomic<int> timed_out{0};
  std::thread waiter([&] {
    auto r = service.Admit("g", {});
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    timed_out++;
  });
  while (true) {
    auto snap = service.Snapshot("g").ValueOrDie();
    if (snap.queued == 1) break;
    SleepMs(1);
  }
  // Queue full: the next request is rejected immediately, not enqueued.
  auto overflow = service.Admit("g", {});
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  waiter.join();
  EXPECT_EQ(timed_out.load(), 1);
  auto snap = service.Snapshot("g").ValueOrDie();
  EXPECT_EQ(snap.rejected, 1u);
  EXPECT_EQ(snap.timed_out, 1u);
  EXPECT_EQ(snap.queued, 0u);
  EXPECT_EQ(snap.running, 1u);
}

TEST(QueryServiceTest, SlotHandsOffToWaiterInFifoOrder) {
  QueryService service;
  ResourceGroupConfig group;
  group.concurrency = 1;
  group.max_queue = 8;
  ASSERT_TRUE(service.CreateGroup("g", group).ok());

  auto first = service.Admit("g", {});
  ASSERT_TRUE(first.ok());
  Admission held = first.MoveValueOrDie();

  std::atomic<int> done{0};
  std::thread waiter([&] {
    Status st = service.Submit("g", {}, [](QueryContext&) {
      return Status::OK();
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
    done++;
  });
  while (service.Snapshot("g").ValueOrDie().queued != 1) SleepMs(1);
  EXPECT_EQ(done.load(), 0);  // blocked: the slot is ours
  held.Release();
  waiter.join();
  EXPECT_EQ(done.load(), 1);
  auto snap = service.Snapshot("g").ValueOrDie();
  EXPECT_EQ(snap.admitted, 2u);
  EXPECT_EQ(snap.running, 0u);
  // The waiter's admission recorded a real queue wait, surfaced for the
  // EXPLAIN ANALYZE footer.
}

// Satellite regression: a per-query mem_limit larger than the group's
// remaining quota must be clamped at admission (with a metric), never
// over-admitted.
TEST(QueryServiceTest, MemLimitClampedToGroupQuota) {
  QueryService service;
  ResourceGroupConfig group;
  group.mem_quota_bytes = 1 << 20;  // 1 MiB quota
  ASSERT_TRUE(service.CreateGroup("g", group).ok());

  const int64_t clamps_before =
      obs::GroupCounter("g", "mem_limit_clamped")->Value();
  const int64_t defaults_before =
      obs::GroupCounter("g", "mem_limit_defaulted")->Value();

  ExecOptions options;
  options.mem_limit_bytes = 16 << 20;  // asks for 16x the quota
  auto admitted = service.Admit("g", options);
  ASSERT_TRUE(admitted.ok());
  Admission a = admitted.MoveValueOrDie();
  EXPECT_TRUE(a.clamped());
  EXPECT_LE(a.options().mem_limit_bytes, size_t{1} << 20);
  EXPECT_GT(a.options().mem_limit_bytes, 0u);

  // An unlimited request under a limited quota is lowered to the headroom
  // too — the sum of admitted limits must stay within the group — but it is
  // a routine defaulting, not a caller over-ask, so it must not pollute the
  // over-admission `clamped` metric.
  ExecOptions unlimited;
  auto admitted2 = service.Admit("g", unlimited);
  ASSERT_TRUE(admitted2.ok());
  EXPECT_FALSE(admitted2.ValueOrDie().clamped());
  EXPECT_GT(admitted2.ValueOrDie().options().mem_limit_bytes, 0u);
  EXPECT_LE(admitted2.ValueOrDie().options().mem_limit_bytes,
            size_t{1} << 20);

  // A modest request passes through untouched.
  ExecOptions small;
  small.mem_limit_bytes = 1 << 16;
  auto admitted3 = service.Admit("g", small);
  ASSERT_TRUE(admitted3.ok());
  EXPECT_FALSE(admitted3.ValueOrDie().clamped());
  EXPECT_EQ(admitted3.ValueOrDie().options().mem_limit_bytes,
            size_t{1} << 16);

  EXPECT_EQ(service.Snapshot("g").ValueOrDie().clamped, 1u);
  EXPECT_EQ(service.Snapshot("g").ValueOrDie().defaulted, 1u);
  EXPECT_EQ(obs::GroupCounter("g", "mem_limit_clamped")->Value(),
            clamps_before + 1);
  EXPECT_EQ(obs::GroupCounter("g", "mem_limit_defaulted")->Value(),
            defaults_before + 1);
}

// Regression: a waiter that ReleaseQuery has just granted (popped from the
// queue, slot transferred) is in neither `queue` nor `active` until it
// reacquires the service mutex. DropGroup's drain used to watch only
// `active`, so a drop landing in that window erased the group — condition
// variable and all — out from under the granted waiter (use-after-free,
// caught by ASan). The drain must also wait for the slot and the waiter to
// come home. Hammer the window: release the held slot and drop the group
// concurrently, many times.
TEST(QueryServiceTest, DropGroupRacesWithSlotHandoff) {
  QueryService service;
  for (int iter = 0; iter < 200; ++iter) {
    const std::string name = "race" + std::to_string(iter);
    ResourceGroupConfig cfg;
    cfg.concurrency = 1;
    cfg.max_queue = 4;
    cfg.queue_timeout_ms = 5000;
    ASSERT_TRUE(service.CreateGroup(name, cfg).ok());

    auto holder = service.Admit(name, {});
    ASSERT_TRUE(holder.ok());
    Admission slot = holder.MoveValueOrDie();

    std::thread waiter([&service, &name] {
      auto admitted = service.Admit(name, {});
      if (admitted.ok()) {
        // Granted before the drop landed: give the slot straight back.
        admitted.ValueOrDie().Release();
      } else {
        EXPECT_EQ(admitted.status().code(), StatusCode::kCancelled)
            << admitted.status().ToString();
      }
    });
    // The slot is occupied, so the waiter always queues; wait until it has.
    while (service.Snapshot(name).ValueOrDie().queued == 0) {
      std::this_thread::yield();
    }

    std::thread dropper([&service, &name] { (void)service.DropGroup(name); });
    slot.Release();  // grants the waiter's slot while the drop races in
    dropper.join();
    waiter.join();
    EXPECT_FALSE(service.HasGroup(name));
  }
}

TEST(QueryServiceTest, AdmissionReserveRefusedWhenQuotaFull) {
  QueryService service;
  ResourceGroupConfig group;
  group.concurrency = 4;
  group.mem_quota_bytes = 1 << 20;
  group.admission_reserve_bytes = 600 << 10;  // two reserves exceed the quota
  ASSERT_TRUE(service.CreateGroup("g", group).ok());

  auto first = service.Admit("g", {});
  ASSERT_TRUE(first.ok());
  auto second = service.Admit("g", {});
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  // Releasing the first returns its reserve; admission succeeds again.
  first.ValueOrDie().Release();
  EXPECT_EQ(service.global_budget()->used(), 0u);
  auto third = service.Admit("g", {});
  EXPECT_TRUE(third.ok()) << third.status().ToString();
}

TEST(QueryServiceTest, DropGroupCancelsRunningAndAbortsWaiters) {
  QueryService service;
  ResourceGroupConfig group;
  group.concurrency = 1;
  group.max_queue = 4;
  ASSERT_TRUE(service.CreateGroup("g", group).ok());

  std::atomic<int> cancelled{0}, aborted{0};
  std::thread runner([&] {
    Status st = service.Submit(
        "g", {}, [](QueryContext& ctx) { return RunUntilCancelled(ctx); });
    EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
    cancelled++;
  });
  while (service.Snapshot("g").ValueOrDie().running != 1) SleepMs(1);
  std::thread waiter([&] {
    auto r = service.Admit("g", {});
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
    aborted++;
  });
  while (service.Snapshot("g").ValueOrDie().queued != 1) SleepMs(1);

  ASSERT_TRUE(service.DropGroup("g").ok());
  runner.join();
  waiter.join();
  EXPECT_EQ(cancelled.load(), 1);
  EXPECT_EQ(aborted.load(), 1);
  EXPECT_FALSE(service.HasGroup("g"));
  EXPECT_EQ(service.global_budget()->used(), 0u);
  // The name is reusable immediately.
  EXPECT_TRUE(service.CreateGroup("g", {}).ok());
}

TEST(QueryServiceTest, RunawayWallClockCancelled) {
  QueryService service(ServiceConfig{});
  ResourceGroupConfig group;
  group.runaway_wall_ms = 20;
  ASSERT_TRUE(service.CreateGroup("g", group).ok());

  Status st = service.Submit(
      "g", {}, [](QueryContext& ctx) { return RunUntilCancelled(ctx); });
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  EXPECT_NE(st.message().find("runaway"), std::string::npos);
  EXPECT_EQ(service.Snapshot("g").ValueOrDie().cancelled, 1u);
}

TEST(QueryServiceTest, RunawayMemoryWatermarkCancelsLargestConsumer) {
  QueryService service(ServiceConfig{});
  ResourceGroupConfig group;
  group.concurrency = 2;
  group.mem_quota_bytes = 1 << 20;
  group.runaway_mem_fraction = 0.5;
  ASSERT_TRUE(service.CreateGroup("g", group).ok());

  // Query A stays tiny; query B blows past the watermark. B must die first
  // (largest consumer); A may survive or — if the group is still above the
  // watermark on the next tick before B returns its memory — be shed too.
  std::atomic<bool> big_charged{false};
  Status small_st, big_st;
  std::thread small([&] {
    small_st = service.Submit("g", {}, [&](QueryContext& ctx) {
      EXPECT_TRUE(ctx.budget()->TryCharge(1024));
      // Stay resident until the big query has charged, so the monitor has
      // two candidates to choose between when the watermark trips.
      while (!big_charged.load()) SleepMs(1);
      ctx.budget()->Release(1024);
      return Status::OK();
    });
  });
  std::thread big([&] {
    big_st = service.Submit("g", {}, [&](QueryContext& ctx) {
      EXPECT_TRUE(ctx.budget()->TryCharge(768 << 10));
      big_charged = true;
      Status st = RunUntilCancelled(ctx);
      ctx.budget()->Release(768 << 10);
      return st;
    });
  });
  big.join();
  small.join();
  EXPECT_EQ(big_st.code(), StatusCode::kCancelled) << big_st.ToString();
  EXPECT_NE(big_st.message().find("watermark"), std::string::npos);
  EXPECT_TRUE(small_st.ok() || small_st.code() == StatusCode::kCancelled)
      << small_st.ToString();
  EXPECT_EQ(service.global_budget()->used(), 0u);
}

// --- SQL session layer ---------------------------------------------------

const storage::Relation& TinyRelation() {
  static std::unique_ptr<storage::Relation> rel = [] {
    std::vector<std::string> docs;
    for (int i = 0; i < 64; i++) {
      docs.push_back("{\"k\":" + std::to_string(i) + ",\"grp\":" +
                     std::to_string(i % 4) + "}");
    }
    storage::Loader loader(storage::StorageMode::kTiles, {});
    return loader.Load(docs, "t").MoveValueOrDie();
  }();
  return *rel;
}

TEST(SqlSessionTest, SetAndShowResourceGroups) {
  QueryService service;
  ASSERT_TRUE(service.CreateGroup("adhoc", {}).ok());
  ASSERT_TRUE(service.CreateGroup("etl", {}).ok());
  sql::SqlCatalog catalog;
  catalog.tables["t"] = &TinyRelation();
  sql::SqlSession session(&catalog, &service);

  // Defaults to the first group alphabetically.
  EXPECT_EQ(session.resource_group(), "adhoc");
  auto set = session.Execute("SET RESOURCE GROUP etl");
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(session.resource_group(), "etl");
  EXPECT_EQ(session.Execute("set resource group etl;").status().code(),
            StatusCode::kOk);
  EXPECT_EQ(session.Execute("SET RESOURCE GROUP missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(session.Execute("SET search_path TO x").status().code(),
            StatusCode::kUnsupported);

  auto query = session.Execute(
      "SELECT COUNT(*) FROM t d WHERE d->>'k'::BigInt < 10");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query.ValueOrDie().rows.size(), 1u);
  EXPECT_EQ(query.ValueOrDie().rows[0][0].i, 10);

  auto show = session.Execute("SHOW RESOURCE GROUPS");
  ASSERT_TRUE(show.ok()) << show.status().ToString();
  const sql::SqlResult& groups = show.ValueOrDie();
  ASSERT_EQ(groups.rows.size(), 2u);
  EXPECT_EQ(groups.column_names.front(), "group");
  EXPECT_EQ(std::string(groups.rows[0][0].s()), "adhoc");
  EXPECT_EQ(std::string(groups.rows[1][0].s()), "etl");
  EXPECT_EQ(groups.rows[1][6].i, 1);  // etl admitted the COUNT(*) above
}

TEST(SqlSessionTest, ExplainAnalyzeReportsGroupAndQueueWait) {
  QueryService service;
  ASSERT_TRUE(service.CreateGroup("adhoc", {}).ok());
  sql::SqlCatalog catalog;
  catalog.tables["t"] = &TinyRelation();
  sql::SqlSession session(&catalog, &service);

  auto result = session.Execute(
      "EXPLAIN ANALYZE SELECT SUM(d->>'k'::BigInt) FROM t d");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::string plan;
  for (const auto& row : result.ValueOrDie().rows) {
    plan += std::string(row[0].s()) + "\n";
  }
  EXPECT_NE(plan.find("Resource group: adhoc, queue wait:"),
            std::string::npos)
      << plan;
}

TEST(SqlSessionTest, UngovernedSessionExecutesDirectly) {
  sql::SqlCatalog catalog;
  catalog.tables["t"] = &TinyRelation();
  sql::SqlSession session(&catalog, nullptr);
  auto result = session.Execute("SELECT COUNT(*) FROM t d");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().rows[0][0].i, 64);
  EXPECT_EQ(session.Execute("SET RESOURCE GROUP g").status().code(),
            StatusCode::kUnsupported);
}

TEST(SqlSessionTest, ResultsSurviveUntilNextExecute) {
  QueryService service;
  ASSERT_TRUE(service.CreateGroup("g", {}).ok());
  sql::SqlCatalog catalog;
  catalog.tables["t"] = &TinyRelation();
  sql::SqlSession session(&catalog, &service);
  auto result = session.Execute(
      "SELECT d->>'k'::BigInt AS k FROM t d ORDER BY 1 LIMIT 3");
  ASSERT_TRUE(result.ok());
  // The admission slot is already back (no query running), yet the rows are
  // still valid: the session keeps the context alive.
  EXPECT_EQ(service.Snapshot("g").ValueOrDie().running, 0u);
  const exec::RowSet& rows = result.ValueOrDie().rows;
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[2][0].i, 2);
}

}  // namespace
}  // namespace jsontiles::service
