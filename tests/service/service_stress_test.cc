// Cancellation/race stress: seeded client threads hammer the service with
// real queries while a chaos thread cancels groups, exhausts quotas, and
// tears groups down mid-flight. Pass criteria: no deadlock (the test
// finishes), no budget leak (the global MemoryBudget and the spill-disk
// governor return to zero), and every query ends in a clean, expected
// Status. Run under TSan in CI (the full-suite TSan job).

#include <atomic>
#include <chrono>
#include <iterator>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/query_service.h"
#include "storage/loader.h"
#include "workload/tpch.h"
#include "workload/tpch_queries.h"

namespace jsontiles::service {
namespace {

using exec::QueryContext;

const storage::Relation& StressRelation() {
  static std::unique_ptr<storage::Relation> rel = [] {
    workload::TpchOptions options;
    options.scale_factor = 0.002;
    auto data = workload::GenerateTpch(options);
    tiles::TileConfig tiles;
    tiles.tile_size = 128;
    storage::Loader loader(storage::StorageMode::kTiles, tiles);
    return loader.Load(data.combined, "tpch").MoveValueOrDie();
  }();
  return *rel;
}

bool CleanStatus(const Status& st) {
  switch (st.code()) {
    case StatusCode::kOk:
    case StatusCode::kCancelled:          // chaos cancel / drop / runaway
    case StatusCode::kResourceExhausted:  // queue, quota, spill-disk refusal
    case StatusCode::kNotFound:           // group dropped before admission
      return true;
    default:
      return false;
  }
}

TEST(ServiceStressTest, ChaosCancellationNoDeadlockNoLeak) {
  StressRelation();  // materialize before the clock starts

  ServiceConfig config;
  config.total_mem_bytes = 16 << 20;
  config.spill_disk_bytes = 8 << 20;  // small enough to refuse under load
  QueryService service(config);

  const std::vector<std::string> group_names = {"alpha", "beta"};
  auto make_group = [&](const std::string& name) {
    ResourceGroupConfig group;
    group.concurrency = 2;
    group.max_queue = 8;
    group.queue_timeout_ms = 30000;
    group.mem_quota_bytes = 1 << 20;  // tight: quota-induced spill under load
    group.runaway_wall_ms = 2000;
    return service.CreateGroup(name, group);
  };
  for (const auto& name : group_names) ASSERT_TRUE(make_group(name).ok());

  constexpr size_t kClients = 4;
  constexpr int kQueriesPerClient = 24;
  const int stress_queries[] = {1, 3, 6, 18};  // scan, join, filter, big join

  std::atomic<bool> chaos_stop{false};
  std::atomic<int> completed{0};
  std::vector<std::string> dirty;
  std::mutex dirty_mu;

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; c++) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(1234 + static_cast<unsigned>(c));  // seeded: replayable
      for (int i = 0; i < kQueriesPerClient; i++) {
        const std::string& group = group_names[rng() % group_names.size()];
        const int q = stress_queries[rng() % std::size(stress_queries)];
        Status st = service.Submit(group, {}, [&](QueryContext& ctx) {
          workload::RunTpchQuery(q, StressRelation(), ctx);
          return Status::OK();
        });
        if (!CleanStatus(st)) {
          std::lock_guard<std::mutex> lock(dirty_mu);
          dirty.push_back("client " + std::to_string(c) + " Q" +
                          std::to_string(q) + ": " + st.ToString());
        }
        completed++;
      }
    });
  }

  std::thread chaos([&] {
    std::mt19937 rng(99);  // seeded: the interleaving pressure is replayable
    while (!chaos_stop.load()) {
      const std::string& group = group_names[rng() % group_names.size()];
      switch (rng() % 3) {
        case 0:
          service.CancelGroup(group,
                              Status::Cancelled("chaos: administrative kill"));
          break;
        case 1: {
          // Tear the group down mid-flight and recreate it, so clients see
          // NotFound or Cancelled but never a crash or a leak.
          if (service.DropGroup(group).ok()) {
            ASSERT_TRUE(make_group(group).ok());
          }
          break;
        }
        case 2: {
          // Exhaust the group quota for a moment: concurrent admissions and
          // operator charges must degrade (spill / clamp / reject), not leak.
          auto admitted = service.Admit(group, {});
          if (admitted.ok()) {
            Admission a = admitted.MoveValueOrDie();
            QueryContext ctx(a.options());
            a.Attach(&ctx);
            if (ctx.budget()->TryCharge(1 << 20)) {
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
              ctx.budget()->Release(1 << 20);
            }
            a.Release();
          }
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  for (auto& c : clients) c.join();
  chaos_stop = true;
  chaos.join();

  EXPECT_EQ(completed.load(), static_cast<int>(kClients * kQueriesPerClient));
  for (const auto& d : dirty) ADD_FAILURE() << d;

  // No budget leak: every charge, reserve, and spill block was returned.
  EXPECT_EQ(service.global_budget()->used(), 0u) << "memory budget leak";
  EXPECT_EQ(service.disk_budget()->used(), 0u) << "spill-disk budget leak";
  for (const auto& name : group_names) {
    auto snap = service.Snapshot(name);
    if (!snap.ok()) continue;  // dropped in the last chaos action
    EXPECT_EQ(snap.ValueOrDie().running, 0u);
    EXPECT_EQ(snap.ValueOrDie().queued, 0u);
    EXPECT_EQ(snap.ValueOrDie().mem_used_bytes, 0u);
  }
}

// Destroying the service while queries are in flight: the destructor cancels
// and drains cleanly (regression guard for the shutdown path).
TEST(ServiceStressTest, ShutdownWhileQueriesInFlight) {
  std::vector<std::thread> clients;
  std::vector<Status> results(3);
  {
    QueryService service;
    ResourceGroupConfig group;
    group.concurrency = 2;
    ASSERT_TRUE(service.CreateGroup("g", group).ok());
    std::atomic<int> started{0};
    for (size_t i = 0; i < results.size(); i++) {
      clients.emplace_back([&, i] {
        results[i] = service.Submit("g", {}, [&](QueryContext& ctx) {
          started++;
          while (!ctx.cancelled()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return Status::OK();
        });
      });
    }
    // Concurrency 2: wait until the third client is actually in the queue —
    // not just until two started — or a slow thread could reach Admit after
    // shutdown began and get NotFound instead of the queued-abort Cancelled.
    while (started.load() < 2 ||
           service.Snapshot("g").ValueOrDie().queued < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // ~QueryService cancels the running pair, aborts the waiter, drains.
  }
  for (auto& c : clients) c.join();
  for (const auto& st : results) {
    EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  }
}

}  // namespace
}  // namespace jsontiles::service
