// Failpoints of the admission layer: service.admit, service.quota_charge,
// and service.spill_reserve. Each injected fault must fail ONLY the affected
// query — with a clean Status — while the group and the service keep
// admitting and answering every other query.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/query_service.h"
#include "storage/loader.h"
#include "util/failpoint.h"
#include "workload/tpch.h"
#include "workload/tpch_queries.h"

namespace jsontiles::service {
namespace {

using exec::QueryContext;

class ServiceFailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisableAll(); }
};

const storage::Relation& SpillyRelation() {
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

Status RunQ18(QueryService& service) {
  return service.Submit("g", {}, [](QueryContext& ctx) {
    workload::RunTpchQuery(18, SpillyRelation(), ctx);
    return Status::OK();
  });
}

TEST_F(ServiceFailpointTest, AdmitFaultFailsOnlyThatQuery) {
  QueryService service;
  ASSERT_TRUE(service.CreateGroup("g", {}).ok());

  failpoint::Enable("service.admit", failpoint::Spec::Nth(1));
  Status first = RunQ18(service);
  EXPECT_EQ(first.code(), StatusCode::kInternal);
  EXPECT_NE(first.message().find("service.admit"), std::string::npos);
  // The very next query sails through the same group.
  EXPECT_TRUE(RunQ18(service).ok());
  auto snap = service.Snapshot("g").ValueOrDie();
  EXPECT_EQ(snap.rejected, 1u);
  EXPECT_EQ(snap.admitted, 1u);
  EXPECT_EQ(service.global_budget()->used(), 0u);
}

TEST_F(ServiceFailpointTest, QuotaChargeFaultFailsOnlyThatQuery) {
  QueryService service;
  ResourceGroupConfig group;
  group.mem_quota_bytes = 16 << 20;
  group.admission_reserve_bytes = 1 << 20;
  ASSERT_TRUE(service.CreateGroup("g", group).ok());

  failpoint::Enable("service.quota_charge", failpoint::Spec::Nth(1));
  Status first = RunQ18(service);
  EXPECT_EQ(first.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(first.message().find("reserve"), std::string::npos);
  EXPECT_TRUE(RunQ18(service).ok());
  auto snap = service.Snapshot("g").ValueOrDie();
  EXPECT_EQ(snap.rejected, 1u);
  EXPECT_EQ(snap.admitted, 1u);
  // A refused reserve must not leave a partial charge on the quota.
  EXPECT_EQ(snap.mem_used_bytes, 0u);
  EXPECT_EQ(service.global_budget()->used(), 0u);
}

TEST_F(ServiceFailpointTest, SpillReserveFaultFailsOnlyTheSpillingQuery) {
  QueryService service;
  ResourceGroupConfig group;
  group.mem_quota_bytes = 1 << 18;  // 256 KiB: Q18 must spill
  ASSERT_TRUE(service.CreateGroup("g", group).ok());

  // Fault the first temp-disk reservation: exactly one spill block is
  // refused, which fails the spilling query with ResourceExhausted.
  failpoint::Enable("service.spill_reserve", failpoint::Spec::Nth(1));
  Status first = RunQ18(service);
  EXPECT_EQ(first.code(), StatusCode::kResourceExhausted) << first.ToString();
  EXPECT_NE(first.message().find("spill-disk"), std::string::npos)
      << first.ToString();
  EXPECT_GE(service.disk_budget()->refused(), 1u);
  // All reservations the failed query did make were returned.
  EXPECT_EQ(service.disk_budget()->used(), 0u);
  // The same query succeeds afterwards — the governor still works.
  EXPECT_TRUE(RunQ18(service).ok());
  EXPECT_EQ(service.disk_budget()->used(), 0u);
  EXPECT_EQ(service.global_budget()->used(), 0u);
}

}  // namespace
}  // namespace jsontiles::service
