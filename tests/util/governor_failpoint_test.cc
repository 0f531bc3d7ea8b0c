#include "util/resource_governor.h"

#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/failpoint.h"
#include "util/temp_file.h"

namespace jsontiles {
namespace {

// ---------------------------------------------------------------------------
// MemoryBudget
// ---------------------------------------------------------------------------

TEST(MemoryBudgetTest, UnlimitedAcceptsEverything) {
  MemoryBudget budget;
  EXPECT_TRUE(budget.TryCharge(1ull << 40));
  EXPECT_EQ(budget.used(), 1ull << 40);
  EXPECT_EQ(budget.remaining(), SIZE_MAX);
  budget.Release(1ull << 40);
  EXPECT_EQ(budget.used(), 0u);
}

TEST(MemoryBudgetTest, HardLimitRefusesAndRollsBack) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.TryCharge(600));
  EXPECT_FALSE(budget.TryCharge(500));  // would exceed
  EXPECT_EQ(budget.used(), 600u);       // refusal left usage unchanged
  EXPECT_EQ(budget.remaining(), 400u);
  EXPECT_TRUE(budget.TryCharge(400));
  EXPECT_EQ(budget.remaining(), 0u);
  budget.Release(1000);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.peak(), 1000u);
}

TEST(MemoryBudgetTest, HierarchyChargesEveryAncestor) {
  MemoryBudget root(1000);
  MemoryBudget child_a(MemoryBudget::kUnlimited, &root);
  MemoryBudget child_b(MemoryBudget::kUnlimited, &root);
  EXPECT_TRUE(child_a.TryCharge(700));
  EXPECT_EQ(root.used(), 700u);
  // The parent's limit refuses through an unlimited child, and the failed
  // charge must not stick at the child either.
  EXPECT_FALSE(child_b.TryCharge(400));
  EXPECT_EQ(child_b.used(), 0u);
  EXPECT_EQ(root.used(), 700u);
  EXPECT_TRUE(child_b.TryCharge(300));
  child_a.Release(700);
  child_b.Release(300);
  EXPECT_EQ(root.used(), 0u);
}

TEST(MemoryBudgetTest, TighterChildLimitWins) {
  MemoryBudget root(1ull << 30);
  MemoryBudget child(100, &root);
  EXPECT_FALSE(child.TryCharge(101));
  EXPECT_EQ(root.used(), 0u);  // child refusal never reached the parent
  EXPECT_TRUE(child.TryCharge(100));
  EXPECT_EQ(root.used(), 100u);
}

TEST(MemoryBudgetTest, ConcurrentChargesNeverExceedLimit) {
  constexpr size_t kLimit = 10000;
  MemoryBudget budget(kLimit);
  std::vector<std::thread> threads;
  std::atomic<size_t> granted{0};
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; i++) {
        if (budget.TryCharge(7)) {
          granted.fetch_add(7);
          budget.Release(7);
          granted.fetch_sub(7);
        }
        ASSERT_LE(budget.used(), kLimit);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_LE(budget.peak(), kLimit);
}

TEST(BudgetReservationTest, ReleasesOnDestruction) {
  MemoryBudget budget(1000);
  {
    BudgetReservation res(&budget);
    EXPECT_TRUE(res.Grow(400));
    EXPECT_TRUE(res.Grow(400));
    EXPECT_FALSE(res.Grow(400));
    EXPECT_EQ(res.held(), 800u);
    EXPECT_EQ(budget.used(), 800u);
  }
  EXPECT_EQ(budget.used(), 0u);
}

TEST(BudgetReservationTest, NullBudgetIsUnlimited) {
  BudgetReservation res(nullptr);
  EXPECT_TRUE(res.Grow(1ull << 40));
  EXPECT_EQ(res.held(), 1ull << 40);
}

// ---------------------------------------------------------------------------
// Failpoints
// ---------------------------------------------------------------------------

class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisableAll(); }
};

TEST_F(FailpointTest, DisabledNeverFires) {
  EXPECT_FALSE(failpoint::Fires("test.unarmed"));
  EXPECT_TRUE(failpoint::Check("test.unarmed").ok());
}

TEST_F(FailpointTest, AlwaysMode) {
  failpoint::Enable("test.always", failpoint::Spec::Always());
  EXPECT_TRUE(failpoint::Fires("test.always"));
  EXPECT_TRUE(failpoint::Fires("test.always"));
  Status st = failpoint::Check("test.always");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(failpoint::Hits("test.always"), 3u);
}

TEST_F(FailpointTest, NthModeFiresExactlyOnce) {
  failpoint::Enable("test.nth", failpoint::Spec::Nth(3));
  EXPECT_FALSE(failpoint::Fires("test.nth"));
  EXPECT_FALSE(failpoint::Fires("test.nth"));
  EXPECT_TRUE(failpoint::Fires("test.nth"));
  EXPECT_FALSE(failpoint::Fires("test.nth"));  // only the 3rd hit
}

TEST_F(FailpointTest, EveryKMode) {
  failpoint::Enable("test.everyk", failpoint::Spec::EveryK(2));
  int fired = 0;
  for (int i = 0; i < 10; i++) {
    if (failpoint::Fires("test.everyk")) fired++;
  }
  EXPECT_EQ(fired, 5);
}

TEST_F(FailpointTest, ReenableResetsHitCount) {
  failpoint::Enable("test.reset", failpoint::Spec::Nth(2));
  EXPECT_FALSE(failpoint::Fires("test.reset"));
  failpoint::Enable("test.reset", failpoint::Spec::Nth(2));
  EXPECT_FALSE(failpoint::Fires("test.reset"));
  EXPECT_TRUE(failpoint::Fires("test.reset"));
}

TEST_F(FailpointTest, GovernorChargeFailpoint) {
  MemoryBudget budget;  // unlimited, yet the failpoint still refuses
  failpoint::Enable("governor.charge", failpoint::Spec::Nth(2));
  EXPECT_TRUE(budget.TryCharge(10));
  EXPECT_FALSE(budget.TryCharge(10));
  EXPECT_EQ(budget.used(), 10u);  // refused charge rolled back
  EXPECT_TRUE(budget.TryCharge(10));
}

TEST_F(FailpointTest, TempFileFailpoints) {
  failpoint::Enable("tempfile.create", failpoint::Spec::Always());
  EXPECT_FALSE(TempFile::Create().ok());
  failpoint::Disable("tempfile.create");

  auto file = TempFile::Create();
  ASSERT_TRUE(file.ok());
  TempFile tf = file.MoveValueOrDie();
  failpoint::Enable("tempfile.append", failpoint::Spec::Always());
  EXPECT_FALSE(tf.Append("abc", 3).ok());
  failpoint::Disable("tempfile.append");
  ASSERT_TRUE(tf.Append("abc", 3).ok());

  failpoint::Enable("tempfile.read", failpoint::Spec::Always());
  char buf[3];
  EXPECT_FALSE(tf.ReadAt(0, buf, 3).ok());
  failpoint::Disable("tempfile.read");
  ASSERT_TRUE(tf.ReadAt(0, buf, 3).ok());
  EXPECT_EQ(std::memcmp(buf, "abc", 3), 0);
}

// ---------------------------------------------------------------------------
// TempFile
// ---------------------------------------------------------------------------

TEST(TempFileTest, AppendReadRoundTrip) {
  auto file = TempFile::Create();
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  TempFile tf = file.MoveValueOrDie();
  ASSERT_TRUE(tf.valid());
  std::string payload(100000, 'x');
  for (size_t i = 0; i < payload.size(); i++) {
    payload[i] = static_cast<char>(i * 31);
  }
  ASSERT_TRUE(tf.Append(payload.data(), payload.size()).ok());
  ASSERT_TRUE(tf.Append("tail", 4).ok());
  EXPECT_EQ(tf.size(), payload.size() + 4);

  std::string back(payload.size(), 0);
  ASSERT_TRUE(tf.ReadAt(0, back.data(), back.size()).ok());
  EXPECT_EQ(back, payload);
  char tail[4];
  ASSERT_TRUE(tf.ReadAt(payload.size(), tail, 4).ok());
  EXPECT_EQ(std::memcmp(tail, "tail", 4), 0);
}

TEST(TempFileTest, ShortReadIsError) {
  auto file = TempFile::Create();
  ASSERT_TRUE(file.ok());
  TempFile tf = file.MoveValueOrDie();
  ASSERT_TRUE(tf.Append("abc", 3).ok());
  char buf[8];
  EXPECT_FALSE(tf.ReadAt(0, buf, 8).ok());
  EXPECT_FALSE(tf.ReadAt(100, buf, 1).ok());
}

TEST(TempFileTest, MoveTransfersOwnership) {
  auto file = TempFile::Create();
  ASSERT_TRUE(file.ok());
  TempFile a = file.MoveValueOrDie();
  int fd = a.fd();
  TempFile b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.fd(), fd);
}

TEST(TempFileTest, InvalidDirFails) {
  EXPECT_FALSE(TempFile::Create("/nonexistent/dir/for/sure").ok());
}

}  // namespace
}  // namespace jsontiles
