#include "util/thread_pool.h"

#include <array>
#include <atomic>
#include <mutex>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace jsontiles {
namespace {

TEST(ThreadPoolStressTest, ParallelForZeroItems) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](size_t, size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolStressTest, ParallelForFewerItemsThanWorkers) {
  ThreadPool pool(8);
  std::atomic<int> calls{0};
  std::array<std::atomic<int>, 3> per_index{};
  pool.ParallelFor(3, [&](size_t i, size_t) {
    per_index[i].fetch_add(1);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 3);
  for (auto& c : per_index) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolStressTest, ParallelForManyMoreItemsThanWorkers) {
  ThreadPool pool(4);
  constexpr size_t kN = 100000;
  std::vector<std::atomic<uint8_t>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i, size_t) { hits[i].fetch_add(1); }, 64);
  for (size_t i = 0; i < kN; i++) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolStressTest, ParallelForWorkerIdsStayInRange) {
  ThreadPool pool(3);
  std::mutex mu;
  std::set<size_t> seen;
  pool.ParallelFor(1000, [&](size_t, size_t worker) {
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(worker);
  });
  // 3 pool workers + the calling thread (worker id 3).
  for (size_t w : seen) EXPECT_LT(w, 4u);
}

TEST(ThreadPoolStressTest, RepeatedParallelForOnSamePool) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; round++) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(257, [&](size_t i, size_t) {
      sum.fetch_add(static_cast<int64_t>(i));
    });
    EXPECT_EQ(sum.load(), 257 * 256 / 2);
  }
}

TEST(ParallelForStatusTest, AllOkVisitsEveryItem) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<uint8_t>> hits(kN);
  Status st = pool.ParallelForStatus(
      kN,
      [&](size_t i, size_t) {
        hits[i].fetch_add(1);
        return Status::OK();
      },
      16);
  ASSERT_TRUE(st.ok());
  for (size_t i = 0; i < kN; i++) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForStatusTest, ZeroItems) {
  ThreadPool pool(2);
  Status st = pool.ParallelForStatus(
      0, [](size_t, size_t) { return Status::Internal("never called"); });
  EXPECT_TRUE(st.ok());
}

TEST(ParallelForStatusTest, FirstErrorIsReturned) {
  ThreadPool pool(4);
  Status st = pool.ParallelForStatus(1000, [&](size_t i, size_t) {
    if (i == 123) return Status::Internal("chunk 123 failed");
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(st.message(), "chunk 123 failed");
}

TEST(ParallelForStatusTest, ErrorStopsRemainingWork) {
  ThreadPool pool(4);
  std::atomic<size_t> executed{0};
  Status st = pool.ParallelForStatus(
      100000,
      [&](size_t i, size_t) {
        executed.fetch_add(1);
        if (i == 0) return Status::Internal("early failure");
        return Status::OK();
      },
      1);
  ASSERT_FALSE(st.ok());
  // Chunk 0 fails immediately; the early-out check must prevent most of the
  // other 99999 chunks from running. Allow generous in-flight slack.
  EXPECT_LT(executed.load(), 50000u);
}

TEST(ParallelForStatusTest, ReturnsOnlyAfterAllWorkersStop) {
  // The Status overload must not return (letting its stack state die) while
  // helper tasks still touch that state. Destroying the pool right after a
  // failing run is exactly the unwind path; ASan/TSan make violations fatal.
  for (int round = 0; round < 20; round++) {
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    Status st = pool.ParallelForStatus(
        1000,
        [&](size_t i, size_t) {
          calls.fetch_add(1);
          if (i % 97 == 0) return Status::Internal("fail");
          return Status::OK();
        },
        1);
    EXPECT_FALSE(st.ok());
  }
}

}  // namespace
}  // namespace jsontiles
