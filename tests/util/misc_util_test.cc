#include <atomic>
#include <cstring>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/arena.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace jsontiles {
namespace {

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(128);
  std::vector<uint8_t*> ptrs;
  for (int i = 1; i <= 100; i++) {
    uint8_t* p = arena.Allocate(static_cast<size_t>(i));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 8, 0u);
    std::memset(p, i, static_cast<size_t>(i));
    ptrs.push_back(p);
  }
  // Verify no allocation overwrote another.
  for (int i = 1; i <= 100; i++) {
    for (int j = 0; j < i; j++) {
      EXPECT_EQ(ptrs[static_cast<size_t>(i - 1)][j], i);
    }
  }
}

TEST(ArenaTest, LargeAllocationExceedsBlockSize) {
  Arena arena(64);
  uint8_t* p = arena.Allocate(10000);
  std::memset(p, 0xAB, 10000);
  EXPECT_GE(arena.bytes_reserved(), 10000u);
}

TEST(ArenaTest, AllocateCopyPreservesBytes) {
  Arena arena;
  const char* src = "hello arena";
  uint8_t* p = arena.AllocateCopy(src, 11);
  EXPECT_EQ(std::memcmp(p, src, 11), 0);
}

TEST(ArenaTest, ResetReclaims) {
  Arena arena;
  arena.Allocate(1000);
  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  arena.Allocate(8);  // usable after reset
}

TEST(ArenaTest, AbsorbKeepsAllocations) {
  Arena arena(64);
  uint8_t* own = arena.AllocateCopy("receiver", 8);
  const size_t own_allocated = arena.bytes_allocated();
  const size_t own_reserved = arena.bytes_reserved();
  uint8_t* first;
  uint8_t* absorbed;
  size_t donor_allocated, donor_reserved;
  {
    Arena donor(Arena::AllocationSize(5) + Arena::AllocationSize(300));
    first = donor.AllocateCopy("first", 5);
    std::vector<uint8_t> big(300, 0x5A);
    absorbed = donor.AllocateCopy(big.data(), big.size());
    donor_allocated = donor.bytes_allocated();
    donor_reserved = donor.bytes_reserved();
    EXPECT_EQ(donor_reserved, donor_allocated);  // one exactly sized block
    arena.Absorb(std::move(donor));
    EXPECT_EQ(donor.bytes_allocated(), 0u);
    EXPECT_EQ(donor.bytes_reserved(), 0u);
  }
  EXPECT_EQ(arena.bytes_allocated(), own_allocated + donor_allocated);
  EXPECT_EQ(arena.bytes_reserved(), own_reserved + donor_reserved);
  // The receiver keeps allocating, from its own block, without touching the
  // absorbed bytes.
  for (int i = 0; i < 50; i++) std::memset(arena.Allocate(40), 0xC3, 40);
  EXPECT_EQ(std::memcmp(own, "receiver", 8), 0);
  for (size_t i = 0; i < 300; i++) EXPECT_EQ(absorbed[i], 0x5A) << i;
  EXPECT_EQ(std::memcmp(first, "first", 5), 0);
}

TEST(HashTest, DeterministicAndSeedSensitive) {
  EXPECT_EQ(HashString("json"), HashString("json"));
  EXPECT_NE(HashString("json"), HashString("tile"));
  EXPECT_NE(HashString("json", 1), HashString("json", 2));
}

TEST(HashTest, AvalancheOnIntegers) {
  // Consecutive integers should hash far apart.
  std::set<uint64_t> buckets;
  for (uint64_t i = 0; i < 1000; i++) buckets.insert(HashInt(i) >> 56);
  EXPECT_GT(buckets.size(), 200u);  // spread across high bits
}

TEST(RandomTest, Deterministic) {
  Random a(123), b(123);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, RangeIsInclusive) {
  Random rng(1);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; i++) {
    int64_t v = rng.Range(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(ZipfTest, SkewsTowardSmallValues) {
  Random rng(9);
  ZipfGenerator zipf(1000, 0.99);
  size_t low = 0, total = 20000;
  for (size_t i = 0; i < total; i++) {
    if (zipf.Next(rng) < 10) low++;
  }
  // With theta=0.99 the top-10 of 1000 items draw a large share.
  EXPECT_GT(low, total / 4);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i, size_t) { hits[i].fetch_add(1); }, 16);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(100, [&](size_t i, size_t) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

}  // namespace
}  // namespace jsontiles
