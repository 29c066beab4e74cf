// Utility-layer tests: arena, step counter, RNG determinism, spin barrier.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <thread>

#include "test_util.hpp"

namespace selin {
namespace {

TEST(Arena, AllocatesAlignedDistinctMemory) {
  Arena a;
  std::set<void*> seen;
  for (int i = 0; i < 1000; ++i) {
    void* p = a.allocate(24, 8);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 8, 0u);
    EXPECT_TRUE(seen.insert(p).second);
    std::memset(p, 0xAB, 24);  // must be writable
  }
  EXPECT_GE(a.bytes_allocated(), 24000u);
}

TEST(Arena, CreateConstructsObjects) {
  Arena a;
  struct Pair {
    int x;
    int y;
  };
  Pair* p = a.create<Pair>(Pair{3, 4});
  EXPECT_EQ(p->x, 3);
  EXPECT_EQ(p->y, 4);
  int src[4] = {1, 2, 3, 4};
  int* copy = a.copy_range(src, 4);
  EXPECT_EQ(copy[3], 4);
  EXPECT_NE(static_cast<void*>(copy), static_cast<void*>(src));
}

TEST(Arena, LargeAllocationsSpanBlocks) {
  Arena a;
  void* big = a.allocate(3 << 20, 64);  // larger than one block
  std::memset(big, 0, 3 << 20);
  void* small = a.allocate(16, 8);
  EXPECT_NE(big, small);
}

TEST(Arena, ConcurrentAllocationIsSafe) {
  Arena a;
  constexpr size_t kThreads = 8;
  std::vector<std::vector<void*>> ptrs(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 5000; ++i) {
        void* p = a.allocate(32, 8);
        std::memset(p, static_cast<int>(t), 32);
        ptrs[t].push_back(p);
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<void*> all;
  for (auto& v : ptrs) {
    for (void* p : v) EXPECT_TRUE(all.insert(p).second);
  }
  EXPECT_EQ(all.size(), kThreads * 5000u);
}

TEST(Arena, InterleavedArenasKeepSeparateBlocks) {
  Arena a, b;
  void* pa = a.allocate(16, 8);
  void* pb = b.allocate(16, 8);
  void* pa2 = a.allocate(16, 8);
  // Bump allocation within one arena is contiguous even when another arena
  // is touched in between (per-arena thread-local blocks).
  EXPECT_EQ(static_cast<char*>(pa2) - static_cast<char*>(pa), 16);
  EXPECT_NE(pa, pb);
}

TEST(StepCounter, CountsAndResets) {
  StepCounter::set_enabled(true);
  StepCounter::reset_local();
  StepCounter::bump();
  StepCounter::bump();
  EXPECT_EQ(StepCounter::local_count(), 2u);
  StepProbe probe;
  StepCounter::bump();
  EXPECT_EQ(probe.steps(), 1u);
  StepCounter::set_enabled(false);
  StepCounter::bump();
  EXPECT_EQ(StepCounter::local_count(), 3u);
  StepCounter::set_enabled(true);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    uint64_t x = a.next();
    EXPECT_EQ(x, b.next());
  }
  bool differs = false;
  Rng a2(7);
  for (int i = 0; i < 100; ++i) {
    if (a2.next() != c.next()) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, RangeAndChanceBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    EXPECT_LT(r.below(10), 10u);
  }
  int heads = 0;
  for (int i = 0; i < 1000; ++i) {
    if (r.chance(1, 2)) ++heads;
  }
  EXPECT_GT(heads, 350);
  EXPECT_LT(heads, 650);
}

TEST(SpinBarrier, SynchronizesRounds) {
  constexpr size_t kThreads = 6;
  SpinBarrier barrier(kThreads);
  std::atomic<int> phase_counts[3] = {{0}, {0}, {0}};
  std::vector<std::thread> threads;
  std::atomic<bool> violation{false};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        barrier.arrive_and_wait();
        phase_counts[round].fetch_add(1);
        barrier.arrive_and_wait();
        // After the closing barrier, everyone finished this round.
        if (phase_counts[round].load() != kThreads) violation.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(violation.load());
  for (auto& pc : phase_counts) EXPECT_EQ(pc.load(), (int)kThreads);
}

TEST(Types, OpIdPackingRoundTrips) {
  OpId a{3, 17};
  OpId b{3, 18};
  EXPECT_NE(a.packed(), b.packed());
  EXPECT_TRUE(a < b);
  EXPECT_EQ(std::hash<OpId>{}(a), std::hash<OpId>{}(OpId{3, 17}));
}

TEST(Types, ValueStrings) {
  EXPECT_EQ(value_string(kEmpty), "empty");
  EXPECT_EQ(value_string(kOk), "ok");
  EXPECT_EQ(value_string(kError), "ERROR");
  EXPECT_EQ(value_string(42), "42");
}

}  // namespace
}  // namespace selin
