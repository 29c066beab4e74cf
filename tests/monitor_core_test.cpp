// MonitorCore: the shared publish/check machinery under the three verifier
// algorithms — incremental merging of records, sketch consistency across
// checkers, and agreement between the incremental leveled verdict and an
// offline from-scratch membership test (the key internal invariant).
#include <gtest/gtest.h>

#include <thread>

#include "test_util.hpp"

namespace selin {
namespace {

TEST(MonitorCore, EmptyCheckIsOk) {
  auto obj = make_linearizable_object(make_queue_spec());
  MonitorCore core(2, 2, *obj);
  EXPECT_TRUE(core.check(0));
  EXPECT_TRUE(core.sketch(0).empty());
  EXPECT_EQ(core.record_count(0), 0u);
}

TEST(MonitorCore, PublishedRecordsVisibleToAllCheckers) {
  auto q = make_ms_queue();
  auto obj = make_linearizable_object(make_queue_spec());
  AStar astar(2, *q);
  MonitorCore core(2, 3, *obj);

  auto r = astar.apply(0, Method::kEnqueue, 5);
  core.publish(0, r.op, r.y, std::move(r.view));
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_TRUE(core.check(c));
    EXPECT_EQ(core.record_count(c), 1u);
    EXPECT_EQ(core.sketch(c).size(), 2u);
  }
}

TEST(MonitorCore, IncrementalAgreesWithOfflineOnRandomRuns) {
  // Drive a full A* workload single-threaded with two interleaved producers;
  // after every publish, the incremental verdict must equal an offline
  // from-scratch membership test of the flattened sketch.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto q = make_ms_queue();
    auto obj = make_linearizable_object(make_queue_spec());
    AStar astar(2, *q);
    MonitorCore core(2, 1, *obj);
    Rng rng(seed);
    for (int i = 0; i < 40; ++i) {
      ProcId p = static_cast<ProcId>(rng.below(2));
      auto [m, arg] = random_op(ObjectKind::kQueue, rng);
      auto r = astar.apply(p, m, arg);
      core.publish(p, r.op, r.y, std::move(r.view));
      bool inc = core.check(0);
      bool offline = obj->contains(core.sketch(0));
      ASSERT_EQ(inc, offline) << "seed " << seed << " step " << i;
      ASSERT_TRUE(inc);  // correct A: always ok
    }
  }
}

TEST(MonitorCore, LateRecordLandsInMiddleLevel) {
  // Producer 0 completes two ops; producer 1's record for an op announced
  // between them is published late.  The checker must fold it into the
  // middle of the sketch and keep the verdict correct.
  auto q = make_ms_queue();
  auto obj = make_linearizable_object(make_queue_spec());
  AStar astar(2, *q);
  SteppedAStar step(astar);
  MonitorCore core(2, 1, *obj);

  auto r1 = step.run_all(0, Method::kEnqueue, 1);
  // p1 announces+runs its op now (its view is small)...
  step.announce(1, Method::kEnqueue, 2);
  step.invoke(1);
  auto r2 = step.complete(1);
  auto r3 = step.run_all(0, Method::kEnqueue, 3);

  // ...but its record reaches M only after p0's second op.
  core.publish(0, r1.op, r1.y, std::move(r1.view));
  EXPECT_TRUE(core.check(0));
  core.publish(0, r3.op, r3.y, std::move(r3.view));
  EXPECT_TRUE(core.check(0));
  EXPECT_EQ(core.record_count(0), 2u);
  core.publish(1, r2.op, r2.y, std::move(r2.view));
  EXPECT_TRUE(core.check(0));
  EXPECT_EQ(core.record_count(0), 3u);
  // The sketch now contains all three enqueues, well-formed and in the
  // object.
  History sk = core.sketch(0);
  EXPECT_TRUE(well_formed(sk));
  EXPECT_EQ(sk.size(), 6u);
  EXPECT_TRUE(obj->contains(sk));
}

// check() merges all of a pass's fresh records in view-size order, so how
// records are batched into passes must not show in the result: a checker
// that merges after every publish and one that merges the whole run in a
// single pass end with the same X(τ) and verdict.  The corrupt variant
// rewrites one mid-run dequeue to a value never enqueued.
TEST(MonitorCore, MergeBatchingDoesNotChangeSketch) {
  constexpr size_t kProcs = 16;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (bool corrupt : {false, true}) {
      test::SteppedQueueRun run = test::stepped_queue_run(kProcs, 600, 3, seed);
      if (corrupt) {
        for (size_t i = run.records.size() / 2; i < run.records.size(); ++i) {
          if (run.records[i].op.method == Method::kDequeue) {
            run.records[i].y = -1;
            break;
          }
        }
      }
      auto obj = make_linearizable_object(make_queue_spec());
      MonitorCore eager(kProcs, 1, *obj);
      MonitorCore once(kProcs, 1, *obj);
      bool eager_ok = true;
      for (const LambdaRecord& r : run.records) {
        eager.publish(r.op.id.pid, r.op, r.y, r.view);
        eager_ok = eager.check(0) && eager_ok;
        once.publish(r.op.id.pid, r.op, r.y, r.view);
      }
      const bool once_ok = once.check(0);
      EXPECT_EQ(eager.check(0), once_ok) << "seed " << seed;
      EXPECT_EQ(eager_ok, once_ok) << "seed " << seed;
      EXPECT_EQ(once_ok, !corrupt) << "seed " << seed;
      EXPECT_EQ(eager.record_count(0), run.records.size());
      EXPECT_EQ(once.record_count(0), run.records.size());
      EXPECT_TRUE(eager.sketch(0) == once.sketch(0)) << "seed " << seed;
    }
  }
}

TEST(MonitorCore, ConcurrentPublishAndCheckIsSafe) {
  constexpr size_t kProducers = 4;
  auto q = make_ms_queue();
  auto obj = make_linearizable_object(make_queue_spec());
  AStar astar(kProducers, *q);
  MonitorCore core(kProducers, kProducers + 1, *obj);

  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};
  std::thread checker([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (!core.check(kProducers)) bad.store(true);
    }
    if (!core.check(kProducers)) bad.store(true);
  });

  SpinBarrier barrier(kProducers);
  std::vector<std::thread> producers;
  for (ProcId p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(p + 1000);
      barrier.arrive_and_wait();
      for (int i = 0; i < 150; ++i) {
        auto [m, arg] = random_op(ObjectKind::kQueue, rng);
        auto r = astar.apply(p, m, arg);
        core.publish(p, r.op, r.y, std::move(r.view));
        if (!core.check(p)) bad.store(true);
      }
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  checker.join();
  EXPECT_FALSE(bad.load());
}

}  // namespace
}  // namespace selin
