// MonitorCore: the shared publish/check machinery under the three verifier
// algorithms — incremental merging of records, sketch consistency across
// checkers, and agreement between the incremental leveled verdict and an
// offline from-scratch membership test (the key internal invariant).
#include <gtest/gtest.h>

#include <algorithm>
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

// Every checking context of one object shares its monitor states through
// tips, so each context's verdict is only right if what it adopted was the
// state of its own X(τ).  Records are published by their process, a seeded
// subset of them held back by 1–40 records (with the process's later
// records behind them), so they land below other contexts' tips; after
// every check the verdict must equal an offline test of that context's
// sketch.  Both tip branches run: adoptions, and tips rejected because
// their prefix differs.
TEST(MonitorCore, AllContextsAgreeWithOfflineWithStragglers) {
  constexpr size_t kProcs = 16;
  uint64_t adoptions = 0;
  uint64_t rejected = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
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
      Rng rng(seed + 100);
      std::vector<std::pair<size_t, size_t>> timed;  // (publish time, record)
      std::vector<size_t> last(kProcs, 0);
      for (size_t i = 0; i < run.records.size(); ++i) {
        size_t t = i;
        if (rng.chance(1, 16)) t += 1 + rng.below(40);
        const ProcId p = run.records[i].op.id.pid;
        t = std::max(t, last[p]);
        last[p] = t;
        timed.push_back({t, i});
      }
      std::sort(timed.begin(), timed.end());

      auto obj = make_linearizable_object(make_queue_spec());
      MonitorCore core(kProcs, kProcs, *obj);
      bool any_rejected = false;
      for (const auto& [t, i] : timed) {
        const LambdaRecord& r = run.records[i];
        const ProcId p = r.op.id.pid;
        core.publish(p, r.op, r.y, r.view);
        const bool ok = core.check(p);
        ASSERT_EQ(ok, obj->contains(core.sketch(p)))
            << "seed " << seed << " corrupt " << corrupt << " record " << i;
        any_rejected = any_rejected || !ok;
      }
      EXPECT_EQ(any_rejected, corrupt) << "seed " << seed;
      for (size_t c = 0; c < kProcs; ++c) {
        adoptions += core.leveled(c).tip_adoptions();
        rejected += core.leveled(c).tips_rejected();
      }
    }
  }
  EXPECT_GT(adoptions, 0u);
  EXPECT_GT(rejected, 0u);
}

// A miss (a straggler below every published tip, which no tip includes)
// restores the context's own checkpoint.  Every level a context reached,
// by feeding it or by adopting a tip there, has a checkpoint less than a
// stride below it, so a miss at a level it fed re-feeds less than a stride
// below the dirty level.  A miss inside a span the context jumped over by
// adoption restores the checkpoint below the jump, once: the replay feeds
// the span and leaves checkpoints in it, so the next miss there is back
// within a stride.
TEST(MonitorCore, MissReplaysLessThanAStrideBelowReachedLevels) {
  constexpr size_t kStride = LeveledChecker::kDefaultStride;
  auto counter = make_atomic_counter();
  auto obj = make_linearizable_object(make_counter_spec());
  AStar astar(2, *counter);
  SteppedAStar step(astar);
  MonitorCore core(2, 2, *obj);
  // Producer 0 completes 120 increments; producer 1 runs one increment
  // before its 50th, 70th and 90th, whose records are published later.
  std::vector<LambdaRecord> prompt;
  std::vector<LambdaRecord> late;
  for (int i = 0; i < 120; ++i) {
    if (i == 50 || i == 70 || i == 90) {
      step.announce(1, Method::kInc);
      step.invoke(1);
      auto r = step.complete(1);
      late.push_back({r.op, r.y, std::move(r.view)});
    }
    auto r = step.run_all(0, Method::kInc);
    prompt.push_back({r.op, r.y, std::move(r.view)});
  }
  XBuilder mirror;  // the levels every context builds, for dirty levels
  for (const LambdaRecord& r : prompt) {
    mirror.add(&r);
    core.publish(0, r.op, r.y, r.view);
  }
  const LeveledChecker& feeder = core.leveled(0);
  const LeveledChecker& adopter = core.leveled(1);
  ASSERT_TRUE(core.check(0));
  ASSERT_TRUE(core.check(1));
  ASSERT_EQ(adopter.tip_adoptions(), 1u);
  ASSERT_EQ(adopter.levels_fed(), 120u);

  // Publishes late[k] and checks `c` first, asserting the check was a miss;
  // returns the dirty level and the levels re-fed below it.
  const auto miss = [&](size_t k, size_t c) -> std::pair<size_t, size_t> {
    const LeveledChecker& lc = core.leveled(c);
    const size_t dirty = mirror.add(&late[k]);
    core.publish(1, late[k].op, late[k].y, late[k].view);
    const uint64_t adoptions = lc.tip_adoptions();
    const uint64_t rejected = lc.tips_rejected();
    const uint64_t rollbacks = lc.rollbacks();
    const uint64_t replayed = lc.replayed_levels();
    const size_t old_fed = lc.levels_fed();
    EXPECT_TRUE(core.check(c));
    EXPECT_EQ(lc.tip_adoptions(), adoptions);
    EXPECT_EQ(lc.tips_rejected(), rejected + 1);
    EXPECT_EQ(lc.rollbacks(), rollbacks + 1);
    EXPECT_EQ(lc.levels_fed(), mirror.levels().size());
    return {dirty, (lc.replayed_levels() - replayed) - (old_fed - dirty)};
  };

  // The feeder reached every level: less than a stride.
  EXPECT_LT(miss(0, 0).second, kStride);
  // The adopter catches up on the feeder's new tip (a hit).  Its checkpoint
  // at 120 lay above the straggler, so it jumps from level 0 to 121.
  ASSERT_TRUE(core.check(1));
  ASSERT_EQ(adopter.tip_adoptions(), 2u);
  ASSERT_EQ(adopter.checkpoint_count(), 1u);
  // A miss inside that jump replays it from level 0, once...
  const auto [dirty, below] = miss(1, 1);
  EXPECT_EQ(below, dirty);
  EXPECT_GT(dirty, kStride);
  // ...and the next miss in it is within a stride again.
  EXPECT_LT(miss(2, 1).second, kStride);
  EXPECT_EQ(feeder.tip_adoptions(), 0u);
}

// Shared tips are recycled: a retired tip is reused as soon as no hazard
// pointer names it, and the n contexts hold at most 2n hazards, so each
// context keeps its live monitor and at most 2n tips however long the
// history.  The monitors that are not checkpoints stay within that bound
// at 2,000 and at 8,000 operations.
TEST(MonitorCore, TipMemoryStaysBoundedAsHistoryGrows) {
  constexpr int kProcs = 16;
  constexpr int kBound = kProcs * (1 + 2 * kProcs);
  for (size_t ops : {size_t{2000}, size_t{8000}}) {
    test::SteppedQueueRun run = test::stepped_queue_run(kProcs, ops, 2, 1);
    test::CountingObject obj(make_linearizable_object(make_queue_spec()));
    MonitorCore core(kProcs, kProcs, obj);
    int worst = 0;
    for (const LambdaRecord& r : run.records) {
      core.publish(r.op.id.pid, r.op, r.y, r.view);
      ASSERT_TRUE(core.check(r.op.id.pid));
      int checkpoints = 0;
      for (size_t c = 0; c < kProcs; ++c) {
        checkpoints += static_cast<int>(core.leveled(c).checkpoint_count());
      }
      worst = std::max(worst, obj.live() - checkpoints);
    }
    EXPECT_LE(worst, kBound) << ops << " ops";
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

// Checkers racing on one object's tips: one thread publishes a run's
// records while three checking contexts re-check in a loop, so tips are
// published, adopted and recycled concurrently (the TSan leg repeats this
// case).  Every verdict on the correct run is ok.
TEST(MonitorCore, ConcurrentCheckersShareTips) {
  constexpr size_t kProcs = 8;
  constexpr size_t kCheckers = 3;
  test::SteppedQueueRun run = test::stepped_queue_run(kProcs, 400, 2, 3);
  auto obj = make_linearizable_object(make_queue_spec());
  MonitorCore core(kProcs, kCheckers, *obj);
  std::atomic<bool> done{false};
  std::atomic<bool> bad{false};
  std::atomic<uint64_t> checks{0};
  std::vector<std::thread> checkers;
  for (size_t c = 0; c < kCheckers; ++c) {
    checkers.emplace_back([&, c] {
      while (!done.load()) {
        if (!core.check(c)) bad.store(true);
        checks.fetch_add(1);
        std::this_thread::yield();
      }
      if (!core.check(c)) bad.store(true);
    });
  }
  // Paced so that checks interleave with publishes: each record waits for
  // two more checks (by any contexts).
  for (const LambdaRecord& r : run.records) {
    core.publish(r.op.id.pid, r.op, r.y, r.view);
    const uint64_t seen = checks.load();
    while (checks.load() < seen + 2) std::this_thread::yield();
  }
  done.store(true);
  for (auto& t : checkers) t.join();
  EXPECT_FALSE(bad.load());
  for (size_t c = 0; c < kCheckers; ++c) {
    EXPECT_EQ(core.record_count(c), run.records.size());
  }
}

}  // namespace
}  // namespace selin
