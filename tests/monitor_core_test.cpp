// MonitorCore: the shared publish/check machinery under the three verifier
// algorithms — incremental merging of records, sketch consistency across
// checkers, and agreement between the incremental leveled verdict and an
// offline from-scratch membership test (the key internal invariant).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>

#include "test_util.hpp"

namespace selin {
namespace {

// The state a context exposes after a check, in its live monitor or handed
// over to its published tip, is exactly the membership state of its
// sketch: the verdict and frontier digest of a fresh monitor fed X(τ).
void expect_state_of_sketch(const MonitorCore& core, size_t c,
                            const SeqSpec& spec, const std::string& where) {
  LinMonitor fresh(spec);
  fresh.feed_batch(core.sketch(c));
  const MembershipMonitor* exposed = &core.leveled(c).monitor();
  if (const auto* w = dynamic_cast<const test::CountingMonitor*>(exposed)) {
    exposed = &w->inner();
  }
  const auto& state = dynamic_cast<const LinMonitor&>(*exposed);
  EXPECT_EQ(state.ok(), fresh.ok()) << where << " context " << c;
  EXPECT_EQ(state.frontier_digest(), fresh.frontier_digest())
      << where << " context " << c;
}

// Records of a stepped run, each published by its process, a seeded subset
// held back by 1–40 records (with the process's later records behind
// them), so they land below other contexts' tips.  Returns record indices
// in publish order.
std::vector<size_t> straggler_order(const test::SteppedQueueRun& run,
                                    size_t procs, uint64_t seed) {
  Rng rng(seed + 100);
  std::vector<std::pair<size_t, size_t>> timed;  // (publish time, record)
  std::vector<size_t> last(procs, 0);
  for (size_t i = 0; i < run.records.size(); ++i) {
    size_t t = i;
    if (rng.chance(1, 16)) t += 1 + rng.below(40);
    const ProcId p = run.records[i].op.id.pid;
    t = std::max(t, last[p]);
    last[p] = t;
    timed.push_back({t, i});
  }
  std::sort(timed.begin(), timed.end());
  std::vector<size_t> order;
  for (const auto& [t, i] : timed) order.push_back(i);
  return order;
}

// Rewrites the first dequeue in the second half of the run to a value
// never enqueued.
void corrupt_a_dequeue(test::SteppedQueueRun& run) {
  for (size_t i = run.records.size() / 2; i < run.records.size(); ++i) {
    if (run.records[i].op.method == Method::kDequeue) {
      run.records[i].y = -1;
      return;
    }
  }
}

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
// single pass end with the same X(τ) and verdict, on clean and corrupt
// runs.
TEST(MonitorCore, MergeBatchingDoesNotChangeSketch) {
  constexpr size_t kProcs = 16;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (bool corrupt : {false, true}) {
      test::SteppedQueueRun run = test::stepped_queue_run(kProcs, 600, 3, seed);
      if (corrupt) corrupt_a_dequeue(run);
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

// What the checks of check_straggler_runs saw.
struct StragglerTally {
  uint64_t adoptions = 0;
  uint64_t unusable = 0;
  size_t handed = 0;  // checks that left the state handed over to a tip
  size_t live = 0;    // checks that left it in the live monitor
};

// Publishes straggler runs (straggler_order) to 16 contexts, clean and
// with a corrupt dequeue, each process checking after its own publish,
// then checks with every context.  Every verdict must agree with an
// offline check of the sketch, and after every check the state the
// context exposes must be its sketch's.  With `swaps` off, the monitors
// cannot swap their state, so a publish copies it into the tip.
void check_straggler_runs(bool swaps, StragglerTally& tally) {
  constexpr size_t kProcs = 16;
  auto spec = make_queue_spec();
  for (size_t max_open : {size_t{2}, size_t{3}, size_t{4}}) {
    const uint64_t seeds = max_open == 3 ? 5 : 2;
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
      for (bool corrupt : {false, true}) {
        test::SteppedQueueRun run =
            test::stepped_queue_run(kProcs, 600, max_open, seed);
        if (corrupt) corrupt_a_dequeue(run);
        const std::string where = "open " + std::to_string(max_open) +
                                  " seed " + std::to_string(seed) +
                                  " corrupt " + std::to_string(corrupt);
        std::unique_ptr<GenLinObject> obj =
            make_linearizable_object(make_queue_spec());
        if (!swaps) {
          obj = std::make_unique<test::CountingObject>(std::move(obj),
                                                       /*swaps=*/false);
        }
        MonitorCore core(kProcs, kProcs, *obj);
        bool any_rejected = false;
        for (size_t i : straggler_order(run, kProcs, seed)) {
          const LambdaRecord& r = run.records[i];
          const ProcId p = r.op.id.pid;
          core.publish(p, r.op, r.y, r.view);
          const bool ok = core.check(p);
          ASSERT_EQ(ok, obj->contains(core.sketch(p)))
              << where << " record " << i;
          expect_state_of_sketch(core, p, *spec,
                                 where + " record " + std::to_string(i));
          ++(core.leveled(p).handed_over() ? tally.handed : tally.live);
          any_rejected = any_rejected || !ok;
        }
        EXPECT_EQ(any_rejected, corrupt) << where;
        for (size_t c = 0; c < kProcs; ++c) {
          EXPECT_EQ(core.check(c), !corrupt) << where << " context " << c;
          expect_state_of_sketch(core, c, *spec, where + " last check");
          ++(core.leveled(c).handed_over() ? tally.handed : tally.live);
          tally.adoptions += core.leveled(c).tip_adoptions();
          tally.unusable += core.tips_unusable(c);
        }
      }
    }
  }
}

// Every checking context of one object starts its checks from tips other
// contexts published, so each context's verdict is only right if the state
// it adopted, with its levels, was the start of its own X(τ).  Records are
// published in straggler_order, so held-back ones land below other
// contexts' tips; runs with 2 and 4 open operations (two seeds each)
// besides 3 (five seeds) vary how far a record's view lags its
// publication.  After every check the verdict must equal an offline test
// of that context's sketch, and the state the context exposes, live or
// handed over to its tip, must be the sketch's; a last check by every
// context, which merges nothing beyond the tip it adopts, leaves the
// state live.  Both branches of the coverage rule run: adoptions, and tips
// that are unusable.
TEST(MonitorCore, AllContextsAgreeWithOfflineWithStragglers) {
  StragglerTally tally;
  check_straggler_runs(/*swaps=*/true, tally);
  EXPECT_GT(tally.adoptions, 0u);
  EXPECT_GT(tally.unusable, 0u);
  EXPECT_GT(tally.handed, 0u);
  EXPECT_GT(tally.live, 0u);
}

// A monitor type that cannot swap its state publishes a clone of its live
// monitor, which keeps the state: the straggler runs give the same
// verdicts and states, and no state is ever handed over.
TEST(MonitorCore, MonitorsThatCannotSwapPublishCopies) {
  StragglerTally tally;
  check_straggler_runs(/*swaps=*/false, tally);
  EXPECT_GT(tally.adoptions, 0u);
  EXPECT_GT(tally.unusable, 0u);
  EXPECT_EQ(tally.handed, 0u);
  EXPECT_GT(tally.live, 0u);
}

// A check copies a whole monitor state only to start from one (another
// context's tip, its own published tip, or a checkpoint) and to take
// checkpoints: publishing hands the fed state over to the tip instead of
// copying it, and adopting copies the tip once.  On the stepped runs a
// check copies its monitor at most 1.5 times on average, where publishing,
// adopting and checkpointing copied it 2.41 (k = 2), 2.42 (k = 3) and 2.45
// (k = 4) times per check before the hand-over.
TEST(MonitorCore, ACheckCopiesItsMonitorAboutOnce) {
  constexpr size_t kProcs = 16;
  for (size_t max_open : {size_t{2}, size_t{3}, size_t{4}}) {
    test::SteppedQueueRun run =
        test::stepped_queue_run(kProcs, 2000, max_open, 1);
    test::CountingObject obj(make_linearizable_object(make_queue_spec()));
    MonitorCore core(kProcs, kProcs, obj);
    for (const LambdaRecord& r : run.records) {
      core.publish(r.op.id.pid, r.op, r.y, r.view);
      ASSERT_TRUE(core.check(r.op.id.pid)) << "open " << max_open;
    }
    const double per_check = static_cast<double>(obj.copies()) /
                             static_cast<double>(run.records.size());
    EXPECT_LE(per_check, 1.5) << "open " << max_open;
  }
}

// The contexts of one object build each level about once: a check starts
// from a state some context already fed and adds nodes only for the records
// that state lacks, so the core allocates fewer than two nodes per record
// (one level copy per context would make 16).  After a last check by every
// context, each sketch is exactly the X(τ) a one-shot builder makes from
// all the records.
TEST(MonitorCore, LevelsAreBuiltOncePerObject) {
  constexpr size_t kProcs = 16;
  for (size_t ops : {size_t{2000}, size_t{8000}}) {
    test::SteppedQueueRun run = test::stepped_queue_run(kProcs, ops, 2, 1);
    auto obj = make_linearizable_object(make_queue_spec());
    MonitorCore core(kProcs, kProcs, *obj);
    XBuilder one_shot;
    for (const LambdaRecord& r : run.records) {
      core.publish(r.op.id.pid, r.op, r.y, r.view);
      ASSERT_TRUE(core.check(r.op.id.pid)) << ops << " ops";
      one_shot.add(&r);
    }
    for (size_t c = 0; c < kProcs; ++c) ASSERT_TRUE(core.check(c));
    EXPECT_LE(core.level_nodes(), 2 * run.records.size()) << ops << " ops";
    const History all = one_shot.flatten();
    for (size_t c = 0; c < kProcs; ++c) {
      EXPECT_EQ(core.record_count(c), run.records.size());
      EXPECT_TRUE(core.sketch(c) == all) << ops << " ops, context " << c;
    }
  }
}

// A miss (a straggler below the top of the context's own state and of
// every published tip, none of which includes it) restores the context's
// own checkpoint.  Every level a context reached,
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
  XBuilder mirror;  // the levels of X(τ), for dirty levels
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
    const uint64_t rollbacks = lc.rollbacks();
    const uint64_t replayed = lc.replayed_levels();
    const size_t old_fed = lc.levels_fed();
    EXPECT_TRUE(core.check(c));
    EXPECT_EQ(lc.tip_adoptions(), adoptions);
    EXPECT_EQ(lc.rollbacks(), rollbacks + 1);
    EXPECT_EQ(lc.levels_fed(), mirror.depth());
    return {dirty, (lc.replayed_levels() - replayed) - (old_fed - dirty)};
  };

  // The feeder reached every level: less than a stride.
  EXPECT_LT(miss(0, 0).second, kStride);
  // The adopter catches up on the feeder's new tip (a hit).  Its checkpoint
  // at 120 fed a level the straggler's merge copied (every level above the
  // straggler was relinked), so it goes, and the adopter jumps from level 0
  // to 121.
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
  // In both of the adopter's misses the feeder's tip lacked the straggler,
  // which lies below its top: unusable.  (The adopter publishes only after
  // feeding, so before its first miss the feeder had no tip to examine.)
  EXPECT_EQ(core.tips_unusable(1), 2u);
  EXPECT_EQ(core.tips_unusable(0), 0u);
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

// Each check settles the levels below the smallest view among the
// producers' merged heads and releases the checkpoints under them into a
// few spare monitors, which later checkpoints reuse.  So the monitors a
// core holds (live ones, checkpoints, spares and tips) stay under one
// constant at 2,000 and at 8,000 operations, with 2, 3 and 4 operations
// open, far below what keeping every checkpoint costs (789–907 monitors
// at 2,000 operations, 3,071–3,506 at 8,000).  Releasing them changes no
// verdict and no sketch.
TEST(MonitorCore, CheckpointMemoryStaysBoundedAsHistoryGrows) {
  constexpr size_t kProcs = 16;
  constexpr size_t kCheckpoints = 8;  // per context
  constexpr int kMonitors = 12 * kProcs;
  for (size_t max_open : {size_t{2}, size_t{3}, size_t{4}}) {
    for (size_t ops : {size_t{2000}, size_t{8000}}) {
      test::SteppedQueueRun run =
          test::stepped_queue_run(kProcs, ops, max_open, 1);
      test::CountingObject obj(make_linearizable_object(make_queue_spec()));
      MonitorCore core(kProcs, kProcs, obj);
      XBuilder one_shot;
      size_t most = 0;
      for (const LambdaRecord& r : run.records) {
        core.publish(r.op.id.pid, r.op, r.y, r.view);
        ASSERT_TRUE(core.check(r.op.id.pid))
            << "open " << max_open << ", " << ops << " ops";
        one_shot.add(&r);
        for (size_t c = 0; c < kProcs; ++c) {
          most = std::max(most, core.leveled(c).checkpoint_count());
        }
      }
      for (size_t c = 0; c < kProcs; ++c) ASSERT_TRUE(core.check(c));
      EXPECT_LE(most, kCheckpoints) << "open " << max_open << ", " << ops;
      EXPECT_LE(obj.peak(), kMonitors) << "open " << max_open << ", " << ops;
      const History all = one_shot.flatten();
      for (size_t c = 0; c < kProcs; ++c) {
        EXPECT_TRUE(core.sketch(c) == all)
            << "open " << max_open << ", " << ops << " ops, context " << c;
      }
    }
  }
}

// A producer that has published nothing could still publish any view, so
// it pins every context's settled bound at 0: while 15 of 16 producers
// publish, no checkpoint is released and they pile up as when nothing
// settled them, about one per stride of levels.  Once the 16th publishes
// a record, one check by each context releases all but a few.
TEST(MonitorCore, SilentProducerPinsTheSettledBound) {
  constexpr size_t kProcs = 16;
  constexpr size_t kStride = LeveledChecker::kDefaultStride;
  constexpr size_t kCheckpoints = 8;
  auto q = make_ms_queue();
  auto obj = make_linearizable_object(make_queue_spec());
  AStar astar(kProcs, *q);
  MonitorCore core(kProcs, kProcs, *obj);
  Rng rng(7);
  for (int i = 0; i < 1500; ++i) {
    const auto p = static_cast<ProcId>(i % (kProcs - 1));
    auto [m, arg] = random_op(ObjectKind::kQueue, rng);
    auto r = astar.apply(p, m, arg);
    core.publish(p, r.op, r.y, std::move(r.view));
    ASSERT_TRUE(core.check(p)) << "op " << i;
  }
  for (size_t c = 0; c + 1 < kProcs; ++c) {
    const LeveledChecker& lc = core.leveled(c);
    EXPECT_GT(lc.checkpoint_count(), kCheckpoints) << "context " << c;
    EXPECT_GE(lc.checkpoint_count(), lc.levels_fed() / (2 * kStride))
        << "context " << c;
  }
  auto r = astar.apply(kProcs - 1, Method::kEnqueue, 1);
  core.publish(kProcs - 1, r.op, r.y, std::move(r.view));
  for (size_t c = 0; c < kProcs; ++c) {
    ASSERT_TRUE(core.check(c));
    EXPECT_LE(core.leveled(c).checkpoint_count(), kCheckpoints)
        << "context " << c;
  }
}

// MonitorCore::publish takes any view.  A record whose view is smaller
// than its producer's previous one, which A* never publishes, breaks the
// premise of the settled bound: the contexts have released the
// checkpoints below the level it lands in.  That costs replay, never a
// verdict.  The first check after it is a miss that replays from more
// than a stride below the record's level, since the checkpoints there are
// gone; every context's verdict still equals an offline test of its
// sketch.
TEST(MonitorCore, BrokenViewOrderCostsReplayNotVerdicts) {
  constexpr size_t kProcs = 16;
  constexpr size_t kStride = LeveledChecker::kDefaultStride;
  test::SteppedQueueRun run = test::stepped_queue_run(kProcs, 600, 2, 1);
  const std::vector<LambdaRecord>& recs = run.records;
  // The record a third of the way in is published 150 records after its
  // producer's next one.
  const size_t late = recs.size() / 3;
  size_t next = late + 1;
  while (next < recs.size() && recs[next].op.id.pid != recs[late].op.id.pid) {
    ++next;
  }
  ASSERT_LT(next, recs.size());
  std::vector<size_t> order;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (i != late) order.push_back(i);
    if (i == std::min(next + 150, recs.size() - 1)) order.push_back(late);
  }

  auto obj = make_linearizable_object(make_queue_spec());
  MonitorCore core(kProcs, kProcs, *obj);
  XBuilder mirror;  // the levels of X(τ), for the straggler's level
  for (size_t i : order) {
    const LambdaRecord& r = recs[i];
    const ProcId p = r.op.id.pid;
    const size_t dirty = mirror.add(&r);
    core.publish(p, r.op, r.y, r.view);
    const LeveledChecker& lc = core.leveled(p);
    const uint64_t rollbacks = lc.rollbacks();
    const uint64_t replayed = lc.replayed_levels();
    const size_t old_fed = lc.levels_fed();
    const bool ok = core.check(p);
    ASSERT_EQ(ok, obj->contains(core.sketch(p))) << "record " << i;
    if (i != late) continue;
    ASSERT_EQ(lc.rollbacks(), rollbacks + 1);
    EXPECT_GE((lc.replayed_levels() - replayed) - (old_fed - dirty), kStride);
    for (size_t c = 0; c < kProcs; ++c) {
      ASSERT_EQ(core.check(c), obj->contains(core.sketch(c)))
          << "context " << c;
    }
  }
  for (size_t c = 0; c < kProcs; ++c) {
    EXPECT_TRUE(core.check(c)) << "context " << c;
    EXPECT_EQ(core.record_count(c), recs.size());
    EXPECT_TRUE(core.sketch(c) == mirror.flatten()) << "context " << c;
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

// Four threads, each the process of two producers and their contexts,
// publish the records of a straggler run in its order, taking turns, and
// check after each publish while the next thread publishes, so
// publishes, checks, hand-overs and tip recycling race (the TSan leg and
// the release leg repeat this case).  Every scan then sees a prefix of
// the publish order, as in the one-thread run.  After the threads join,
// every context's state is its sketch's, and is again after one more
// check by each.
TEST(MonitorCore, ConcurrentContextStateIsTheSketchsState) {
  constexpr size_t kProcs = 8;
  constexpr size_t kThreads = 4;
  auto spec = make_queue_spec();
  for (bool corrupt : {false, true}) {
    test::SteppedQueueRun run = test::stepped_queue_run(kProcs, 400, 3, 5);
    if (corrupt) corrupt_a_dequeue(run);
    const std::vector<size_t> order = straggler_order(run, kProcs, 5);
    auto obj = make_linearizable_object(make_queue_spec());
    MonitorCore core(kProcs, kProcs, *obj);
    std::atomic<size_t> turn{0};  // position in `order` to publish next
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t k = 0; k < order.size(); ++k) {
          const LambdaRecord& r = run.records[order[k]];
          const ProcId p = r.op.id.pid;
          if (p % kThreads != t) continue;
          while (turn.load() != k) std::this_thread::yield();
          core.publish(p, r.op, r.y, r.view);
          turn.store(k + 1);
          core.check(p);
        }
      });
    }
    for (auto& th : threads) th.join();
    const std::string where = corrupt ? "corrupt" : "clean";
    for (size_t c = 0; c < kProcs; ++c) {
      expect_state_of_sketch(core, c, *spec, where + " after join");
    }
    for (size_t c = 0; c < kProcs; ++c) {
      EXPECT_EQ(core.check(c), !corrupt) << where << " context " << c;
      expect_state_of_sketch(core, c, *spec, where + " last check");
    }
  }
}

}  // namespace
}  // namespace selin
