// The A* construction (Figure 7) and its lemmas:
//  * views satisfy Remark 7.2 by construction, sequentially and concurrently,
//  * Lemma 7.2 — A* preserves correctness (multithreaded soundness) and adds
//    O(n)-shaped step overhead,
//  * Lemma 7.3 / 7.4 — tight executions and their X(λ) sketches, via the
//    stepped driver and the trace recorder.
#include <gtest/gtest.h>

#include <thread>

#include "test_util.hpp"

namespace selin {
namespace {

TEST(AStar, SequentialViewsGrowAndSelfInclude) {
  auto q = make_ms_queue();
  AStar astar(2, *q);
  auto r1 = astar.apply(0, Method::kEnqueue, 5);
  EXPECT_EQ(r1.y, kTrue);
  EXPECT_EQ(r1.view.size(), 1u);
  EXPECT_TRUE(r1.view.contains(r1.op.id));
  auto r2 = astar.apply(1, Method::kDequeue);
  EXPECT_EQ(r2.y, 5);
  EXPECT_EQ(r2.view.size(), 2u);
  EXPECT_TRUE(r2.view.contains(r1.op.id));
  EXPECT_TRUE(View::subset_of(r1.view, r2.view));
}

TEST(AStar, RejectsForeignProcessId) {
  auto q = make_ms_queue();
  AStar astar(2, *q);
  OpDesc bad{OpId{1, 0}, Method::kEnqueue, 1};
  EXPECT_THROW(astar.apply_op(0, bad), std::invalid_argument);
}

// Remark 7.2 under real concurrency, for every snapshot kind.  The register
// case checks Remark 7.2(2) where nothing inside A orders a process's
// announcement (Line 02) before its snapshot (Line 05): its reads are plain
// loads, so only A*'s own fences keep two processes from each missing the
// other's announcement.  It runs short and many times, because one run
// rarely lands in the window.
struct ConcurrentCase {
  SnapshotKind snapshot;
  ObjectKind kind;
  std::function<std::unique_ptr<IConcurrent>()> make;
  size_t procs;
  int ops_per_proc;
  int runs;
};

class AStarConcurrent : public ::testing::TestWithParam<ConcurrentCase> {};

TEST_P(AStarConcurrent, ViewPropertiesHold) {
  const ConcurrentCase& c = GetParam();
  for (int run = 0; run < c.runs; ++run) {
    auto impl = c.make();
    AStar astar(c.procs, *impl, c.snapshot);

    std::vector<std::vector<LambdaRecord>> per_proc(c.procs);
    SpinBarrier barrier(c.procs);
    std::vector<std::thread> threads;
    for (ProcId p = 0; p < c.procs; ++p) {
      threads.emplace_back([&, p] {
        Rng rng(static_cast<uint64_t>(run) * 7919 + p * 977 + 1);
        barrier.arrive_and_wait();
        for (int i = 0; i < c.ops_per_proc; ++i) {
          auto [m, arg] = random_op(c.kind, rng);
          auto r = astar.apply(p, m, arg);
          per_proc[p].push_back(LambdaRecord{r.op, r.y, std::move(r.view)});
        }
      });
    }
    for (auto& t : threads) t.join();

    std::vector<LambdaRecord> all;
    for (auto& v : per_proc) {
      for (auto& r : v) all.push_back(std::move(r));
    }
    ASSERT_EQ(validate_views(all), std::nullopt) << "run " << run;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AStarConcurrent,
    ::testing::Values(
        ConcurrentCase{SnapshotKind::kDoubleCollect, ObjectKind::kQueue,
                       make_ms_queue, 4, 300, 1},
        ConcurrentCase{SnapshotKind::kAfek, ObjectKind::kQueue, make_ms_queue,
                       4, 300, 1},
        ConcurrentCase{SnapshotKind::kDoubleCollect, ObjectKind::kRegister,
                       [] { return make_cas_register(0); }, 3, 120, 100}));

// Lemma 7.2 (correctness preservation, ⇒ direction): with a correct A, the
// sketch X(λ) of a concurrent A* run is linearizable.
TEST(AStar, CorrectAYieldsLinearizableSketch) {
  constexpr size_t kProcs = 3;
  auto q = make_ms_queue();
  AStar astar(kProcs, *q);
  std::vector<std::vector<LambdaRecord>> per_proc(kProcs);
  SpinBarrier barrier(kProcs);
  std::vector<std::thread> threads;
  for (ProcId p = 0; p < kProcs; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(p * 31 + 5);
      barrier.arrive_and_wait();
      for (int i = 0; i < 60; ++i) {
        auto [m, arg] = random_op(ObjectKind::kQueue, rng);
        auto r = astar.apply(p, m, arg);
        per_proc[p].push_back(LambdaRecord{r.op, r.y, std::move(r.view)});
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<LambdaRecord> all;
  for (auto& v : per_proc) {
    for (auto& r : v) all.push_back(std::move(r));
  }
  History x = x_of_lambda(all);
  ASSERT_TRUE(well_formed(x));
  auto spec = make_queue_spec();
  EXPECT_TRUE(linearizable(*spec, x)) << format_history(x);
}

// Lemma 7.2 step complexity: the A* overhead (announce + scan) grows with n
// and does not depend on the history length.
TEST(AStar, StepOverheadIndependentOfHistoryLength) {
  auto q = make_ms_queue();
  constexpr size_t kProcs = 4;
  AStar astar(kProcs, *q, SnapshotKind::kAfek);
  StepCounter::set_enabled(true);
  StepCounter::reset_local();
  uint64_t early = 0, late = 0;
  for (int i = 0; i < 50; ++i) {
    StepProbe probe;
    astar.apply(0, Method::kEnqueue, i);
    if (i < 10) early += probe.steps();
    if (i >= 40) late += probe.steps();
  }
  // Solo runs: step counts should be flat (arena chains, not copied sets).
  EXPECT_LE(late, early * 3 + 64);
}

// Lemma 7.3 via the stepped driver: T(E)'s history, obtained from the trace
// marks, is linearizable whenever A's history is (tight executions sit
// between E|A and E in the implication chain).
TEST(AStar, TightHistoryFromTraceMatchesLemma73) {
  auto q = make_ms_queue();
  TraceRecorder rec(64);
  AStar astar(2, *q, SnapshotKind::kDoubleCollect, &rec);
  SteppedAStar step(astar);

  // Deterministic interleaving: enqueue announced and invoked, dequeue runs
  // completely inside the enqueue's Write..Snapshot window.
  step.announce(0, Method::kEnqueue, 9);
  step.invoke(0);
  auto rd = step.run_all(1, Method::kDequeue);
  auto re = step.complete(0);
  EXPECT_EQ(re.y, kTrue);
  EXPECT_EQ(rd.y, 9);

  AStarTrace trace = rec.trace();
  ASSERT_TRUE(valid_trace(trace));
  History tight = tight_history(trace);
  auto spec = make_queue_spec();
  // The dequeue overlaps the enqueue in T(E): linearizable.
  EXPECT_TRUE(linearizable(*spec, tight)) << format_history(tight);

  // Lemma 7.4: X(λ) of the tight execution is equivalent with equal ≺.
  std::vector<LambdaRecord> records{{re.op, re.y, re.view},
                                    {rd.op, rd.y, rd.view}};
  History x = x_of_lambda(records);
  EXPECT_TRUE(equivalent(x, tight));
  HistoryIndex ix(x), it(tight);
  EXPECT_EQ(ix.precedes(re.op.id, rd.op.id), it.precedes(re.op.id, rd.op.id));
  EXPECT_EQ(ix.precedes(rd.op.id, re.op.id), it.precedes(rd.op.id, re.op.id));
}

TEST(SteppedAStar, EnforcesPhaseOrder) {
  auto q = make_ms_queue();
  AStar astar(2, *q);
  SteppedAStar step(astar);
  EXPECT_THROW(step.invoke(0), std::logic_error);
  step.announce(0, Method::kEnqueue, 1);
  EXPECT_THROW(step.complete(0), std::logic_error);  // not yet invoked
  EXPECT_THROW(step.announce(0, Method::kEnqueue, 2), std::logic_error);
  step.invoke(0);
  auto r = step.complete(0);
  EXPECT_EQ(r.y, kTrue);
}

}  // namespace
}  // namespace selin
