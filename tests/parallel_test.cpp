// The sharded parallel frontier engine (src/selin/parallel/).
//
// Two families of coverage:
//  * determinism — `threads == 1` and `threads ∈ {2, 4, 8}` must produce
//    identical verdicts and frontier sizes after *every* event, across all
//    concrete specs, on accepting and rejecting randomized workloads (the
//    closure is a fixpoint, so its content cannot depend on how work was
//    split across shards);
//  * stress — wide-open-op workloads that force multi-round cross-shard
//    handoffs on a live thread pool.  These are the ThreadSanitizer targets
//    wired into the CI tsan job.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "selin/parallel/executor.hpp"
#include "test_util.hpp"

namespace selin {
namespace {

using test::OpFactory;
using test::corrupt_response;
using test::random_exchanger_history;
using test::random_linearizable_history;
using test::random_write_snapshot_history;

constexpr size_t kShardCounts[] = {2, 4, 8};

constexpr ObjectKind kAllKinds[] = {
    ObjectKind::kQueue,   ObjectKind::kStack,    ObjectKind::kSet,
    ObjectKind::kPqueue,  ObjectKind::kCounter,  ObjectKind::kRegister,
    ObjectKind::kConsensus,
};

// Feed `h` through the sequential reference and a parallel monitor in
// lockstep, asserting verdict and frontier-size equality after every event.
void expect_lockstep(const SeqSpec& spec, const History& h, size_t shards,
                     const char* label) {
  LinMonitor ref(spec);
  LinMonitor par(spec, /*max_configs=*/1 << 18, shards);
  for (size_t i = 0; i < h.size(); ++i) {
    ref.feed(h[i]);
    par.feed(h[i]);
    ASSERT_EQ(ref.ok(), par.ok())
        << label << " shards=" << shards << " event " << i;
    ASSERT_EQ(ref.frontier_size(), par.frontier_size())
        << label << " shards=" << shards << " event " << i;
  }
}

TEST(ParallelDeterminism, AllSpecsAcceptingHistories) {
  for (ObjectKind kind : kAllKinds) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      History h = random_linearizable_history(kind, 4, 48, seed * 7 + 1);
      auto spec = make_spec(kind);
      for (size_t shards : kShardCounts) {
        expect_lockstep(*spec, h, shards, object_kind_name(kind));
      }
    }
  }
}

TEST(ParallelDeterminism, AllSpecsRejectingHistories) {
  for (ObjectKind kind : kAllKinds) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      History h = random_linearizable_history(kind, 4, 48, seed * 13 + 5);
      if (!corrupt_response(h, seed)) continue;
      auto spec = make_spec(kind);
      for (size_t shards : kShardCounts) {
        expect_lockstep(*spec, h, shards, object_kind_name(kind));
      }
    }
  }
}

TEST(ParallelDeterminism, OneShotHelperAgrees) {
  for (ObjectKind kind : kAllKinds) {
    auto spec = make_spec(kind);
    History good = random_linearizable_history(kind, 3, 40, 99);
    History bad = good;
    corrupt_response(bad, 3);
    bool ref_good = linearizable(*spec, good);
    bool ref_bad = linearizable(*spec, bad);
    EXPECT_TRUE(ref_good);
    for (size_t shards : kShardCounts) {
      EXPECT_EQ(ref_good, linearizable(*spec, good, 1 << 18, shards));
      EXPECT_EQ(ref_bad, linearizable(*spec, bad, 1 << 18, shards));
    }
  }
}

// ---- set-linearizability ---------------------------------------------------

TEST(ParallelDeterminism, SetLinExchanger) {
  auto spec = make_exchanger_spec();
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    History h = random_exchanger_history(4, 24, seed * 31);
    SetLinMonitor ref(*spec);
    for (size_t shards : kShardCounts) {
      SetLinMonitor ref2(*spec);
      SetLinMonitor par(*spec, /*max_configs=*/1 << 18, shards);
      for (size_t i = 0; i < h.size(); ++i) {
        ref2.feed(h[i]);
        par.feed(h[i]);
        ASSERT_EQ(ref2.ok(), par.ok()) << "shards=" << shards << " event " << i;
        ASSERT_EQ(ref2.frontier_size(), par.frontier_size())
            << "shards=" << shards << " event " << i;
      }
    }
  }
}

// ---- interval-linearizability ----------------------------------------------

TEST(ParallelDeterminism, IntervalLinWriteSnapshot) {
  auto spec = make_write_snapshot_interval_spec();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (bool corrupt : {false, true}) {
      History h = random_write_snapshot_history(5, seed * 17 + 3, corrupt);
      for (size_t shards : kShardCounts) {
        IntervalLinMonitor ref(*spec);
        IntervalLinMonitor par(*spec, /*max_configs=*/1 << 18, shards);
        for (size_t i = 0; i < h.size(); ++i) {
          ref.feed(h[i]);
          par.feed(h[i]);
          ASSERT_EQ(ref.ok(), par.ok())
              << "shards=" << shards << " corrupt=" << corrupt << " event "
              << i;
          ASSERT_EQ(ref.frontier_size(), par.frontier_size())
              << "shards=" << shards << " corrupt=" << corrupt << " event "
              << i;
        }
      }
    }
  }
}

// ---- plumbing: objects, leveled checker, clone ----------------------------

TEST(ParallelPlumbing, GenLinObjectThreadsKnob) {
  History h = random_linearizable_history(ObjectKind::kQueue, 3, 40, 5);
  auto seq_obj = make_linearizable_object(make_queue_spec());
  auto par_obj = make_linearizable_object(make_queue_spec(), 1 << 18, 4);
  EXPECT_TRUE(seq_obj->contains(h));
  EXPECT_TRUE(par_obj->contains(h));
  // Per-monitor override: a sequential object handing out parallel monitors.
  auto m = seq_obj->monitor(8);
  for (const Event& e : h) m->feed(e);
  EXPECT_TRUE(m->ok());
  History bad = h;
  corrupt_response(bad, 11);
  EXPECT_EQ(seq_obj->contains(bad), par_obj->contains(bad));
}

TEST(ParallelPlumbing, MonitorCoreCheckerThreads) {
  auto q = make_ms_queue();
  auto obj = make_linearizable_object(make_queue_spec());
  AStar astar(2, *q);
  MonitorCore core(2, 1, *obj, SnapshotKind::kDoubleCollect,
                   /*checker_threads=*/4);
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    ProcId p = static_cast<ProcId>(rng.below(2));
    auto [m, arg] = random_op(ObjectKind::kQueue, rng);
    auto r = astar.apply(p, m, arg);
    core.publish(p, r.op, r.y, std::move(r.view));
    ASSERT_TRUE(core.check(0));
  }
}

TEST(ParallelPlumbing, CloneForksParallelMonitor) {
  auto spec = make_queue_spec();
  LinMonitor m(*spec, 1 << 18, 4);
  OpFactory f;
  OpDesc e = f.op(0, Method::kEnqueue, 1);
  m.feed(Event::inv(e));
  m.feed(Event::res(e, kTrue));
  auto fork = m.clone();
  OpDesc d = f.op(0, Method::kDequeue);
  fork->feed(Event::inv(d));
  fork->feed(Event::res(d, 7));  // wrong
  EXPECT_FALSE(fork->ok());
  EXPECT_TRUE(m.ok());  // original untouched
}

// ---- overflow safety (feed-boundary exception discipline) ------------------

TEST(OverflowSafety, StickyAcrossEngines) {
  auto spec = make_queue_spec();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    LinMonitor m(*spec, /*max_configs=*/4, threads);
    OpFactory f;
    std::vector<OpDesc> es;
    for (ProcId p = 0; p < 6; ++p) {
      es.push_back(f.op(p, Method::kEnqueue, p + 1));
      m.feed(Event::inv(es.back()));
    }
    EXPECT_FALSE(m.overflowed());
    EXPECT_THROW(m.feed(Event::res(es[0], kTrue)), CheckerOverflow);
    EXPECT_TRUE(m.overflowed());
    // The monitor is poisoned but defined: further feeds are no-ops, the
    // last definite verdict survives, and clones inherit the flag.
    EXPECT_NO_THROW(m.feed(Event::res(es[1], kTrue)));
    EXPECT_NO_THROW(m.feed(Event::inv(f.op(6, Method::kEnqueue, 7))));
    EXPECT_TRUE(m.overflowed());
    EXPECT_EQ(m.frontier_size(), 0u);
    auto fork = m.clone();
    EXPECT_NO_THROW(fork->feed(Event::res(es[2], kTrue)));
  }
}

TEST(OverflowSafety, SetLinSticky) {
  auto spec = make_exchanger_spec();
  OpFactory f;
  for (size_t threads : {size_t{1}, size_t{2}}) {
    SetLinMonitor m(*spec, /*max_configs=*/2, threads);
    std::vector<OpDesc> es;
    for (ProcId p = 0; p < 4; ++p) {
      es.push_back(f.op(p, Method::kExchange, p + 1));
      m.feed(Event::inv(es.back()));
    }
    EXPECT_THROW(m.feed(Event::res(es[0], kEmpty)), CheckerOverflow);
    EXPECT_TRUE(m.overflowed());
    EXPECT_NO_THROW(m.feed(Event::res(es[1], kEmpty)));
  }
}

// ---- stress (ThreadSanitizer targets) --------------------------------------

// Maximal open-op concurrency: bursts of 7 concurrent enqueues (a ~13k-config
// closure per response) drained in FIFO order, repeatedly, on one monitor —
// every feed exercises multi-round cross-shard handoff on the live pool.
TEST(ParallelStress, WideOpenOpBursts) {
  auto spec = make_queue_spec();
  LinMonitor m(*spec, /*max_configs=*/1 << 20, 4);
  OpFactory f;
  Value v = 1;
  for (int round = 0; round < 4; ++round) {
    std::vector<OpDesc> es;
    for (ProcId p = 0; p < 7; ++p) {
      es.push_back(f.op(p, Method::kEnqueue, v + p));
      m.feed(Event::inv(es.back()));
    }
    for (const OpDesc& e : es) m.feed(Event::res(e, kTrue));
    // Drain in invocation order — a valid linearization, so ok() holds.
    for (ProcId p = 0; p < 7; ++p) {
      OpDesc d = f.op(p, Method::kDequeue);
      m.feed(Event::inv(d));
      m.feed(Event::res(d, v + p));
    }
    ASSERT_TRUE(m.ok());
    ASSERT_EQ(m.frontier_size(), 1u);
    v += 7;
  }
}

// Sustained width: k never-popped overlapping push pairs keep 2^k
// configurations alive, so every later feed re-expands a wide frontier.
TEST(ParallelStress, SustainedWideFrontier) {
  auto spec = make_stack_spec();
  LinMonitor m(*spec, /*max_configs=*/1 << 20, 8);
  OpFactory f;
  Value v = 100;
  for (int k = 0; k < 9; ++k) {
    OpDesc a = f.op(0, Method::kPush, v++);
    OpDesc b = f.op(1, Method::kPush, v++);
    m.feed(Event::inv(a));
    m.feed(Event::inv(b));
    m.feed(Event::res(a, kTrue));
    m.feed(Event::res(b, kTrue));
  }
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m.frontier_size(), size_t{1} << 9);
  // Overlapping push/pop traffic on top of the ambiguous base.
  for (int i = 0; i < 8; ++i) {
    OpDesc push = f.op(2, Method::kPush, v);
    OpDesc pop = f.op(3, Method::kPop);
    m.feed(Event::inv(push));
    m.feed(Event::inv(pop));
    m.feed(Event::res(push, kTrue));
    m.feed(Event::res(pop, v));
    ASSERT_TRUE(m.ok());
    ASSERT_EQ(m.frontier_size(), size_t{1} << 9);
    ++v;
  }
}

}  // namespace
}  // namespace selin
