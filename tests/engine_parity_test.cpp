// Differential parity for the unified FrontierEngine (src/selin/engine/).
//
// All three membership checkers are facades over one engine.  This suite
// asserts, for every concrete spec:
//
//  * accepting histories are accepted, and final verdicts agree with the
//    brute-force oracle on small histories;
//  * feed_batch is bit-identical to per-event feeding at every batch
//    boundary — verdict, frontier size, frontier digest (the XOR of mixed
//    configuration fingerprints, which depend on op ids and values, not on
//    how a configuration stores its op sets) and op-set footprint — for
//    every chunking;
//  * the overflow and feed-boundary-exception paths (CheckerOverflow thrown,
//    sticky overflowed(), frontier released, clones inherit the poisoned
//    state);
//  * a closure seeded from the previous filter's fingerprints stays in step
//    when clone(), assign_from or an overflowing copy replaces the frontier
//    between batches;
//  * assign_from copies state but keeps the target's counters, on every
//    facade;
//  * the stats facility through a frontier that swings wide and collapses.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "selin/engine/frontier_engine.hpp"
#include "test_util.hpp"

namespace selin {
namespace {

using test::OpFactory;
using test::corrupt_response;
using test::random_exchanger_history;
using test::random_linearizable_history;
using test::random_write_snapshot_history;

constexpr ObjectKind kAllKinds[] = {
    ObjectKind::kQueue,   ObjectKind::kStack,    ObjectKind::kSet,
    ObjectKind::kPqueue,  ObjectKind::kCounter,  ObjectKind::kRegister,
    ObjectKind::kConsensus,
};

TEST(EngineParity, AllSeqSpecsAccepting) {
  for (ObjectKind kind : kAllKinds) {
    auto spec = make_spec(kind);
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      History good = random_linearizable_history(kind, 4, 40, seed * 19 + 2);
      LinMonitor m(*spec);
      for (const Event& e : good) m.feed(e);
      EXPECT_TRUE(m.ok()) << object_kind_name(kind) << " seed " << seed;
    }
  }
}

// Small histories, so the exponential reference oracle is feasible.
TEST(EngineParity, BruteForceOracleAgrees) {
  for (ObjectKind kind : kAllKinds) {
    auto spec = make_spec(kind);
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      for (bool corrupt : {false, true}) {
        History h = random_linearizable_history(kind, 3, 7, seed * 11 + 3);
        if (corrupt && !corrupt_response(h, seed)) continue;
        bool oracle = linearizable_bruteforce(*spec, h);
        EXPECT_EQ(oracle, linearizable(*spec, h))
            << object_kind_name(kind) << " seed " << seed;
      }
    }
  }
}

// ---- batched feed parity ---------------------------------------------------
//
// feed_batch must produce bit-identical verdicts and frontier sizes to
// feeding the same events one at a time, at every batch boundary, for every
// chunking: the one closure a batch round runs
// services the whole run of consecutive responses (the filtered frontier is
// already closed — see FrontierEngine::feed_res_run), so nothing may depend
// on where the stream is cut.

// Feed `h` per-event into a reference monitor and in `chunk`-sized batches
// into another; compare verdict and frontier at every chunk boundary.
template <typename Monitor, typename MakeMonitor>
void expect_batch_parity(MakeMonitor&& make, const History& h, size_t chunk,
                         const char* label) {
  Monitor ref = make();
  Monitor batched = make();
  for (size_t i = 0; i < h.size(); i += chunk) {
    const size_t n = std::min(chunk, h.size() - i);
    for (size_t k = i; k < i + n; ++k) ref.feed(h[k]);
    batched.feed_batch({h.data() + i, n});
    ASSERT_EQ(ref.ok(), batched.ok())
        << label << " chunk " << chunk << " events [" << i << ", " << i + n
        << ")";
    ASSERT_EQ(ref.frontier_size(), batched.frontier_size())
        << label << " chunk " << chunk << " events [" << i << ", " << i + n
        << ")";
    ASSERT_EQ(ref.frontier_digest(), batched.frontier_digest())
        << label << " chunk " << chunk << " events [" << i << ", " << i + n
        << ")";
    engine::FrontierFootprint rf = ref.footprint();
    engine::FrontierFootprint bf = batched.footprint();
    ASSERT_EQ(rf.opset_bytes, bf.opset_bytes)
        << label << " chunk " << chunk << " events [" << i << ", " << i + n
        << ")";
    ASSERT_EQ(rf.opset_elems, bf.opset_elems)
        << label << " chunk " << chunk << " events [" << i << ", " << i + n
        << ")";
  }
}

TEST(BatchParity, AllSeqSpecsEveryChunking) {
  for (ObjectKind kind : kAllKinds) {
    auto spec = make_spec(kind);
    auto make = [&] { return LinMonitor(*spec); };
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      History good = random_linearizable_history(kind, 4, 36, seed * 31 + 5);
      History bad = good;
      bool have_bad = corrupt_response(bad, seed * 3 + 2);
      for (size_t chunk : {size_t{1}, size_t{3}, size_t{8}, good.size()}) {
        expect_batch_parity<LinMonitor>(make, good, chunk,
                                        object_kind_name(kind));
        if (have_bad) {
          expect_batch_parity<LinMonitor>(make, bad, chunk,
                                          object_kind_name(kind));
        }
      }
    }
  }
}

TEST(BatchParity, SetLinExchangerEveryChunking) {
  auto spec = make_exchanger_spec();
  auto make = [&] { return SetLinMonitor(*spec); };
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    History h = random_exchanger_history(4, 18, seed * 13 + 3);
    for (size_t chunk : {size_t{1}, size_t{4}, h.size()}) {
      expect_batch_parity<SetLinMonitor>(make, h, chunk, "exchanger");
    }
  }
}

TEST(BatchParity, IntervalWriteSnapshotEveryChunking) {
  auto spec = make_write_snapshot_interval_spec();
  auto make = [&] { return IntervalLinMonitor(*spec); };
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    for (bool corrupt : {false, true}) {
      History h = random_write_snapshot_history(5, seed * 41 + 7, corrupt);
      for (size_t chunk : {size_t{1}, size_t{4}, h.size()}) {
        expect_batch_parity<IntervalLinMonitor>(make, h, chunk,
                                                "write-snapshot");
      }
    }
  }
}

// ---- seeded closures across frontier replacements --------------------------
//
// A closure seeds its dedup set from the fingerprint row the previous
// response filter left, for as long as nothing else has replaced the
// frontier (FrontierEngine::run_res_sequential).  Between the chunks of a
// batched feed, replace the monitor's frontier every way the facades allow:
// swap in a clone(); assign_from a monitor fed a different prefix, feed on
// from there, then assign back; and run a small-budget copy into an
// overflow mid-batch.  At every boundary the monitor must agree with one fed
// straight through.  A row that outlived its frontier would seed the next
// closure with another frontier's fingerprints; audit builds also throw.

constexpr size_t kWideBudget = size_t{1} << 18;
constexpr size_t kSmallBudget = 8;

template <typename Monitor>
::testing::AssertionResult same_frontier(const Monitor& want,
                                         const Monitor& got) {
  if (want.ok() != got.ok()) {
    return ::testing::AssertionFailure() << "ok " << got.ok();
  }
  if (want.frontier_size() != got.frontier_size()) {
    return ::testing::AssertionFailure()
           << "width " << got.frontier_size() << ", want "
           << want.frontier_size();
  }
  if (want.frontier_digest() != got.frontier_digest()) {
    return ::testing::AssertionFailure() << "digest differs";
  }
  return ::testing::AssertionSuccess();
}

template <typename Monitor, typename MakeMonitor>
void expect_seed_parity(MakeMonitor&& make, const History& h, size_t chunk,
                        const std::string& label, size_t& overflows) {
  Monitor ref = make(kWideBudget);
  auto m = std::make_unique<Monitor>(make(kWideBudget));
  size_t e = 0;
  for (size_t round = 0; e < h.size(); ++round) {
    const size_t n = std::min(chunk, h.size() - e);
    ref.feed_batch({h.data() + e, n});
    m->feed_batch({h.data() + e, n});
    e += n;
    const std::string at =
        label + " chunk " + std::to_string(chunk) + " at " + std::to_string(e);
    ASSERT_TRUE(same_frontier(ref, *m)) << at;
    switch (round % 3) {
      case 0: {  // swap in a clone
        std::unique_ptr<MembershipMonitor> c = m->clone();
        m.reset(static_cast<Monitor*>(c.release()));
        break;
      }
      case 1: {  // assign_from a monitor fed a different prefix, then back
        const size_t p = e / 2;
        const size_t k = std::min(chunk, h.size() - p);
        Monitor other = make(kWideBudget);
        other.feed_batch({h.data(), p});
        const Monitor back(*m);
        ASSERT_TRUE(m->assign_from(other)) << at;
        other.feed_batch({h.data() + p, k});
        m->feed_batch({h.data() + p, k});
        ASSERT_TRUE(same_frontier(other, *m)) << at << " on prefix " << p;
        ASSERT_TRUE(m->assign_from(back)) << at;
        break;
      }
      default: {  // a small-budget copy overflows mid-batch
        Monitor small = make(kSmallBudget);
        ASSERT_TRUE(small.assign_from(*m)) << at;
        try {
          small.feed_batch({h.data() + e, h.size() - e});
        } catch (const CheckerOverflow&) {
          ++overflows;
          EXPECT_TRUE(small.overflowed()) << at;
          EXPECT_EQ(small.frontier_size(), 0u) << at;
        }
        ASSERT_TRUE(small.assign_from(*m)) << at;
        EXPECT_FALSE(small.overflowed()) << at;
        ASSERT_TRUE(same_frontier(*m, small)) << at << " small copy";
        break;
      }
    }
    ASSERT_TRUE(same_frontier(ref, *m)) << at << " after step " << round % 3;
  }
}

TEST(SeedParity, AllSeqSpecsAcrossFrontierReplacements) {
  size_t overflows = 0;
  for (ObjectKind kind : kAllKinds) {
    auto spec = make_spec(kind);
    auto make = [&](size_t budget) { return LinMonitor(*spec, budget); };
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      History good = random_linearizable_history(kind, 4, 36, seed * 31 + 5);
      History bad = good;
      const bool have_bad = corrupt_response(bad, seed * 3 + 2);
      for (size_t chunk : {size_t{1}, size_t{3}, good.size()}) {
        expect_seed_parity<LinMonitor>(make, good, chunk,
                                       object_kind_name(kind), overflows);
        if (have_bad) {
          expect_seed_parity<LinMonitor>(
              make, bad, chunk, std::string(object_kind_name(kind)) + " bad",
              overflows);
        }
      }
    }
  }
  EXPECT_GT(overflows, 0u) << "no small-budget copy overflowed";
}

TEST(SeedParity, SetLinExchangerAcrossFrontierReplacements) {
  auto spec = make_exchanger_spec();
  auto make = [&](size_t budget) { return SetLinMonitor(*spec, budget); };
  size_t overflows = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    History h = random_exchanger_history(4, 18, seed * 13 + 3);
    for (size_t chunk : {size_t{1}, size_t{3}, h.size()}) {
      expect_seed_parity<SetLinMonitor>(make, h, chunk, "exchanger",
                                        overflows);
    }
  }
  EXPECT_GT(overflows, 0u) << "no small-budget copy overflowed";
}

TEST(SeedParity, IntervalWriteSnapshotAcrossFrontierReplacements) {
  auto spec = make_write_snapshot_interval_spec();
  auto make = [&](size_t budget) { return IntervalLinMonitor(*spec, budget); };
  size_t overflows = 0;
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    for (bool corrupt : {false, true}) {
      History h = random_write_snapshot_history(5, seed * 41 + 7, corrupt);
      for (size_t chunk : {size_t{1}, size_t{3}, h.size()}) {
        expect_seed_parity<IntervalLinMonitor>(make, h, chunk,
                                               "write-snapshot", overflows);
      }
    }
  }
  EXPECT_GT(overflows, 0u) << "no small-budget copy overflowed";
}

// A batch overflowing mid-run behaves exactly like the per-event overflow:
// CheckerOverflow propagates, the monitor poisons sticky, later batches are
// no-ops.
TEST(BatchParity, OverflowInsideBatchPoisonsSticky) {
  auto spec = make_queue_spec();
  LinMonitor m(*spec, /*max_configs=*/4);
  OpFactory f;
  History h;
  std::vector<OpDesc> es;
  for (ProcId p = 0; p < 6; ++p) {
    es.push_back(f.op(p, Method::kEnqueue, p + 1));
    h.push_back(Event::inv(es.back()));
  }
  h.push_back(Event::res(es[0], kTrue));
  h.push_back(Event::res(es[1], kTrue));
  EXPECT_THROW(m.feed_batch({h.data(), h.size()}), CheckerOverflow);
  EXPECT_TRUE(m.overflowed());
  EXPECT_EQ(m.frontier_size(), 0u);
  EXPECT_NO_THROW(m.feed_batch({h.data(), h.size()}));
}

// The point of the batch path: one closure per response run.  A run of k
// consecutive responses must cost one engine round, not k.
TEST(BatchParity, BatchRunCountsOneRound) {
  auto spec = make_queue_spec();
  LinMonitor m(*spec);
  OpFactory f;
  History h;
  std::vector<OpDesc> es;
  for (ProcId p = 0; p < 4; ++p) {
    es.push_back(f.op(p, Method::kEnqueue, p + 1));
    h.push_back(Event::inv(es.back()));
  }
  for (ProcId p = 0; p < 4; ++p) h.push_back(Event::res(es[p], kTrue));
  m.feed_batch({h.data(), h.size()});
  engine::EngineStats s = m.stats();
  EXPECT_EQ(s.events_fed, h.size());
  EXPECT_EQ(s.rounds_sequential, 1u) << "4-response run must be one round";
}

// ---- overflow / feed-boundary exception parity -----------------------------

TEST(EngineParity, OverflowSticky) {
  auto spec = make_queue_spec();
  LinMonitor m(*spec, /*max_configs=*/4);
  OpFactory f;
  std::vector<OpDesc> es;
  for (ProcId p = 0; p < 6; ++p) {
    es.push_back(f.op(p, Method::kEnqueue, p + 1));
    m.feed(Event::inv(es.back()));
  }
  EXPECT_FALSE(m.overflowed());
  EXPECT_THROW(m.feed(Event::res(es[0], kTrue)), CheckerOverflow);
  EXPECT_TRUE(m.overflowed());
  // Poisoned but defined: feeds are no-ops, the last definite verdict
  // survives, the frontier was released, clones inherit the flag.
  EXPECT_NO_THROW(m.feed(Event::res(es[1], kTrue)));
  EXPECT_TRUE(m.ok());
  EXPECT_EQ(m.frontier_size(), 0u);
  auto fork = m.clone();
  EXPECT_NO_THROW(fork->feed(Event::res(es[2], kTrue)));
}

TEST(EngineParity, SetLinAndIntervalOverflowSticky) {
  auto xspec = make_exchanger_spec();
  auto wspec = make_write_snapshot_interval_spec();
  OpFactory f;
  SetLinMonitor sm(*xspec, /*max_configs=*/2);
  std::vector<OpDesc> es;
  for (ProcId p = 0; p < 4; ++p) {
    es.push_back(f.op(p, Method::kExchange, p + 1));
    sm.feed(Event::inv(es.back()));
  }
  EXPECT_THROW(sm.feed(Event::res(es[0], kEmpty)), CheckerOverflow);
  EXPECT_TRUE(sm.overflowed());
  EXPECT_NO_THROW(sm.feed(Event::res(es[1], kEmpty)));

  IntervalLinMonitor im(*wspec, /*max_configs=*/2);
  std::vector<OpDesc> ws;
  for (ProcId p = 0; p < 4; ++p) {
    ws.push_back(OpDesc{OpId{p, 0}, Method::kWriteSnap, kNoArg});
    im.feed(Event::inv(ws.back()));
  }
  EXPECT_THROW(im.feed(Event::res(ws[0], 0b1111)), CheckerOverflow);
  EXPECT_TRUE(im.overflowed());
  EXPECT_NO_THROW(im.feed(Event::res(ws[1], 0b1111)));
}

// ---- assign_from -----------------------------------------------------------

// assign_from overwrites the fed state (frontier, open ops, verdict) with
// the source's but keeps the target's own counters — the leveled checker
// restores checkpoints and shared tips through it, on every facade.
template <typename Monitor, typename MakeMonitor>
void expect_assign_copies_state(MakeMonitor&& make, const History& h,
                                const char* label) {
  Monitor a = make();
  Monitor b = make();
  for (const Event& e : h) a.feed(e);
  for (size_t i = 0; i < 4; ++i) b.feed(h[i]);  // b's own, shorter prefix
  const uint64_t own = b.stats().events_fed;
  ASSERT_NE(own, a.stats().events_fed) << label;
  ASSERT_TRUE(b.assign_from(a)) << label;
  EXPECT_EQ(b.ok(), a.ok()) << label;
  EXPECT_EQ(b.frontier_size(), a.frontier_size()) << label;
  EXPECT_EQ(b.frontier_digest(), a.frontier_digest()) << label;
  EXPECT_EQ(b.stats().events_fed, own) << label;
}

TEST(EngineParity, AssignFromCopiesStateKeepsCountersOnEveryFacade) {
  auto qspec = make_queue_spec();
  expect_assign_copies_state<LinMonitor>(
      [&] { return LinMonitor(*qspec); },
      random_linearizable_history(ObjectKind::kQueue, 3, 24, 5), "lin");
  auto xspec = make_exchanger_spec();
  expect_assign_copies_state<SetLinMonitor>(
      [&] { return SetLinMonitor(*xspec); },
      random_exchanger_history(4, 18, 9), "set-lin");
  auto wspec = make_write_snapshot_interval_spec();
  expect_assign_copies_state<IntervalLinMonitor>(
      [&] { return IntervalLinMonitor(*wspec); },
      random_write_snapshot_history(5, 3, false), "interval");
}

// ---- stats through a width swing -------------------------------------------

// Drive a monitor through a frontier that grows wide (9 overlapping push
// pairs → width 2^9 = 512) under sustained traffic, then resolve the
// ambiguity so the width collapses to 1.  The verdict stays ok throughout,
// and stats() reports the rounds, the peak and the dedup work.
TEST(EngineCounters, WidthSwingKeepsVerdictAndCounts) {
  auto spec = make_stack_spec();
  LinMonitor m(*spec, 1 << 20);
  OpFactory f;
  auto feed = [&](const Event& e) {
    m.feed(e);
    ASSERT_TRUE(m.ok());
  };

  // Build the ambiguous base: 9 overlapping push pairs, never popped.
  std::vector<std::pair<Value, Value>> pairs;
  Value v = 100;
  for (int k = 0; k < 9; ++k) {
    OpDesc a = f.op(0, Method::kPush, v++);
    OpDesc b = f.op(1, Method::kPush, v++);
    pairs.emplace_back(a.arg, b.arg);
    feed(Event::inv(a));
    feed(Event::inv(b));
    feed(Event::res(a, kTrue));
    feed(Event::res(b, kTrue));
  }
  ASSERT_EQ(m.frontier_size(), size_t{1} << 9);

  // Sustained traffic on the wide base: every response round sees width 512.
  for (int i = 0; i < 4; ++i) {
    OpDesc push = f.op(2, Method::kPush, v);
    OpDesc pop = f.op(3, Method::kPop);
    feed(Event::inv(push));
    feed(Event::inv(pop));
    feed(Event::res(push, kTrue));
    feed(Event::res(pop, v));
    ASSERT_TRUE(m.ok());
    ASSERT_EQ(m.frontier_size(), size_t{1} << 9);
    ++v;
  }

  // Resolve the ambiguity: pop each pair in b-then-a order (consistent with
  // the a-before-b interleaving), halving the width per pair down to 1.
  for (int k = 8; k >= 0; --k) {
    for (Value popped : {pairs[k].second, pairs[k].first}) {
      OpDesc d = f.op(4, Method::kPop);
      feed(Event::inv(d));
      feed(Event::res(d, popped));
      ASSERT_TRUE(m.ok()) << "k=" << k << " popped=" << popped;
    }
  }
  EXPECT_EQ(m.frontier_size(), 1u);

  engine::EngineStats s = m.stats();
  EXPECT_GT(s.rounds_sequential, 0u);
  EXPECT_GE(s.peak_frontier, size_t{1} << 9);
  EXPECT_GT(s.dedup_probes, 0u);
  EXPECT_GT(s.dedup_hits, 0u);

  // More traffic on the narrow tail grows the round count.
  for (int i = 0; i < 3; ++i) {
    OpDesc d = f.op(5, Method::kPush, 7000 + i);
    feed(Event::inv(d));
    feed(Event::res(d, kTrue));
  }
  engine::EngineStats tail = m.stats();
  EXPECT_GT(tail.rounds_sequential, s.rounds_sequential);
}

// Stats survive cloning: a copy reports the counts accumulated so far.
TEST(EngineCounters, StatsSurviveClone) {
  auto spec = make_queue_spec();
  LinMonitor m(*spec);
  OpFactory f;
  for (int i = 0; i < 6; ++i) {
    OpDesc e = f.op(0, Method::kEnqueue, i + 1);
    m.feed(Event::inv(e));
    m.feed(Event::res(e, kTrue));
  }
  engine::EngineStats before = m.stats();
  EXPECT_EQ(before.events_fed, 12u);
  EXPECT_GT(before.rounds_sequential, 0u);
  LinMonitor copy(m);
  engine::EngineStats after = copy.stats();
  EXPECT_EQ(after.events_fed, before.events_fed);
  EXPECT_EQ(after.rounds_sequential, before.rounds_sequential);
  EXPECT_EQ(after.dedup_probes, before.dedup_probes);
}

}  // namespace
}  // namespace selin
