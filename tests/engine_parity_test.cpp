// Differential parity for the unified FrontierEngine (src/selin/engine/).
//
// All three membership checkers are facades over one engine, and the engine
// has three execution modes: sequential (threads == 1), sharded
// (threads == N), and adaptive (threads == engine::kAutoThreads /
// auto_threads(n), which switches between the other two per feed round by
// frontier-width hysteresis).  The closure set and the filtered frontier
// are fixpoints — independent of how and where work is split — so this
// suite asserts, for every concrete spec:
//
//  * per-event verdicts, frontier sizes, and frontier digests (the XOR of
//    mixed configuration fingerprints — representation-independent, so it
//    also pins the run-length op-set storage to the flat representation's
//    hash contract) are bit-identical across threads ∈ {1, 2, auto(2),
//    auto}, on accepting and rejecting histories;
//  * final verdicts agree with the brute-force oracle on small histories;
//  * the overflow and feed-boundary-exception paths behave identically in
//    every mode (CheckerOverflow thrown, sticky overflowed(), frontier
//    released, clones inherit the poisoned state);
//  * the adaptive engine actually switches representations both ways and
//    reports it through the stats facility.
#include <gtest/gtest.h>

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

// The execution modes under test.  auto_threads(2) pins the adaptive
// engine's lane count so the parallel representation is reachable even on a
// single-core host; kAutoThreads additionally covers the hardware-resolved
// lane count (which may legitimately degenerate to 1 lane).
const size_t kModes[] = {2, engine::auto_threads(2), engine::kAutoThreads};

constexpr ObjectKind kAllKinds[] = {
    ObjectKind::kQueue,   ObjectKind::kStack,    ObjectKind::kSet,
    ObjectKind::kPqueue,  ObjectKind::kCounter,  ObjectKind::kRegister,
    ObjectKind::kConsensus,
};

// Feed `h` through monitors for every mode in lockstep against the
// sequential reference, asserting verdict and frontier-size equality after
// every event.  Returns the sequential verdict.
template <typename Monitor, typename MakeMonitor>
bool expect_mode_parity(MakeMonitor&& make, const History& h,
                        const char* label) {
  Monitor ref = make(size_t{1});
  std::vector<Monitor> others;
  for (size_t mode : kModes) others.push_back(make(mode));
  for (size_t i = 0; i < h.size(); ++i) {
    ref.feed(h[i]);
    for (size_t m = 0; m < others.size(); ++m) {
      others[m].feed(h[i]);
      bool ok_eq = ref.ok() == others[m].ok();
      bool fs_eq = ref.frontier_size() == others[m].frontier_size();
      bool dg_eq = ref.frontier_digest() == others[m].frontier_digest();
      // The footprint walks every live configuration, so its equality pins
      // the op-set *contents* across modes, not just their fingerprints.
      engine::FrontierFootprint rf = ref.footprint();
      engine::FrontierFootprint of = others[m].footprint();
      bool fp_eq = rf.configs == of.configs &&
                   rf.opset_elems == of.opset_elems &&
                   rf.opset_bytes == of.opset_bytes &&
                   rf.opset_smallvec_bytes == of.opset_smallvec_bytes;
      EXPECT_TRUE(ok_eq) << label << " mode " << m << " event " << i
                         << ": ok " << ref.ok() << " vs " << others[m].ok();
      EXPECT_TRUE(fs_eq) << label << " mode " << m << " event " << i
                         << ": frontier " << ref.frontier_size() << " vs "
                         << others[m].frontier_size();
      EXPECT_TRUE(dg_eq) << label << " mode " << m << " event " << i
                         << ": digest " << ref.frontier_digest() << " vs "
                         << others[m].frontier_digest();
      EXPECT_TRUE(fp_eq) << label << " mode " << m << " event " << i
                         << ": footprint " << rf.opset_bytes << " vs "
                         << of.opset_bytes;
      if (!ok_eq || !fs_eq || !dg_eq || !fp_eq) {
        return ref.ok();  // don't spam per-event failures
      }
    }
  }
  return ref.ok();
}

TEST(EngineParity, AllSeqSpecsAcceptingAndRejecting) {
  for (ObjectKind kind : kAllKinds) {
    auto spec = make_spec(kind);
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      History good = random_linearizable_history(kind, 4, 40, seed * 19 + 2);
      auto make = [&](size_t threads) {
        return LinMonitor(*spec, 1 << 18, threads);
      };
      bool v = expect_mode_parity<LinMonitor>(make, good,
                                              object_kind_name(kind));
      EXPECT_TRUE(v) << object_kind_name(kind) << " seed " << seed;
      History bad = good;
      if (corrupt_response(bad, seed * 5 + 1)) {
        expect_mode_parity<LinMonitor>(make, bad, object_kind_name(kind));
      }
    }
  }
}

// Small histories, so the exponential reference oracle is feasible: every
// mode must agree with brute force, not merely with each other.
TEST(EngineParity, BruteForceOracleAgreesInEveryMode) {
  for (ObjectKind kind : kAllKinds) {
    auto spec = make_spec(kind);
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      for (bool corrupt : {false, true}) {
        History h = random_linearizable_history(kind, 3, 7, seed * 11 + 3);
        if (corrupt && !corrupt_response(h, seed)) continue;
        bool oracle = linearizable_bruteforce(*spec, h);
        EXPECT_EQ(oracle, linearizable(*spec, h))
            << object_kind_name(kind) << " seed " << seed;
        for (size_t mode : kModes) {
          EXPECT_EQ(oracle, linearizable(*spec, h, 1 << 18, mode))
              << object_kind_name(kind) << " seed " << seed;
        }
      }
    }
  }
}

TEST(EngineParity, SetLinExchanger) {
  auto spec = make_exchanger_spec();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    History h = random_exchanger_history(4, 20, seed * 29 + 7);
    auto make = [&](size_t threads) {
      return SetLinMonitor(*spec, 1 << 18, threads);
    };
    expect_mode_parity<SetLinMonitor>(make, h, "exchanger");
  }
}

TEST(EngineParity, IntervalLinWriteSnapshot) {
  auto spec = make_write_snapshot_interval_spec();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (bool corrupt : {false, true}) {
      History h = random_write_snapshot_history(5, seed * 23 + 1, corrupt);
      auto make = [&](size_t threads) {
        return IntervalLinMonitor(*spec, 1 << 18, threads);
      };
      expect_mode_parity<IntervalLinMonitor>(make, h, "write-snapshot");
    }
  }
}

// ---- batched feed parity ---------------------------------------------------
//
// feed_batch must produce bit-identical verdicts and frontier sizes to
// feeding the same events one at a time, at every batch boundary, for every
// chunking and in every execution mode: the one closure a batch round runs
// services the whole run of consecutive responses (the filtered frontier is
// already closed — see FrontierEngine::feed_res_run), so nothing may depend
// on where the stream is cut.

// Feed `h` per-event into a reference monitor and in `chunk`-sized batches
// into another; compare verdict and frontier at every chunk boundary.
template <typename Monitor, typename MakeMonitor>
void expect_batch_parity(MakeMonitor&& make, const History& h, size_t chunk,
                         size_t mode, const char* label) {
  Monitor ref = make(size_t{1});
  Monitor batched = make(mode);
  for (size_t i = 0; i < h.size(); i += chunk) {
    const size_t n = std::min(chunk, h.size() - i);
    for (size_t k = i; k < i + n; ++k) ref.feed(h[k]);
    batched.feed_batch({h.data() + i, n});
    ASSERT_EQ(ref.ok(), batched.ok())
        << label << " chunk " << chunk << " mode " << mode << " events ["
        << i << ", " << i + n << ")";
    ASSERT_EQ(ref.frontier_size(), batched.frontier_size())
        << label << " chunk " << chunk << " mode " << mode << " events ["
        << i << ", " << i + n << ")";
    ASSERT_EQ(ref.frontier_digest(), batched.frontier_digest())
        << label << " chunk " << chunk << " mode " << mode << " events ["
        << i << ", " << i + n << ")";
    engine::FrontierFootprint rf = ref.footprint();
    engine::FrontierFootprint bf = batched.footprint();
    ASSERT_EQ(rf.opset_bytes, bf.opset_bytes)
        << label << " chunk " << chunk << " mode " << mode << " events ["
        << i << ", " << i + n << ")";
    ASSERT_EQ(rf.opset_elems, bf.opset_elems)
        << label << " chunk " << chunk << " mode " << mode << " events ["
        << i << ", " << i + n << ")";
  }
}

TEST(BatchParity, AllSeqSpecsEveryChunkingAndMode) {
  const size_t modes[] = {1, 2, engine::auto_threads(2)};
  for (ObjectKind kind : kAllKinds) {
    auto spec = make_spec(kind);
    auto make = [&](size_t threads) {
      return LinMonitor(*spec, 1 << 18, threads);
    };
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      History good = random_linearizable_history(kind, 4, 36, seed * 31 + 5);
      History bad = good;
      bool have_bad = corrupt_response(bad, seed * 3 + 2);
      for (size_t chunk : {size_t{1}, size_t{3}, size_t{8}, good.size()}) {
        for (size_t mode : modes) {
          expect_batch_parity<LinMonitor>(make, good, chunk, mode,
                                          object_kind_name(kind));
          if (have_bad) {
            expect_batch_parity<LinMonitor>(make, bad, chunk, mode,
                                            object_kind_name(kind));
          }
        }
      }
    }
  }
}

TEST(BatchParity, SetLinExchangerEveryChunking) {
  auto spec = make_exchanger_spec();
  auto make = [&](size_t threads) {
    return SetLinMonitor(*spec, 1 << 18, threads);
  };
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    History h = random_exchanger_history(4, 18, seed * 13 + 3);
    for (size_t chunk : {size_t{1}, size_t{4}, h.size()}) {
      for (size_t mode : {size_t{1}, size_t{2}, engine::auto_threads(2)}) {
        expect_batch_parity<SetLinMonitor>(make, h, chunk, mode, "exchanger");
      }
    }
  }
}

TEST(BatchParity, IntervalWriteSnapshotEveryChunking) {
  auto spec = make_write_snapshot_interval_spec();
  auto make = [&](size_t threads) {
    return IntervalLinMonitor(*spec, 1 << 18, threads);
  };
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    for (bool corrupt : {false, true}) {
      History h = random_write_snapshot_history(5, seed * 41 + 7, corrupt);
      for (size_t chunk : {size_t{1}, size_t{4}, h.size()}) {
        for (size_t mode : {size_t{1}, size_t{2}, engine::auto_threads(2)}) {
          expect_batch_parity<IntervalLinMonitor>(make, h, chunk, mode,
                                                  "write-snapshot");
        }
      }
    }
  }
}

// A batch overflowing mid-run behaves exactly like the per-event overflow:
// CheckerOverflow propagates, the monitor poisons sticky, later batches are
// no-ops.
TEST(BatchParity, OverflowInsideBatchPoisonsSticky) {
  auto spec = make_queue_spec();
  for (size_t mode : {size_t{1}, size_t{2}, engine::auto_threads(2)}) {
    LinMonitor m(*spec, /*max_configs=*/4, mode);
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
}

// The point of the batch path: one closure per response run.  A run of k
// consecutive responses must cost one engine round, not k.
TEST(BatchParity, BatchRunCountsOneRound) {
  auto spec = make_queue_spec();
  LinMonitor m(*spec, 1 << 18, 1);
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

TEST(EngineParity, OverflowStickyInEveryMode) {
  auto spec = make_queue_spec();
  std::vector<size_t> modes = {1};
  modes.insert(modes.end(), std::begin(kModes), std::end(kModes));
  for (size_t mode : modes) {
    LinMonitor m(*spec, /*max_configs=*/4, mode);
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
}

TEST(EngineParity, SetLinAndIntervalOverflowSticky) {
  auto xspec = make_exchanger_spec();
  auto wspec = make_write_snapshot_interval_spec();
  std::vector<size_t> modes = {1, 2, engine::auto_threads(2)};
  OpFactory f;
  for (size_t mode : modes) {
    SetLinMonitor sm(*xspec, /*max_configs=*/2, mode);
    std::vector<OpDesc> es;
    for (ProcId p = 0; p < 4; ++p) {
      es.push_back(f.op(p, Method::kExchange, p + 1));
      sm.feed(Event::inv(es.back()));
    }
    EXPECT_THROW(sm.feed(Event::res(es[0], kEmpty)), CheckerOverflow);
    EXPECT_TRUE(sm.overflowed());
    EXPECT_NO_THROW(sm.feed(Event::res(es[1], kEmpty)));

    IntervalLinMonitor im(*wspec, /*max_configs=*/2, mode);
    std::vector<OpDesc> ws;
    for (ProcId p = 0; p < 4; ++p) {
      ws.push_back(OpDesc{OpId{p, 0}, Method::kWriteSnap, kNoArg});
      im.feed(Event::inv(ws.back()));
    }
    EXPECT_THROW(im.feed(Event::res(ws[0], 0b1111)), CheckerOverflow);
    EXPECT_TRUE(im.overflowed());
    EXPECT_NO_THROW(im.feed(Event::res(ws[1], 0b1111)));
  }
}

// The *event* at which the budget trips is part of the parity contract for
// the sequential engine: closure admits configurations in emission order, so
// batched probing must overflow at exactly the same accepted-config count —
// and hence on the same event — as the per-emit probes it replaced.  (The
// sharded engine's budget is a relaxed shared counter; its trip round is
// deterministic in content but not guaranteed event-identical, so only
// deterministic modes are pinned here.)
TEST(EngineParity, OverflowPointIdenticalAcrossDeterministicModes) {
  auto spec = make_queue_spec();
  OpFactory f;
  History h;
  std::vector<OpDesc> es;
  for (ProcId p = 0; p < 7; ++p) {
    es.push_back(f.op(p, Method::kEnqueue, p + 1));
    h.push_back(Event::inv(es.back()));
  }
  for (ProcId p = 0; p < 7; ++p) h.push_back(Event::res(es[p], kTrue));
  auto overflow_point = [&](size_t mode) -> size_t {
    LinMonitor m(*spec, /*max_configs=*/16, mode);
    for (size_t i = 0; i < h.size(); ++i) {
      try {
        m.feed(h[i]);
      } catch (const CheckerOverflow&) {
        return i;
      }
    }
    return h.size();
  };
  const size_t ref = overflow_point(1);
  ASSERT_LT(ref, h.size()) << "history never overflowed the budget";
  // kAutoThreads stays sequential until the frontier is wide, and this
  // workload overflows before engaging, so it is deterministic here.
  for (size_t mode : {engine::kAutoThreads}) {
    EXPECT_EQ(ref, overflow_point(mode)) << "mode " << mode;
  }
}

// ---- adaptive execution ----------------------------------------------------

// Drive an adaptive monitor through a frontier that grows past the engage
// threshold (9 overlapping push pairs → width 2^9 = 512 ≥ kAutoEngageWidth)
// under sustained traffic, then resolve the ambiguity so the width collapses
// below the retreat threshold.  The engine must dispatch rounds on both
// paths, report them in stats(), and agree with the sequential reference
// throughout (which the parity suites above already established; here the
// point is the switching itself).
TEST(EngineAdaptive, SwitchesBothWaysUnderWidthSwings) {
  auto spec = make_stack_spec();
  LinMonitor seq(*spec, 1 << 20, 1);
  LinMonitor adp(*spec, 1 << 20, engine::auto_threads(2));
  OpFactory f;
  auto feed_both = [&](const Event& e) {
    seq.feed(e);
    adp.feed(e);
    ASSERT_EQ(seq.ok(), adp.ok());
    ASSERT_EQ(seq.frontier_size(), adp.frontier_size());
  };

  // Build the ambiguous base: 9 overlapping push pairs, never popped.
  std::vector<std::pair<Value, Value>> pairs;
  Value v = 100;
  for (int k = 0; k < 9; ++k) {
    OpDesc a = f.op(0, Method::kPush, v++);
    OpDesc b = f.op(1, Method::kPush, v++);
    pairs.emplace_back(a.arg, b.arg);
    feed_both(Event::inv(a));
    feed_both(Event::inv(b));
    feed_both(Event::res(a, kTrue));
    feed_both(Event::res(b, kTrue));
  }
  ASSERT_EQ(adp.frontier_size(), size_t{1} << 9);

  // Sustained traffic on the wide base: every response round now sees width
  // 512 ≥ kAutoEngageWidth and must run sharded.
  for (int i = 0; i < 4; ++i) {
    OpDesc push = f.op(2, Method::kPush, v);
    OpDesc pop = f.op(3, Method::kPop);
    feed_both(Event::inv(push));
    feed_both(Event::inv(pop));
    feed_both(Event::res(push, kTrue));
    feed_both(Event::res(pop, v));
    ASSERT_TRUE(adp.ok());
    ASSERT_EQ(adp.frontier_size(), size_t{1} << 9);
    ++v;
  }
  const uint64_t rounds_par_peak = adp.stats().rounds_parallel;
  EXPECT_GT(rounds_par_peak, 0u)
      << "wide frontier never engaged the sharded path";

  // Resolve the ambiguity: pop each pair in b-then-a order (consistent with
  // the a-before-b interleaving), halving the width per pair until it falls
  // below the retreat threshold.
  for (int k = 8; k >= 0; --k) {
    for (Value popped : {pairs[k].second, pairs[k].first}) {
      OpDesc d = f.op(4, Method::kPop);
      feed_both(Event::inv(d));
      feed_both(Event::res(d, popped));
      ASSERT_TRUE(adp.ok()) << "k=" << k << " popped=" << popped;
    }
  }
  EXPECT_EQ(adp.frontier_size(), 1u);

  engine::EngineStats s = adp.stats();
  EXPECT_GT(s.rounds_sequential, 0u);
  EXPECT_GE(s.peak_frontier, size_t{1} << 9);
  EXPECT_GT(s.dedup_probes, 0u);
  EXPECT_GT(s.dedup_hits, 0u);

  // The narrow tail must run sequentially again: more traffic grows the
  // sequential round count but not the parallel one.
  for (int i = 0; i < 3; ++i) {
    OpDesc d = f.op(5, Method::kPush, 7000 + i);
    feed_both(Event::inv(d));
    feed_both(Event::res(d, kTrue));
  }
  engine::EngineStats tail = adp.stats();
  EXPECT_EQ(tail.rounds_parallel, s.rounds_parallel);
  EXPECT_GT(tail.rounds_sequential, s.rounds_sequential);
}

// Stats survive cloning: a copy reports the counts accumulated so far.
TEST(EngineAdaptive, StatsSurviveClone) {
  auto spec = make_queue_spec();
  LinMonitor m(*spec, 1 << 18, 1);
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
