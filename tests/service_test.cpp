// Multi-tenant monitoring service (src/selin/service/) and the shared
// executor underneath it (src/selin/parallel/executor.hpp).
//
// The service multiplexes N independent (spec, history) sessions over one
// executor.  What must hold:
//
//  * per-session verdicts are a function of the session's own event stream —
//    identical whatever the interleaving with other sessions' batches and
//    whatever the executor's lane count (cross-session isolation /
//    determinism; the TSan CI leg runs this suite to certify the
//    data-race-freedom half of that claim);
//  * total spawned threads stay bounded by the executor's lane cap no
//    matter how many sessions are open (the multi-tenant scaling
//    contract);
//  * a session overflowing its exploration budget (or rejecting) is
//    settled and isolated — other sessions keep progressing;
//  * the executor's phase dispatch is correct under nesting and rethrows
//    job exceptions.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "test_util.hpp"

namespace selin {
namespace {

using test::corrupt_response;
using test::random_linearizable_history;

constexpr ObjectKind kKinds[] = {
    ObjectKind::kQueue, ObjectKind::kStack, ObjectKind::kCounter,
    ObjectKind::kRegister, ObjectKind::kSet,
};

struct Stream {
  ObjectKind kind;
  History h;
  bool expect_ok;
  size_t ref_frontier;
};

// Mixed accepting/rejecting streams with sequential-reference verdicts.
std::vector<Stream> make_streams(size_t n) {
  std::vector<Stream> out;
  for (size_t i = 0; i < n; ++i) {
    Stream s;
    s.kind = kKinds[i % std::size(kKinds)];
    s.h = random_linearizable_history(s.kind, 3, 30, 1000 + i * 17);
    if (i % 3 == 1) corrupt_response(s.h, i * 7 + 1);
    auto spec = make_spec(s.kind);
    LinMonitor ref(*spec);
    for (const Event& e : s.h) ref.feed(e);
    s.expect_ok = ref.ok();
    s.ref_frontier = ref.frontier_size();
    out.push_back(std::move(s));
  }
  return out;
}

void expect_matches_reference(const service::MonitorService& svc,
                              const std::vector<Stream>& streams,
                              const char* label) {
  for (size_t i = 0; i < streams.size(); ++i) {
    const service::Session& s = svc.session(i);
    EXPECT_EQ(s.ok(), streams[i].expect_ok) << label << " session " << i;
    if (streams[i].expect_ok) {
      EXPECT_EQ(s.status(), service::Session::Status::kOk)
          << label << " session " << i;
      EXPECT_EQ(s.events_fed(), streams[i].h.size())
          << label << " session " << i;
      EXPECT_EQ(s.frontier_size(), streams[i].ref_frontier)
          << label << " session " << i;
    } else {
      EXPECT_EQ(s.status(), service::Session::Status::kRejected)
          << label << " session " << i;
    }
    EXPECT_EQ(s.pending(), 0u) << label << " session " << i;
  }
}

TEST(MonitorService, VerdictsMatchSequentialReferencePerLaneCount) {
  std::vector<Stream> streams = make_streams(6);
  for (size_t lanes : {1, 2, 4}) {
    service::ServiceOptions opts;
    opts.lanes = lanes;
    opts.batch_limit = 16;
    service::MonitorService svc(opts);
    for (size_t i = 0; i < streams.size(); ++i) {
      svc.open("s" + std::to_string(i), make_spec(streams[i].kind));
    }
    for (size_t i = 0; i < streams.size(); ++i) {
      svc.feed(i, std::span<const Event>(streams[i].h.data(),
                                         streams[i].h.size()));
    }
    svc.drain();
    expect_matches_reference(svc, streams,
                             ("lanes=" + std::to_string(lanes)).c_str());
  }
}

// Same verdicts whatever the feed/drain interleaving: dribble events in
// uneven chunks, draining at staggered points, across several schedules.
TEST(MonitorService, VerdictsIndependentOfInterleaving) {
  std::vector<Stream> streams = make_streams(5);
  for (uint64_t schedule = 0; schedule < 4; ++schedule) {
    service::ServiceOptions opts;
    opts.lanes = 2;
    opts.batch_limit = 4 + schedule * 5;
    service::MonitorService svc(opts);
    for (size_t i = 0; i < streams.size(); ++i) {
      svc.open("s" + std::to_string(i), make_spec(streams[i].kind));
    }
    std::vector<size_t> cursor(streams.size(), 0);
    Rng rng(99 + schedule);
    bool progress = true;
    while (progress) {
      progress = false;
      for (size_t i = 0; i < streams.size(); ++i) {
        size_t left = streams[i].h.size() - cursor[i];
        if (left == 0) continue;
        size_t take = std::min<size_t>(left, 1 + rng.below(7));
        svc.feed(i, std::span<const Event>(streams[i].h.data() + cursor[i],
                                           take));
        cursor[i] += take;
        progress = true;
        if (rng.chance(1, 3)) svc.drain_round();
      }
    }
    svc.drain();
    expect_matches_reference(
        svc, streams, ("schedule=" + std::to_string(schedule)).c_str());
  }
}

// The multi-tenant contract: many sessions, bounded threads.  The service's
// executor must never spawn more workers than its lane cap even with far
// more sessions than lanes.
TEST(MonitorService, SpawnedThreadsBoundedByLaneCap) {
  constexpr size_t kLanes = 2;
  service::ServiceOptions opts;
  opts.lanes = kLanes;
  opts.batch_limit = 8;
  service::MonitorService svc(opts);
  std::vector<Stream> streams = make_streams(12);
  for (size_t i = 0; i < streams.size(); ++i) {
    svc.open("s" + std::to_string(i), make_spec(streams[i].kind));
    svc.feed(i, std::span<const Event>(streams[i].h.data(),
                                       streams[i].h.size()));
  }
  svc.drain();
  EXPECT_EQ(svc.executor()->lanes(), kLanes);
  EXPECT_LE(svc.executor()->threads_spawned(), kLanes);
  expect_matches_reference(svc, streams, "bounded-threads");
}

// An injected executor is shared verbatim: two services, one pool, still
// bounded, still correct.
TEST(MonitorService, SharesInjectedExecutor) {
  auto exec = std::make_shared<parallel::Executor>(2);
  service::ServiceOptions opts;
  opts.executor = exec;
  service::MonitorService a(opts), b(opts);
  EXPECT_EQ(a.executor().get(), exec.get());
  EXPECT_EQ(b.executor().get(), exec.get());
  std::vector<Stream> streams = make_streams(4);
  for (size_t i = 0; i < streams.size(); ++i) {
    service::MonitorService& svc = (i % 2 == 0) ? a : b;
    svc.open("s" + std::to_string(i), make_spec(streams[i].kind));
  }
  for (size_t i = 0; i < streams.size(); ++i) {
    service::MonitorService& svc = (i % 2 == 0) ? a : b;
    svc.feed(i / 2, std::span<const Event>(streams[i].h.data(),
                                           streams[i].h.size()));
  }
  a.drain();
  b.drain();
  EXPECT_LE(exec->threads_spawned(), 2u);
  for (size_t i = 0; i < streams.size(); ++i) {
    const service::MonitorService& svc = (i % 2 == 0) ? a : b;
    EXPECT_EQ(svc.session(i / 2).ok(), streams[i].expect_ok) << i;
  }
}

// A session blowing its exploration budget settles as kOverflowed without
// disturbing its neighbors, and drops (rather than accumulates) further
// input.
TEST(MonitorService, OverflowIsolatedPerSession) {
  service::ServiceOptions opts;
  opts.lanes = 2;
  service::MonitorService svc(opts);

  // Session 0: 6 concurrently open enqueues against a 4-config budget.
  service::SessionOptions tight;
  tight.max_configs = 4;
  svc.open("tight", make_queue_spec(), tight);
  History wide;
  std::vector<OpDesc> open_ops;
  for (ProcId p = 0; p < 6; ++p) {
    open_ops.push_back(OpDesc{OpId{p, 0}, Method::kEnqueue, p + 1});
    wide.push_back(Event::inv(open_ops.back()));
  }
  wide.push_back(Event::res(open_ops[0], kTrue));

  // Session 1: a healthy stream.
  Stream good;
  good.kind = ObjectKind::kQueue;
  good.h = random_linearizable_history(good.kind, 3, 24, 5);
  svc.open("good", make_spec(good.kind));

  svc.feed(0, std::span<const Event>(wide.data(), wide.size()));
  svc.feed(1, std::span<const Event>(good.h.data(), good.h.size()));
  svc.drain();

  EXPECT_EQ(svc.session(0).status(), service::Session::Status::kOverflowed);
  // events_fed reports what the engine accepted: the 6 invocations (the
  // overflowing response died mid-closure), not the batch's arrival count.
  EXPECT_EQ(svc.session(0).events_fed(), 6u);
  EXPECT_EQ(svc.session(1).status(), service::Session::Status::kOk);
  EXPECT_EQ(svc.session(1).events_fed(), good.h.size());

  // Sticky: more input to the overflowed session is dropped, not buffered.
  svc.feed(0, Event::res(open_ops[1], kTrue));
  EXPECT_EQ(svc.session(0).pending(), 0u);
  svc.drain();
  EXPECT_EQ(svc.session(0).status(), service::Session::Status::kOverflowed);
}

// A rejecting session reports the batch window containing the offense.
TEST(MonitorService, FirstBadIndexBracketsTheOffense) {
  Stream bad;
  bad.kind = ObjectKind::kQueue;
  bad.h = random_linearizable_history(bad.kind, 3, 40, 77);
  ASSERT_TRUE(corrupt_response(bad.h, 3));

  service::ServiceOptions opts;
  opts.lanes = 2;
  opts.batch_limit = 8;
  service::MonitorService svc(opts);
  svc.open("bad", make_spec(bad.kind));
  svc.feed(0, std::span<const Event>(bad.h.data(), bad.h.size()));
  svc.drain();

  const service::Session& s = svc.session(0);
  ASSERT_EQ(s.status(), service::Session::Status::kRejected);
  EXPECT_LT(s.first_bad_index(), s.events_fed());
  EXPECT_LE(s.events_fed() - s.first_bad_index(), 8u)
      << "offense must lie within the final drained batch";
  // Stats flow through per session.
  EXPECT_GT(s.stats().events_fed, 0u);
}

// ---- executor primitives ---------------------------------------------------

TEST(Executor, PhaseRunsEverySliceExactlyOnce) {
  parallel::Executor exec(3);
  for (size_t n : {1, 2, 7, 64}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    exec.run_phase(n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
  EXPECT_LE(exec.threads_spawned(), 3u);
}

TEST(Executor, PhaseRethrowsFirstJobException) {
  parallel::Executor exec(2);
  EXPECT_THROW(
      exec.run_phase(5,
                     [&](size_t i) {
                       if (i == 3) throw std::runtime_error("slice 3");
                     }),
      std::runtime_error);
  // The executor stays usable after a throwing phase.
  std::atomic<int> ok{0};
  exec.run_phase(4, [&](size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
}

// A phase job launching its own phase on the same executor: callers claim
// unstarted slices themselves, so nested phases must complete without
// deadlock whatever the lane count.
TEST(Executor, NestedPhasesComplete) {
  for (size_t lanes : {1, 2}) {
    parallel::Executor exec(lanes);
    std::atomic<int> inner{0};
    exec.run_phase(3, [&](size_t) {
      exec.run_phase(4, [&](size_t) { inner.fetch_add(1); });
    });
    EXPECT_EQ(inner.load(), 12);
  }
}

}  // namespace
}  // namespace selin
