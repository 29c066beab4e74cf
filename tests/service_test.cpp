// Multi-tenant monitoring service (src/selin/service/).
//
// The service multiplexes N independent (spec, history) sessions over one
// drain thread.  What must hold:
//
//  * per-session verdicts are a function of the session's own event stream —
//    identical whatever the interleaving with other sessions' batches
//    (cross-session isolation / determinism; the TSan CI leg runs this
//    suite);
//  * a drain round feeds every pending session at most batch_limit events
//    (the fairness quantum);
//  * a session overflowing its exploration budget (or rejecting) is
//    settled and isolated — other sessions keep progressing;
//  * a session fed through its inbox buffers at most batch_limit +
//    inbox_capacity events, with the batches and verdicts unchanged.
#include <gtest/gtest.h>

#include <algorithm>
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

TEST(MonitorService, VerdictsMatchSequentialReference) {
  std::vector<Stream> streams = make_streams(6);
  service::ServiceOptions opts;
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
  expect_matches_reference(svc, streams, "drain");
}

// The drain quantum: round k has fed each session exactly
// min(length, batch_limit * k) events, and a round services only the
// sessions that still had input when it started.
TEST(MonitorService, DrainRoundFeedsAtMostBatchLimitPerSession) {
  constexpr size_t kLimit = 16;
  const size_t lengths[] = {100, 10, 40};
  std::vector<Stream> streams;
  for (size_t i = 0; i < std::size(lengths); ++i) {
    Stream s;
    s.kind = kKinds[i];
    s.h = random_linearizable_history(s.kind, 3, lengths[i] / 2, 500 + i);
    ASSERT_EQ(s.h.size(), lengths[i]);
    auto spec = make_spec(s.kind);
    LinMonitor ref(*spec);
    for (const Event& e : s.h) ref.feed(e);
    ASSERT_TRUE(ref.ok());
    s.expect_ok = true;
    s.ref_frontier = ref.frontier_size();
    streams.push_back(std::move(s));
  }

  service::ServiceOptions opts;
  opts.batch_limit = kLimit;
  service::MonitorService svc(opts);
  for (size_t i = 0; i < streams.size(); ++i) {
    svc.open("s" + std::to_string(i), make_spec(streams[i].kind));
    svc.feed(i, std::span<const Event>(streams[i].h.data(),
                                       streams[i].h.size()));
  }
  const size_t serviced[] = {3, 2, 2, 1, 1, 1, 1, 0};
  for (size_t k = 1; k <= std::size(serviced); ++k) {
    EXPECT_EQ(svc.drain_round(), serviced[k - 1]) << "round " << k;
    for (size_t i = 0; i < streams.size(); ++i) {
      const size_t want = std::min(lengths[i], kLimit * k);
      EXPECT_EQ(svc.session(i).events_fed(), want)
          << "round " << k << " session " << i;
      EXPECT_EQ(svc.session(i).pending(), lengths[i] - want)
          << "round " << k << " session " << i;
    }
  }
  expect_matches_reference(svc, streams, "quantum");
}

// Same verdicts whatever the feed/drain interleaving: dribble events in
// uneven chunks, draining at staggered points, across several schedules.
TEST(MonitorService, VerdictsIndependentOfInterleaving) {
  std::vector<Stream> streams = make_streams(5);
  for (uint64_t schedule = 0; schedule < 4; ++schedule) {
    service::ServiceOptions opts;
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

// A session blowing its exploration budget settles as kOverflowed without
// disturbing its neighbors, and drops (rather than accumulates) further
// input.
TEST(MonitorService, OverflowIsolatedPerSession) {
  service::MonitorService svc;

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

// The inbox path drops a session's consumed prefix before it absorbs the
// inbox, so the buffer never holds more than batch_limit + inbox_capacity
// events, however long the stream.  Publishes come in sizes that straddle
// batch boundaries and bounce off the full inbox.  Each round must feed
// exactly the batch the absorb rule gives (absorb the inbox while fewer than
// batch_limit events are pending, then feed up to batch_limit of them), so a
// LinMonitor fed those batches straight through ends with the same verdict,
// events_fed() and first_bad_index().
TEST(MonitorService, InboxPathBufferStaysBounded) {
  constexpr size_t kLimit = 8;
  constexpr size_t kInbox = 12;
  const size_t sizes[] = {5, 11, 3, 7};
  for (const bool corrupt : {false, true}) {
    SCOPED_TRACE(corrupt ? "corrupt" : "clean");
    History h = random_linearizable_history(ObjectKind::kQueue, 3, 200, 31);
    if (corrupt) {
      ASSERT_TRUE(corrupt_response(h, 5));
    }

    service::ServiceOptions opts;
    opts.batch_limit = kLimit;
    service::MonitorService svc(opts);
    service::SessionOptions so;
    so.inbox_capacity = kInbox;
    service::Session& s = svc.session(svc.open("s", make_queue_spec(), so));

    auto spec = make_queue_spec();
    LinMonitor ref(*spec);
    size_t ref_inbox = 0, ref_pending = 0, ref_fed = 0, ref_first_bad = 0;
    const auto round = [&] {
      svc.drain_round();
      if (ref.ok()) {
        if (ref_inbox > 0 && ref_pending < kLimit) {
          ref_pending += ref_inbox;
          ref_inbox = 0;
        }
        const size_t n = std::min(kLimit, ref_pending);
        ref.feed_batch(std::span<const Event>(h.data() + ref_fed, n));
        if (!ref.ok()) ref_first_bad = ref_fed;
        ref_fed += n;
        ref_pending -= n;
      }
      EXPECT_LE(s.buffer_len(), kLimit + kInbox);
      if (ref.ok()) {
        EXPECT_EQ(s.events_fed(), ref_fed);
      }
    };

    size_t published = 0;
    for (size_t k = 0; published < h.size(); ++k) {
      const size_t n = std::min(sizes[k % std::size(sizes)],
                                h.size() - published);
      const std::span<const Event> chunk(h.data() + published, n);
      while (!s.try_publish(chunk)) round();
      published += n;
      if (ref.ok()) ref_inbox += n;  // a settled session discards
      if (k % 3 != 2) round();
    }
    while (s.backlog() > 0) round();

    EXPECT_EQ(s.ok(), ref.ok());
    EXPECT_EQ(ref.ok(), !corrupt);
    if (!corrupt) {
      EXPECT_EQ(s.events_fed(), h.size());
    }
    EXPECT_EQ(s.events_fed(), ref.ok() ? ref_fed : ref.stats().events_fed);
    EXPECT_EQ(s.first_bad_index(), ref.ok() ? ref_fed : ref_first_bad);
  }
}

}  // namespace
}  // namespace selin
