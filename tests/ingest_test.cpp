// Live-ingest path tests: the MPSC session feed (Session::try_publish under
// genuinely concurrent producers — the TSan target of the CI ingest smoke)
// and the IngestServer end to end over a Unix-domain socket: handshake,
// acks, deterministic THROTTLE backpressure, go-back-N duplicate handling,
// protocol errors, the HTTP-ish stats endpoints, idle eviction and TCP.
//
// The raw-socket helper speaks the wire protocol directly (no IngestClient)
// where the test needs to provoke frames a correct client never sends:
// oversized batches, duplicate and gapped sequence numbers, events before
// hello, plain HTTP requests.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "selin/net/ingest_client.hpp"
#include "selin/net/ingest_server.hpp"
#include "selin/net/wire.hpp"
#include "selin/service/monitor_service.hpp"
#include "selin/sim/workload.hpp"
#include "test_util.hpp"

namespace selin::net {
namespace {

using service::MonitorService;
using service::Session;
using service::SessionOptions;

// A short, collision-free socket path (sun_path is ~108 bytes).
std::string test_uds_path(const char* tag) {
  return "/tmp/selin_igt_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

/// A sequential (single-process) correct queue stream: Enqueue/Dequeue
/// alternating, responses from the sequential spec — accepted by any
/// linearizability monitor.
std::vector<Event> queue_stream(size_t ops) {
  auto spec = make_spec(ObjectKind::kQueue);
  auto state = spec->initial();
  test::OpFactory f;
  std::vector<Event> ev;
  ev.reserve(ops * 2);
  for (size_t i = 0; i < ops; ++i) {
    const Method m = (i % 2 == 0) ? Method::kEnqueue : Method::kDequeue;
    const Value arg = (m == Method::kEnqueue) ? static_cast<Value>(i + 1)
                                              : kNoArg;
    const OpDesc d = f.op(0, m, arg);
    ev.push_back(Event::inv(d));
    ev.push_back(Event::res(d, state->step(m, arg)));
  }
  return ev;
}

// ---- MPSC feed (direct service, no sockets) --------------------------------

// Many producer threads publish into ONE session while the controller
// drains concurrently.  Consensus makes the history correct by construction
// under every interleaving: all producers Decide(7), and since the first
// decision fixes the value, every response is 7 whatever the arrival order.
// A small inbox forces real try_publish rejections (the backpressure path)
// along the way.  This is the TSan coverage of the producer-side feed.
TEST(IngestMpsc, ConcurrentProducersOneSession) {
  constexpr size_t kProducers = 4;
  constexpr size_t kOpsPerProducer = 2000;

  MonitorService svc;
  SessionOptions so;
  so.inbox_capacity = 256;  // small: guarantees overflow rejections
  const auto sid = svc.open("mpsc", make_spec(ObjectKind::kConsensus), so);

  std::atomic<uint64_t> rejected{0};
  std::vector<std::thread> producers;
  for (size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      Session* s = svc.find(sid);
      ASSERT_NE(s, nullptr);
      for (uint32_t i = 0; i < kOpsPerProducer; ++i) {
        const OpDesc d{OpId{static_cast<ProcId>(t), i}, Method::kDecide, 7};
        const Event batch[2] = {Event::inv(d), Event::res(d, 7)};
        while (!s->try_publish(batch)) {
          rejected.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();
        }
      }
    });
  }

  // The controller drains concurrently with the publishes (the daemon's
  // drain thread, inlined) — but only once the inbox has actually
  // overflowed, so the backpressure path is exercised deterministically:
  // 16000 events cannot fit a 256-event inbox that nobody is draining.
  std::atomic<bool> done{false};
  std::thread controller([&] {
    while (rejected.load(std::memory_order_relaxed) == 0 &&
           !done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    while (!done.load(std::memory_order_acquire)) {
      if (svc.drain_round() == 0) std::this_thread::yield();
    }
    // Producers are gone: absorb whatever is left.
    while (svc.session(sid).backlog() > 0) svc.drain_round();
  });
  for (auto& p : producers) p.join();
  done.store(true, std::memory_order_release);
  controller.join();

  const Session& s = svc.session(sid);
  EXPECT_TRUE(s.ok()) << "interleaving-independent stream must be accepted";
  EXPECT_EQ(s.events_fed(), kProducers * kOpsPerProducer * 2);
  EXPECT_EQ(s.backlog(), 0u);
  // With a 256-event inbox and 16000 events, backpressure must have fired.
  EXPECT_GT(rejected.load(), 0u) << "inbox bound never exercised";
}

// A settled (rejected) session accepts publishes and discards them: sticky
// verdicts ignore input, so producers never need a special shutdown path.
TEST(IngestMpsc, SettledSessionDiscardsPublishes) {
  MonitorService svc;
  const auto sid = svc.open("settled", make_spec(ObjectKind::kQueue));
  Session* s = svc.find(sid);
  ASSERT_NE(s, nullptr);

  // Dequeue from an empty queue claiming a value: certain rejection.
  const OpDesc bad{OpId{0, 0}, Method::kDequeue, kNoArg};
  const Event batch[2] = {Event::inv(bad), Event::res(bad, 5)};
  ASSERT_TRUE(s->try_publish(batch));
  svc.drain();
  ASSERT_EQ(s->status(), Session::Status::kRejected);
  EXPECT_EQ(s->first_bad_index(), 0u);

  const size_t fed = s->events_fed();
  const OpDesc more{OpId{0, 1}, Method::kEnqueue, 1};
  const Event batch2[2] = {Event::inv(more), Event::res(more, kOk)};
  EXPECT_TRUE(s->try_publish(batch2)) << "settled sessions accept+discard";
  svc.drain();
  EXPECT_EQ(s->events_fed(), fed) << "discarded events must not feed";
  EXPECT_EQ(s->status(), Session::Status::kRejected);
}

// ---- raw wire-protocol connection helper -----------------------------------

struct OwnedFrame {
  FrameHeader header;
  std::vector<uint8_t> body;
};

/// Blocking raw socket speaking frames (or arbitrary bytes) — the
/// misbehaving client IngestClient refuses to be.
class RawConn {
 public:
  ~RawConn() { close(); }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool connect_uds(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
           0;
  }

  bool send_bytes(std::span<const uint8_t> bytes) {
    size_t at = 0;
    while (at < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + at, bytes.size() - at, MSG_NOSIGNAL);
      if (n <= 0) return false;
      at += static_cast<size_t>(n);
    }
    return true;
  }
  bool send_str(std::string_view s) {
    return send_bytes({reinterpret_cast<const uint8_t*>(s.data()), s.size()});
  }

  /// Next frame, blocking.  False on EOF/garbage.
  bool read_frame(OwnedFrame& out) {
    for (;;) {
      FrameView f;
      const DecodeStatus st = peek_frame({buf_.data(), buf_.size()}, f);
      if (st == DecodeStatus::kFrame) {
        out.header = f.header;
        out.body.assign(f.body.begin(), f.body.end());
        buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(
                                                    f.frame_len));
        return true;
      }
      if (st == DecodeStatus::kBad) return false;
      uint8_t tmp[4096];
      const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
      if (n <= 0) return false;
      buf_.insert(buf_.end(), tmp, tmp + n);
    }
  }

  /// Reads to EOF (for the HTTP endpoints, which close after the response).
  std::string read_all() {
    std::string out(reinterpret_cast<const char*>(buf_.data()), buf_.size());
    buf_.clear();
    char tmp[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
      if (n <= 0) return out;
      out.append(tmp, static_cast<size_t>(n));
    }
  }

  /// kHello handshake; returns the assigned session id (asserts on error).
  uint32_t hello(uint8_t kind = 0, std::string_view name = "raw") {
    std::vector<uint8_t> w;
    append_hello(w, kind, name);
    EXPECT_TRUE(send_bytes(w));
    OwnedFrame f;
    EXPECT_TRUE(read_frame(f));
    EXPECT_EQ(f.header.type, FrameType::kHelloAck)
        << frame_type_name(f.header.type);
    HelloAckBody ack;
    EXPECT_TRUE(parse_hello_ack(f.body, ack));
    return ack.session;
  }

  bool send_events_frame(uint32_t sid, uint32_t seq,
                         std::span<const Event> events) {
    std::vector<uint8_t> w;
    append_events(w, sid, seq, events);
    return send_bytes(w);
  }

 private:
  int fd_ = -1;
  std::vector<uint8_t> buf_;
};

// ---- in-process server fixture ---------------------------------------------

/// IngestServer on its own reactor thread, stopped and joined on scope exit.
class ServerFixture {
 public:
  explicit ServerFixture(IngestOptions opts) : server_(std::move(opts)) {
    std::string err;
    ok_ = server_.start(&err);
    EXPECT_TRUE(ok_) << err;
    if (ok_) reactor_ = std::thread([this] { server_.run(); });
  }
  ~ServerFixture() {
    server_.stop();
    if (reactor_.joinable()) reactor_.join();
  }
  IngestServer& operator*() { return server_; }
  IngestServer* operator->() { return &server_; }
  bool ok() const { return ok_; }

 private:
  IngestServer server_;
  std::thread reactor_;
  bool ok_ = false;
};

// ---- end-to-end over UDS ---------------------------------------------------

TEST(IngestServerE2E, CorrectStreamVerdictOkOverUds) {
  IngestOptions opts;
  opts.uds_path = test_uds_path("ok");
  ServerFixture srv(opts);
  ASSERT_TRUE(srv.ok());

  const auto stream = queue_stream(500);
  IngestClient cli;
  std::string err;
  ASSERT_TRUE(cli.connect_uds(opts.uds_path, &err)) << err;
  HelloAckBody ack;
  ASSERT_TRUE(cli.hello(static_cast<uint8_t>(ObjectKind::kQueue), "s-ok",
                        &ack, &err))
      << err;
  EXPECT_EQ(ack.inbox_capacity, opts.inbox_capacity);

  // Feed in frames of 100 events; a mid-stream verdict must drain first.
  for (size_t at = 0; at < stream.size(); at += 100) {
    const size_t n = std::min<size_t>(100, stream.size() - at);
    ASSERT_TRUE(cli.send_events({stream.data() + at, n}, &err)) << err;
    if (at == 200) {
      VerdictBody v;
      ASSERT_TRUE(cli.verdict(&v, &err)) << err;
      EXPECT_EQ(v.status, WireStatus::kOk);
      EXPECT_EQ(v.events_fed, at + n) << "verdict must wait for the backlog";
    }
  }
  std::string stats;
  ASSERT_TRUE(cli.stats(&stats, &err)) << err;
  EXPECT_NE(stats.find("\"events_fed\""), std::string::npos) << stats;

  VerdictBody fin;
  ASSERT_TRUE(cli.bye(&fin, &err)) << err;
  EXPECT_EQ(fin.status, WireStatus::kOk);
  EXPECT_EQ(fin.events_fed, stream.size());

  const auto t = srv->totals();
  EXPECT_EQ(t.sessions_opened, 1u);
  EXPECT_EQ(t.sessions_closed, 1u);
  EXPECT_EQ(t.events, stream.size());
}

TEST(IngestServerE2E, RejectingStreamFirstBad) {
  IngestOptions opts;
  opts.uds_path = test_uds_path("bad");
  ServerFixture srv(opts);
  ASSERT_TRUE(srv.ok());

  auto stream = queue_stream(20);
  // Corrupt the tail: one more Dequeue claiming a value never enqueued.
  {
    const OpDesc d{OpId{1, 0}, Method::kDequeue, kNoArg};
    stream.push_back(Event::inv(d));
    stream.push_back(Event::res(d, 424242));
  }

  IngestClient cli;
  std::string err;
  ASSERT_TRUE(cli.connect_uds(opts.uds_path, &err)) << err;
  ASSERT_TRUE(cli.hello(static_cast<uint8_t>(ObjectKind::kQueue), "s-bad",
                        nullptr, &err))
      << err;
  ASSERT_TRUE(cli.send_events(stream, &err)) << err;
  VerdictBody fin;
  ASSERT_TRUE(cli.bye(&fin, &err)) << err;
  EXPECT_EQ(fin.status, WireStatus::kRejected);
  EXPECT_LT(fin.first_bad, stream.size())
      << "first_bad brackets the offending batch";
}

// Deterministic backpressure: with inbox_capacity = 4, an 8-event frame can
// NEVER be accepted — the server must answer kThrottle (not drop, not
// stall).  The client then rewinds and delivers the same events in
// capacity-sized frames, retrying throttles, and the verdict proves nothing
// was lost or reordered.
TEST(IngestServerE2E, ThrottleBackpressureLossless) {
  IngestOptions opts;
  opts.uds_path = test_uds_path("thr");
  opts.inbox_capacity = 4;
  ServerFixture srv(opts);
  ASSERT_TRUE(srv.ok());

  const auto stream = queue_stream(4);  // 8 events
  RawConn c;
  ASSERT_TRUE(c.connect_uds(opts.uds_path));
  const uint32_t sid = c.hello(static_cast<uint8_t>(ObjectKind::kQueue));

  // Oversized frame: guaranteed throttle, expected_seq still 0.
  ASSERT_TRUE(c.send_events_frame(sid, 0, stream));
  OwnedFrame f;
  ASSERT_TRUE(c.read_frame(f));
  ASSERT_EQ(f.header.type, FrameType::kThrottle)
      << frame_type_name(f.header.type);
  ThrottleBody tb;
  ASSERT_TRUE(parse_throttle(f.body, tb));
  EXPECT_EQ(tb.expected_seq, 0u);

  // Go-back-N recovery: resend in 4-event frames, retrying throttles.
  size_t throttles = 0;
  uint32_t seq = 0;
  for (size_t at = 0; at < stream.size(); at += 4) {
    for (;;) {
      ASSERT_TRUE(c.send_events_frame(sid, seq, {stream.data() + at, 4}));
      ASSERT_TRUE(c.read_frame(f));
      if (f.header.type == FrameType::kAck) {
        EXPECT_EQ(f.header.seq, seq);
        ++seq;
        break;
      }
      ASSERT_EQ(f.header.type, FrameType::kThrottle)
          << frame_type_name(f.header.type);
      ++throttles;
    }
  }

  std::vector<uint8_t> w;
  append_frame(w, FrameHeader{.type = FrameType::kBye, .session = sid});
  ASSERT_TRUE(c.send_bytes(w));
  ASSERT_TRUE(c.read_frame(f));
  ASSERT_EQ(f.header.type, FrameType::kVerdict);
  EXPECT_NE(f.header.flags & kFlagFinal, 0);
  VerdictBody v;
  ASSERT_TRUE(parse_verdict(f.body, v));
  EXPECT_EQ(v.status, WireStatus::kOk) << "throttled events were lost/reordered";
  EXPECT_EQ(v.events_fed, stream.size());

  EXPECT_GE(srv->totals().throttles, 1u + throttles);
}

// Go-back-N duplicate and gap handling: a re-sent accepted seq is re-acked
// without re-feeding; a seq from the future is throttled back to the
// expected one.
TEST(IngestServerE2E, DuplicateReAckedGapThrottled) {
  IngestOptions opts;
  opts.uds_path = test_uds_path("dup");
  ServerFixture srv(opts);
  ASSERT_TRUE(srv.ok());

  const auto stream = queue_stream(8);  // 16 events
  RawConn c;
  ASSERT_TRUE(c.connect_uds(opts.uds_path));
  const uint32_t sid = c.hello(static_cast<uint8_t>(ObjectKind::kQueue));

  OwnedFrame f;
  ASSERT_TRUE(c.send_events_frame(sid, 0, {stream.data(), 8}));
  ASSERT_TRUE(c.read_frame(f));
  ASSERT_EQ(f.header.type, FrameType::kAck);

  // Duplicate of the accepted frame: idempotent re-ack.
  ASSERT_TRUE(c.send_events_frame(sid, 0, {stream.data(), 8}));
  ASSERT_TRUE(c.read_frame(f));
  EXPECT_EQ(f.header.type, FrameType::kAck);
  EXPECT_EQ(f.header.seq, 0u);

  // Seq gap (3 when 1 is expected): throttle naming the expected seq.
  ASSERT_TRUE(c.send_events_frame(sid, 3, {stream.data() + 8, 8}));
  ASSERT_TRUE(c.read_frame(f));
  ASSERT_EQ(f.header.type, FrameType::kThrottle);
  ThrottleBody tb;
  ASSERT_TRUE(parse_throttle(f.body, tb));
  EXPECT_EQ(tb.expected_seq, 1u);

  // Correct continuation; the verdict proves the duplicate was not re-fed.
  ASSERT_TRUE(c.send_events_frame(sid, 1, {stream.data() + 8, 8}));
  ASSERT_TRUE(c.read_frame(f));
  ASSERT_EQ(f.header.type, FrameType::kAck);

  std::vector<uint8_t> w;
  append_frame(w, FrameHeader{.type = FrameType::kBye, .session = sid});
  ASSERT_TRUE(c.send_bytes(w));
  ASSERT_TRUE(c.read_frame(f));
  VerdictBody v;
  ASSERT_TRUE(parse_verdict(f.body, v));
  EXPECT_EQ(v.status, WireStatus::kOk);
  EXPECT_EQ(v.events_fed, stream.size()) << "duplicate frame was double-fed";
}

TEST(IngestServerE2E, ProtocolErrorsCloseWithKError) {
  IngestOptions opts;
  opts.uds_path = test_uds_path("err");
  opts.max_sessions = 1;
  ServerFixture srv(opts);
  ASSERT_TRUE(srv.ok());

  const auto stream = queue_stream(2);

  {  // Events before hello.
    RawConn c;
    ASSERT_TRUE(c.connect_uds(opts.uds_path));
    ASSERT_TRUE(c.send_events_frame(0, 0, stream));
    OwnedFrame f;
    ASSERT_TRUE(c.read_frame(f));
    EXPECT_EQ(f.header.type, FrameType::kError);
    EXPECT_FALSE(c.read_frame(f)) << "connection must close after kError";
  }
  {  // Unknown object kind.
    RawConn c;
    ASSERT_TRUE(c.connect_uds(opts.uds_path));
    std::vector<uint8_t> w;
    append_hello(w, 250, "nope");
    ASSERT_TRUE(c.send_bytes(w));
    OwnedFrame f;
    ASSERT_TRUE(c.read_frame(f));
    EXPECT_EQ(f.header.type, FrameType::kError);
  }
  {  // Session cap: first hello fits, second is refused.
    RawConn a, b;
    ASSERT_TRUE(a.connect_uds(opts.uds_path));
    a.hello(static_cast<uint8_t>(ObjectKind::kQueue), "only");
    ASSERT_TRUE(b.connect_uds(opts.uds_path));
    std::vector<uint8_t> w;
    append_hello(w, static_cast<uint8_t>(ObjectKind::kQueue), "too-many");
    ASSERT_TRUE(b.send_bytes(w));
    OwnedFrame f;
    ASSERT_TRUE(b.read_frame(f));
    EXPECT_EQ(f.header.type, FrameType::kError);
  }
  {  // Wire garbage (bad magic): kError, then the connection dies.  (The
     // "GET " prefix is the one garbage spelling that is NOT an error — it
     // switches the connection to HTTP; HttpEndpointsOverUds covers it.)
    RawConn c;
    ASSERT_TRUE(c.connect_uds(opts.uds_path));
    ASSERT_TRUE(c.send_str("XXXXXXXXXXXXXXXXXXXXXXXX"));
    OwnedFrame f;
    ASSERT_TRUE(c.read_frame(f));
    EXPECT_EQ(f.header.type, FrameType::kError);
    EXPECT_FALSE(c.read_frame(f));
  }
  EXPECT_GE(srv->totals().protocol_errors, 4u);
}

TEST(IngestServerE2E, HttpEndpointsOverUds) {
  IngestOptions opts;
  opts.uds_path = test_uds_path("http");
  ServerFixture srv(opts);
  ASSERT_TRUE(srv.ok());

  // Open one session so /stats has a row to show.
  IngestClient cli;
  std::string err;
  ASSERT_TRUE(cli.connect_uds(opts.uds_path, &err)) << err;
  ASSERT_TRUE(cli.hello(static_cast<uint8_t>(ObjectKind::kQueue), "watched",
                        nullptr, &err))
      << err;
  const auto stream = queue_stream(10);
  ASSERT_TRUE(cli.send_events(stream, &err)) << err;

  const auto get = [&](const std::string& path) {
    RawConn c;
    EXPECT_TRUE(c.connect_uds(opts.uds_path));
    EXPECT_TRUE(c.send_str("GET " + path + " HTTP/1.0\r\n\r\n"));
    return c.read_all();
  };

  const std::string stats = get("/stats");
  EXPECT_NE(stats.find("200 OK"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"server\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"watched\""), std::string::npos) << stats;

  const std::string prom = get("/metrics");
  EXPECT_NE(prom.find("200 OK"), std::string::npos);
  EXPECT_NE(prom.find("ingest_events_total"), std::string::npos) << prom;

  const std::string json = get("/metrics.json");
  EXPECT_NE(json.find("200 OK"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos) << json;

  const std::string missing = get("/nope");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;
  EXPECT_GE(srv->totals().http_requests, 4u);
}

TEST(IngestServerE2E, IdleSessionsEvicted) {
  IngestOptions opts;
  opts.uds_path = test_uds_path("idle");
  opts.idle_timeout_ms = 50;
  ServerFixture srv(opts);
  ASSERT_TRUE(srv.ok());

  RawConn c;
  ASSERT_TRUE(c.connect_uds(opts.uds_path));
  c.hello(static_cast<uint8_t>(ObjectKind::kQueue), "sleeper");

  // The reactor sweeps idle connections on its poll cadence; allow a few
  // seconds of slack before declaring the timeout dead.
  bool evicted = false;
  for (int i = 0; i < 200 && !evicted; ++i) {
    evicted = srv->totals().sessions_evicted >= 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_TRUE(evicted) << "idle session never evicted";
  OwnedFrame f;
  EXPECT_FALSE(c.read_frame(f)) << "evicted connection must be closed";
}

TEST(IngestServerE2E, TcpEphemeralPort) {
  IngestOptions opts;
  opts.tcp_port = 0;  // ephemeral
  ServerFixture srv(opts);
  ASSERT_TRUE(srv.ok());
  ASSERT_GT(srv->tcp_port(), 0);

  const auto stream = queue_stream(50);
  IngestClient cli;
  std::string err;
  ASSERT_TRUE(cli.connect_tcp("127.0.0.1", srv->tcp_port(), &err)) << err;
  ASSERT_TRUE(cli.hello(static_cast<uint8_t>(ObjectKind::kQueue), "tcp",
                        nullptr, &err))
      << err;
  ASSERT_TRUE(cli.send_events(stream, &err)) << err;
  VerdictBody fin;
  ASSERT_TRUE(cli.bye(&fin, &err)) << err;
  EXPECT_EQ(fin.status, WireStatus::kOk);
  EXPECT_EQ(fin.events_fed, stream.size());
}

}  // namespace
}  // namespace selin::net
