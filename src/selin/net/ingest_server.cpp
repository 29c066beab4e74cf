#include "selin/net/ingest_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "selin/obs/export.hpp"
#include "selin/sim/workload.hpp"

namespace selin::net {

namespace {

uint64_t now_ms() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

const char* status_name(service::Session::Status s) {
  switch (s) {
    case service::Session::Status::kOk: return "ok";
    case service::Session::Status::kRejected: return "rejected";
    case service::Session::Status::kOverflowed: return "overflowed";
  }
  return "?";
}

WireStatus wire_status(service::Session::Status s) {
  switch (s) {
    case service::Session::Status::kOk: return WireStatus::kOk;
    case service::Session::Status::kRejected: return WireStatus::kRejected;
    case service::Session::Status::kOverflowed:
      return WireStatus::kOverflowed;
  }
  return WireStatus::kOk;
}

// An HTTP read buffer larger than this is a client error, not a request.
constexpr size_t kMaxHttpRequest = 8192;
// recv() chunk; also the compaction hysteresis of the read buffer.
constexpr size_t kReadChunk = 64 * 1024;

}  // namespace

struct IngestServer::Conn {
  int fd = -1;
  bool via_uds = false;
  uint64_t last_active_ms = 0;

  // Read side: frames (or an HTTP request) accumulate here; head_ marks
  // consumed bytes, compacted after each parse pass.
  std::vector<uint8_t> rd;
  size_t rd_head = 0;

  // Write side: every reply appends here; flushed opportunistically and via
  // POLLOUT.
  std::vector<uint8_t> wr;
  size_t wr_head = 0;

  bool http = false;         // first bytes said "GET " — plaintext mode
  bool awaiting_hello = true;
  bool close_after_flush = false;
  bool evict_on_close = false;  // session still open when the conn dies

  // Session binding (after kHello).
  bool has_session = false;
  uint32_t sid = 0;
  service::Session* sess = nullptr;

  // Go-back-N receive state: the next kEvents seq this connection will
  // ingest.  Anything below is a duplicate (re-acked); anything above is a
  // gap (throttled with the expected seq).
  uint32_t expected_seq = 0;

  // Deferred replies: answered by check_waiters() once backlog() == 0, as
  // soon as the drain thread's wake byte says so (see awaited_).
  bool verdict_requested = false;
  bool bye_requested = false;
  bool counted_waiter = false;

  std::vector<Event> scratch;  // decode_events target, reused per frame
};

IngestServer::IngestServer(IngestOptions opts) : opts_(std::move(opts)) {
  service::ServiceOptions sopts;
  sopts.batch_limit = opts_.batch_limit;
  sopts.observe = opts_.observe;
  svc_ = std::make_unique<service::MonitorService>(sopts);
}

IngestServer::~IngestServer() {
  stop();
  if (drain_thread_.joinable()) drain_thread_.join();
  for (auto& [fd, c] : conns_) ::close(fd);
  conns_.clear();
  if (uds_fd_ >= 0) ::close(uds_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  if (wake_r_ >= 0) ::close(wake_r_);
  if (wake_w_ >= 0) ::close(wake_w_);
  if (started_ && !opts_.uds_path.empty()) ::unlink(opts_.uds_path.c_str());
}

bool IngestServer::setup_uds(std::string* err) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.uds_path.size() >= sizeof(addr.sun_path)) {
    if (err != nullptr) *err = "uds path too long";
    return false;
  }
  std::memcpy(addr.sun_path, opts_.uds_path.c_str(),
              opts_.uds_path.size() + 1);
  uds_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (uds_fd_ < 0) {
    if (err != nullptr) *err = errno_string("socket(AF_UNIX)");
    return false;
  }
  ::unlink(opts_.uds_path.c_str());  // the daemon owns its socket path
  if (::bind(uds_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (err != nullptr) *err = errno_string("bind(uds)");
    return false;
  }
  if (::listen(uds_fd_, 1024) != 0) {
    if (err != nullptr) *err = errno_string("listen(uds)");
    return false;
  }
  return set_nonblocking(uds_fd_);
}

bool IngestServer::setup_tcp(std::string* err) {
  tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (tcp_fd_ < 0) {
    if (err != nullptr) *err = errno_string("socket(AF_INET)");
    return false;
  }
  const int one = 1;
  ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(opts_.tcp_port));
  if (::inet_pton(AF_INET, opts_.tcp_host.c_str(), &addr.sin_addr) != 1) {
    if (err != nullptr) *err = "bad tcp host: " + opts_.tcp_host;
    return false;
  }
  if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (err != nullptr) *err = errno_string("bind(tcp)");
    return false;
  }
  if (::listen(tcp_fd_, 1024) != 0) {
    if (err != nullptr) *err = errno_string("listen(tcp)");
    return false;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) ==
      0) {
    tcp_port_ = ntohs(bound.sin_port);
  }
  return set_nonblocking(tcp_fd_);
}

bool IngestServer::start(std::string* err) {
  if (started_) return true;
  if (opts_.uds_path.empty() && opts_.tcp_port < 0) {
    if (err != nullptr) *err = "no listener configured (uds or tcp)";
    return false;
  }
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    if (err != nullptr) *err = errno_string("pipe");
    return false;
  }
  wake_r_ = pipefd[0];
  wake_w_ = pipefd[1];
  set_nonblocking(wake_r_);
  set_nonblocking(wake_w_);
  if (!opts_.uds_path.empty() && !setup_uds(err)) return false;
  if (opts_.tcp_port >= 0 && !setup_tcp(err)) return false;
  started_ = true;
  drain_running_.store(true, std::memory_order_release);
  drain_thread_ = std::thread([this] { drain_loop(); });
  return true;
}

void IngestServer::stop() {
  stop_requested_.store(true, std::memory_order_release);
  drain_running_.store(false, std::memory_order_release);
  drain_cv_.notify_all();
  if (wake_w_ >= 0) {
    const char q = 'q';
    [[maybe_unused]] ssize_t n = ::write(wake_w_, &q, 1);
  }
}

void IngestServer::drain_loop() {
  std::unique_lock<std::mutex> lk(svc_mu_);
  while (drain_running_.load(std::memory_order_acquire)) {
    const size_t serviced = svc_->drain_round();
    wake_caught_up();
    if (serviced == 0) {
      // Nothing pending: sleep until a publish (or stop) pokes the cv.  The
      // timeout covers publishes that race past a missed notify.
      drain_cv_.wait_for(lk, std::chrono::milliseconds(1));
    } else {
      // Busy: briefly release the mutex so reactor-side queries (verdicts,
      // stats, opens) interleave with rounds instead of starving.
      lk.unlock();
      std::this_thread::yield();
      lk.lock();
    }
  }
}

void IngestServer::wake_caught_up() {
  // Any byte but 'q' makes the reactor answer its waiters; one byte serves
  // every session that caught up in this round.
  if (std::erase_if(awaited_, [](const service::Session* s) {
        return s->backlog() == 0;
      }) > 0) {
    const char w = 'w';
    [[maybe_unused]] ssize_t n = ::write(wake_w_, &w, 1);
  }
}

void IngestServer::run() {
  std::vector<pollfd> pfds;
  std::vector<int> pfd_conn;  // fd of conns_ entry per pollfd (or -1)
  std::vector<int> doomed;
  uint64_t last_idle_scan = now_ms();
  while (!stop_requested_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfd_conn.clear();
    pfds.push_back({wake_r_, POLLIN, 0});
    pfd_conn.push_back(-1);
    if (uds_fd_ >= 0) {
      pfds.push_back({uds_fd_, POLLIN, 0});
      pfd_conn.push_back(-1);
    }
    if (tcp_fd_ >= 0) {
      pfds.push_back({tcp_fd_, POLLIN, 0});
      pfd_conn.push_back(-1);
    }
    for (auto& [fd, cp] : conns_) {
      short ev = 0;
      if (!cp->close_after_flush) ev |= POLLIN;
      if (cp->wr_head < cp->wr.size()) ev |= POLLOUT;
      pfds.push_back({fd, ev, 0});
      pfd_conn.push_back(fd);
    }
    // The drain thread's wake byte answers waiters as soon as their session
    // catches up; the short tick is a fallback for a session published to
    // after check_waiters() last listed it.  Relaxed otherwise (idle
    // eviction only needs coarse ticks).
    const int timeout_ms = waiters_ > 0 ? 2 : 100;
    const int nready = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (nready < 0 && errno != EINTR) break;

    size_t i = 0;
    if (pfds[i].revents & POLLIN) {
      // Any 'q' byte is a stop request — stop() writes one, and so does the
      // daemon's signal handler (a pipe write is async-signal-safe where
      // calling stop() would not be guaranteed to be).  Any other byte is
      // the drain thread's: a waited session caught up, and check_waiters()
      // below answers it.
      char buf[64];
      ssize_t n;
      bool quit = false;
      while ((n = ::read(wake_r_, buf, sizeof buf)) > 0) {
        for (ssize_t k = 0; k < n; ++k) quit = quit || buf[k] == 'q';
      }
      if (quit || stop_requested_.load(std::memory_order_acquire)) break;
    }
    ++i;
    if (uds_fd_ >= 0) {
      if (pfds[i].revents & POLLIN) accept_all(uds_fd_);
      ++i;
    }
    if (tcp_fd_ >= 0) {
      if (pfds[i].revents & POLLIN) accept_all(tcp_fd_);
      ++i;
    }
    doomed.clear();
    for (; i < pfds.size(); ++i) {
      auto it = conns_.find(pfd_conn[i]);
      if (it == conns_.end()) continue;
      Conn& c = *it->second;
      if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Peer vanished: half-closed writes can still flush, but a hard
        // error ends the connection (and evicts its session).
        if ((pfds[i].revents & (POLLERR | POLLNVAL)) != 0 ||
            c.wr_head >= c.wr.size()) {
          doomed.push_back(c.fd);
          continue;
        }
      }
      if (pfds[i].revents & POLLIN) handle_readable(c);
      if (c.fd >= 0 && (pfds[i].revents & POLLOUT)) flush_writes(c);
      if (c.fd < 0) doomed.push_back(it->first);
    }
    for (int fd : doomed) close_conn(fd, /*evict_session=*/true);
    if (waiters_ > 0) check_waiters();
    // Reap conns that finished flushing a close_after_flush reply.
    doomed.clear();
    for (auto& [fd, cp] : conns_) {
      if (cp->close_after_flush && cp->wr_head >= cp->wr.size()) {
        doomed.push_back(fd);
      }
    }
    for (int fd : doomed) close_conn(fd, /*evict_session=*/true);
    const uint64_t now = now_ms();
    if (opts_.idle_timeout_ms > 0 && now - last_idle_scan >= 50) {
      last_idle_scan = now;
      evict_idle(now);
    }
  }
  // Shutdown: drop every connection (evicting sessions) so the service ends
  // quiet and the exit stats are final; stop() also parks the drain thread.
  std::vector<int> all;
  all.reserve(conns_.size());
  for (auto& [fd, cp] : conns_) all.push_back(fd);
  for (int fd : all) close_conn(fd, /*evict_session=*/true);
  stop();
}

void IngestServer::accept_all(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept errors (EMFILE, ECONNABORTED): keep serving
    }
    if (!set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    if (listen_fd == tcp_fd_) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    auto c = std::make_unique<Conn>();
    c->fd = fd;
    c->via_uds = listen_fd == uds_fd_;
    c->last_active_ms = now_ms();
    conns_.emplace(fd, std::move(c));
    connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

void IngestServer::handle_readable(Conn& c) {
  for (;;) {
    uint8_t tmp[kReadChunk];
    const ssize_t r = ::recv(c.fd, tmp, sizeof tmp, 0);
    if (r > 0) {
      c.rd.insert(c.rd.end(), tmp, tmp + r);
      c.last_active_ms = now_ms();
      if (static_cast<size_t>(r) < sizeof tmp) break;
      continue;
    }
    if (r == 0) {  // EOF: peer is gone; the reactor reaps via the doomed list
      c.fd = -1;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    c.fd = -1;
    return;
  }
  if (c.http || (c.awaiting_hello && c.rd.size() - c.rd_head >= 4 &&
                 std::memcmp(c.rd.data() + c.rd_head, "GET ", 4) == 0)) {
    c.http = true;
    handle_http(c);
    return;
  }
  parse_frames(c);
}

void IngestServer::parse_frames(Conn& c) {
  while (!c.close_after_flush) {
    std::span<const uint8_t> avail(c.rd.data() + c.rd_head,
                                   c.rd.size() - c.rd_head);
    if (avail.empty()) break;
    FrameView f;
    std::string why;
    const DecodeStatus st = peek_frame(avail, f, &why);
    if (st == DecodeStatus::kNeedMore) break;
    if (st == DecodeStatus::kBad) {
      protocol_error(c, why);
      break;
    }
    c.rd_head += f.frame_len;
    frames_.fetch_add(1, std::memory_order_relaxed);
    handle_frame(c, f);
  }
  // Compact: drop consumed bytes once they dominate the buffer.
  if (c.rd_head == c.rd.size()) {
    c.rd.clear();
    c.rd_head = 0;
  } else if (c.rd_head >= kReadChunk) {
    c.rd.erase(c.rd.begin(),
               c.rd.begin() + static_cast<ptrdiff_t>(c.rd_head));
    c.rd_head = 0;
  }
}

void IngestServer::handle_frame(Conn& c, const FrameView& f) {
  const FrameType t = f.header.type;
  if (c.awaiting_hello) {
    if (t != FrameType::kHello) {
      protocol_error(c, "expected hello");
      return;
    }
    handle_hello(c, f);
    return;
  }
  switch (t) {
    case FrameType::kEvents:
      handle_events(c, f);
      return;
    case FrameType::kStatsReq: {
      std::string stats;
      {
        std::lock_guard<std::mutex> lock(svc_mu_);
        if (c.sess != nullptr) {
          stats = obs::engine_stats_json(c.sess->stats());
        }
      }
      append_text_frame(c.wr, FrameType::kStats, c.sid, stats);
      flush_writes(c);
      return;
    }
    case FrameType::kVerdictReq:
      c.verdict_requested = true;
      if (!c.counted_waiter) {
        c.counted_waiter = true;
        ++waiters_;
      }
      return;
    case FrameType::kBye:
      c.bye_requested = true;
      if (!c.counted_waiter) {
        c.counted_waiter = true;
        ++waiters_;
      }
      return;
    case FrameType::kHello:
      protocol_error(c, "duplicate hello");
      return;
    default:
      // Server->client types arriving at the server.
      protocol_error(c, std::string("unexpected frame: ") +
                            frame_type_name(t));
      return;
  }
}

void IngestServer::handle_hello(Conn& c, const FrameView& f) {
  HelloBody hello;
  if (!parse_hello(f.body, hello)) {
    protocol_error(c, "malformed hello");
    return;
  }
  if (hello.object_kind > static_cast<uint8_t>(ObjectKind::kConsensus)) {
    protocol_error(c, "unknown object kind");
    return;
  }
  if (opts_.max_sessions > 0 && open_sessions_ >= opts_.max_sessions) {
    protocol_error(c, "session cap reached");
    return;
  }
  const auto kind = static_cast<ObjectKind>(hello.object_kind);
  std::string name(hello.name);
  if (name.empty()) name = "anon";
  service::SessionOptions sopts;
  sopts.max_configs = opts_.max_configs;
  sopts.inbox_capacity = opts_.inbox_capacity;
  service::SessionId sid;
  {
    std::lock_guard<std::mutex> lock(svc_mu_);
    sid = svc_->open(std::move(name), make_spec(kind), sopts);
  }
  c.awaiting_hello = false;
  c.has_session = true;
  c.evict_on_close = true;
  c.sid = static_cast<uint32_t>(sid);
  c.sess = svc_->find(sid);
  ++open_sessions_;
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  append_hello_ack(c.wr, c.sid, static_cast<uint32_t>(opts_.inbox_capacity),
                   static_cast<uint32_t>(opts_.batch_limit));
  flush_writes(c);
}

void IngestServer::handle_events(Conn& c, const FrameView& f) {
  if (f.header.session != c.sid) {
    protocol_error(c, "session mismatch");
    return;
  }
  const uint32_t seq = f.header.seq;
  if (seq < c.expected_seq) {
    // Go-back-N duplicate: already ingested; re-ack, never re-feed.
    append_frame(c.wr, FrameHeader{.type = FrameType::kAck,
                                   .session = c.sid,
                                   .seq = seq});
    flush_writes(c);
    return;
  }
  if (seq > c.expected_seq) {
    // Gap after an earlier rejection: refuse until the client rewinds.
    throttles_.fetch_add(1, std::memory_order_relaxed);
    append_throttle(c.wr, c.sid, seq, c.expected_seq, 200);
    flush_writes(c);
    return;
  }
  if (!decode_events(f.body, c.scratch)) {
    protocol_error(c, "malformed event record");
    return;
  }
  if (c.sess == nullptr || !c.sess->try_publish(c.scratch)) {
    // Inbox full: explicit lossless backpressure.  The client still holds
    // the frame; it retries after the hint and nothing was ingested.
    throttles_.fetch_add(1, std::memory_order_relaxed);
    append_throttle(c.wr, c.sid, seq, c.expected_seq, 200);
    flush_writes(c);
    return;
  }
  ++c.expected_seq;
  events_.fetch_add(c.scratch.size(), std::memory_order_relaxed);
  drain_cv_.notify_one();
  append_frame(c.wr, FrameHeader{.type = FrameType::kAck,
                                 .session = c.sid,
                                 .seq = seq});
  flush_writes(c);
}

void IngestServer::handle_http(Conn& c) {
  const std::string_view buf(reinterpret_cast<const char*>(c.rd.data()) +
                                 c.rd_head,
                             c.rd.size() - c.rd_head);
  // Oversized request: stop reading and drop it (the reactor reaps a
  // close_after_flush conn with nothing buffered; never close_conn from a
  // nested handler — the caller still holds the Conn reference).
  const auto drop = [&c] {
    c.rd.clear();
    c.rd_head = 0;
    c.close_after_flush = true;
  };
  const size_t line_end = buf.find('\n');
  if (line_end == std::string_view::npos) {
    if (buf.size() > kMaxHttpRequest) drop();
    return;
  }
  // With versioned HTTP, wait for the blank line ending the header block so
  // we never close mid-request (curl sends headers; netcat may not).
  if (buf.substr(0, line_end).find(" HTTP/") != std::string_view::npos &&
      buf.find("\r\n\r\n") == std::string_view::npos &&
      buf.find("\n\n") == std::string_view::npos) {
    if (buf.size() > kMaxHttpRequest) drop();
    return;
  }
  http_requests_.fetch_add(1, std::memory_order_relaxed);
  std::string_view line = buf.substr(0, line_end);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  // "GET <path> [HTTP/1.x]"
  std::string_view path;
  const size_t sp1 = line.find(' ');
  if (sp1 != std::string_view::npos) {
    const size_t sp2 = line.find(' ', sp1 + 1);
    path = line.substr(sp1 + 1, sp2 == std::string_view::npos
                                    ? std::string_view::npos
                                    : sp2 - sp1 - 1);
  }
  std::string body;
  const char* content_type = "text/plain; charset=utf-8";
  const char* status = "200 OK";
  if (path == "/metrics") {
    body = metrics_text();
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (path == "/metrics.json") {
    body = metrics_json();
    content_type = "application/json";
  } else if (path == "/stats") {
    body = stats_json();
    content_type = "application/json";
  } else {
    status = "404 Not Found";
    body = "unknown path; try /stats /metrics /metrics.json\n";
  }
  std::string resp = "HTTP/1.0 ";
  resp += status;
  resp += "\r\nContent-Type: ";
  resp += content_type;
  resp += "\r\nContent-Length: " + std::to_string(body.size());
  resp += "\r\nConnection: close\r\n\r\n";
  resp += body;
  c.wr.insert(c.wr.end(), resp.begin(), resp.end());
  c.rd.clear();
  c.rd_head = 0;
  c.close_after_flush = true;
  flush_writes(c);
}

void IngestServer::protocol_error(Conn& c, const std::string& why) {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  append_text_frame(c.wr, FrameType::kError, c.sid, why);
  c.close_after_flush = true;
  flush_writes(c);
}

void IngestServer::flush_writes(Conn& c) {
  while (c.wr_head < c.wr.size()) {
    const ssize_t n = ::send(c.fd, c.wr.data() + c.wr_head,
                             c.wr.size() - c.wr_head, MSG_NOSIGNAL);
    if (n > 0) {
      c.wr_head += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    // Hard error: nothing more can flush; empty the buffer so the
    // close_after_flush sweep reaps the connection.
    c.wr.clear();
    c.wr_head = 0;
    c.close_after_flush = true;
    return;
  }
  if (c.wr_head == c.wr.size()) {
    c.wr.clear();
    c.wr_head = 0;
  }
}

void IngestServer::check_waiters() {
  std::lock_guard<std::mutex> lock(svc_mu_);
  awaited_.clear();
  for (auto& [fd, cp] : conns_) {
    Conn& c = *cp;
    if (!c.counted_waiter || c.sess == nullptr) continue;
    // Holding svc_mu_ means no drain round is mid-flight, so backlog()==0
    // really is "every published event has been fed".
    if (c.sess->backlog() != 0) {
      awaited_.push_back(c.sess);  // the drain thread wakes us when it is 0
      continue;
    }
    const WireStatus st = wire_status(c.sess->status());
    const uint64_t fed = c.sess->events_fed();
    const uint64_t first_bad = c.sess->first_bad_index();
    const uint16_t flags = c.bye_requested ? kFlagFinal : 0;
    append_verdict(c.wr, c.sid, flags, st, fed, first_bad);
    c.verdict_requested = false;
    c.counted_waiter = false;
    --waiters_;
    if (c.bye_requested) {
      svc_->close(c.sid);
      c.sess = nullptr;
      c.has_session = false;
      c.evict_on_close = false;
      --open_sessions_;
      sessions_closed_.fetch_add(1, std::memory_order_relaxed);
      c.close_after_flush = true;
    }
    flush_writes(c);
  }
}

void IngestServer::evict_idle(uint64_t now) {
  std::vector<int> idle;
  for (auto& [fd, cp] : conns_) {
    if (now - cp->last_active_ms >= opts_.idle_timeout_ms) idle.push_back(fd);
  }
  for (int fd : idle) close_conn(fd, /*evict_session=*/true);
}

void IngestServer::close_conn(int fd, bool evict_session) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = *it->second;
  if (c.counted_waiter) {
    c.counted_waiter = false;
    --waiters_;
  }
  if (evict_session && c.evict_on_close && c.has_session) {
    std::lock_guard<std::mutex> lock(svc_mu_);
    std::erase(awaited_, c.sess);
    svc_->close(c.sid);
    --open_sessions_;
    sessions_evicted_.fetch_add(1, std::memory_order_relaxed);
  }
  if (c.fd >= 0) ::close(c.fd);
  else ::close(fd);
  conns_.erase(it);
}

IngestServer::Totals IngestServer::totals() const {
  Totals t;
  t.connections = connections_.load(std::memory_order_relaxed);
  t.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  t.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  t.sessions_evicted = sessions_evicted_.load(std::memory_order_relaxed);
  t.frames = frames_.load(std::memory_order_relaxed);
  t.events = events_.load(std::memory_order_relaxed);
  t.throttles = throttles_.load(std::memory_order_relaxed);
  t.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  t.http_requests = http_requests_.load(std::memory_order_relaxed);
  return t;
}

obs::MetricsSnapshot IngestServer::merged_snapshot() {
  // Server totals as plain snapshot values (they live in atomics, not
  // registry instruments), then the service plane — per-session engine
  // instruments and drain-round histograms — merged behind them.
  const Totals t = totals();
  obs::MetricsSnapshot out;
  const auto ctr = [&out](const char* name, uint64_t v) {
    out.values.push_back(obs::MetricValue{
        .name = name, .kind = obs::MetricKind::kCounter, .counter = v});
  };
  ctr("ingest_connections_total", t.connections);
  ctr("ingest_sessions_opened_total", t.sessions_opened);
  ctr("ingest_sessions_closed_total", t.sessions_closed);
  ctr("ingest_sessions_evicted_total", t.sessions_evicted);
  ctr("ingest_frames_total", t.frames);
  ctr("ingest_events_total", t.events);
  ctr("ingest_throttles_total", t.throttles);
  ctr("ingest_protocol_errors_total", t.protocol_errors);
  ctr("ingest_http_requests_total", t.http_requests);
  {
    std::lock_guard<std::mutex> lock(svc_mu_);
    out.values.push_back(obs::MetricValue{
        .name = "ingest_open_sessions",
        .kind = obs::MetricKind::kGauge,
        .gauge = static_cast<int64_t>(svc_->live_session_count())});
    obs::MetricsSnapshot ss = svc_->metrics_snapshot();
    for (auto& v : ss.values) out.values.push_back(std::move(v));
  }
  return out;
}

std::string IngestServer::metrics_text() {
  return obs::prometheus_text(merged_snapshot());
}

std::string IngestServer::metrics_json() {
  return obs::snapshot_json(merged_snapshot());
}

std::string IngestServer::stats_json() {
  const Totals t = totals();
  std::string out = "{\"server\":{";
  out += "\"connections\":" + std::to_string(t.connections);
  out += ",\"sessions_opened\":" + std::to_string(t.sessions_opened);
  out += ",\"sessions_closed\":" + std::to_string(t.sessions_closed);
  out += ",\"sessions_evicted\":" + std::to_string(t.sessions_evicted);
  out += ",\"frames\":" + std::to_string(t.frames);
  out += ",\"events\":" + std::to_string(t.events);
  out += ",\"throttles\":" + std::to_string(t.throttles);
  out += ",\"protocol_errors\":" + std::to_string(t.protocol_errors);
  out += ",\"http_requests\":" + std::to_string(t.http_requests);
  std::lock_guard<std::mutex> lock(svc_mu_);
  out += ",\"open_sessions\":" + std::to_string(svc_->live_session_count());
  out += "},\"sessions\":[";
  bool first = true;
  for (service::SessionId id = 0; id < svc_->session_count(); ++id) {
    service::Session* s = svc_->find(id);
    if (s == nullptr) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"id\":" + std::to_string(id);
    out += ",\"name\":\"" + json_escape(s->name()) + '"';
    out += ",\"status\":\"" + std::string(status_name(s->status())) + '"';
    out += ",\"events_fed\":" + std::to_string(s->events_fed());
    out += ",\"backlog\":" + std::to_string(s->backlog());
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace selin::net
