// Live event-ingest front end: TCP + Unix-domain-socket server mapping
// connections to MonitorService sessions.
//
// Architecture — two threads:
//
//   * The *reactor* (the thread calling run()) owns every socket: a poll()
//     accept/read/write loop over the listeners and all connections.  It
//     never blocks on a session: frames decode straight off the connection
//     buffer (net/wire.hpp, no heap per frame) and events publish into the
//     session's bounded MPSC inbox via Session::try_publish.  A full inbox
//     answers with a kThrottle frame — explicit, lossless backpressure —
//     instead of dropping events, buffering without bound, or stalling the
//     reactor behind the checker.
//
//   * The *drain* thread is the MonitorService controller: it loops
//     drain_round() under the service mutex, absorbing inboxes and feeding
//     the sessions' membership batches one after another.  Reactor-side
//     queries (verdict/stats frames, the HTTP endpoints, open/close) take
//     the same mutex, so they interleave with rounds, never with a running
//     batch; the batch_limit quantum bounds how long a round can hold it.
//
//   So producers (the reactor, plus any in-process threads) run genuinely
//   concurrent with checking — the MPSC path the service layer grew for
//   exactly this daemon (TSan-covered by tests/ingest_test.cpp and the CI
//   soak smoke).
//
// Session lifecycle: a connection's kHello opens a session (object kind +
// name), kBye drains it, answers a final kVerdict and evicts it; an idle or
// disconnected connection evicts its session too (idle_timeout_ms), so a
// long-lived daemon's memory tracks *live* streams, not history.
//
// Stats endpoint: the same listeners speak an HTTP-ish plaintext protocol —
// a connection whose first bytes are "GET " instead of the wire magic is
// answered as HTTP/1.0 and closed:
//
//   GET /metrics       obs::prometheus_text of the merged server + service
//                      + per-session instrument snapshot
//   GET /metrics.json  obs::snapshot_json of the same snapshot
//   GET /stats         compact JSON: server totals + one line per live
//                      session {name, status, events_fed, pending}
//
// so `curl --unix-socket` / any scraper can watch a running daemon without
// speaking the binary protocol.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "selin/net/wire.hpp"
#include "selin/obs/metrics.hpp"
#include "selin/service/monitor_service.hpp"

namespace selin::net {

struct IngestOptions {
  /// Unix-domain socket path; empty = no UDS listener.  The server unlinks
  /// a stale file at this path before binding (it owns the path) and
  /// unlinks it again on shutdown.
  std::string uds_path;
  /// TCP port; < 0 = no TCP listener, 0 = ephemeral (read tcp_port()).
  int tcp_port = -1;
  /// TCP bind address.
  std::string tcp_host = "127.0.0.1";

  /// Drain fairness quantum (ServiceOptions::batch_limit).
  size_t batch_limit = 512;
  /// Per-session MPSC inbox bound (SessionOptions::inbox_capacity) — the
  /// backpressure point advertised in kHelloAck.
  size_t inbox_capacity = 1 << 14;
  /// Per-session exploration budget.
  size_t max_configs = 1 << 18;
  /// Open-session cap; a kHello past it is refused with kError.  0 = none.
  size_t max_sessions = 0;
  /// Evict sessions whose connection has been silent this long; 0 = never.
  uint64_t idle_timeout_ms = 0;
  /// Attach the obs metrics plane to the service (per-session registries).
  /// The server's own totals are always instrumented.
  bool observe = true;
};

class IngestServer {
 public:
  explicit IngestServer(IngestOptions opts);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Binds + listens and spawns the drain thread.  False (with *err set)
  /// on any socket failure; the object is then inert.
  bool start(std::string* err);

  /// The reactor loop: serves until stop().  Call from one thread, after
  /// start() returned true.
  void run();

  /// Stops the reactor and drain thread.  Safe from any thread and — via
  /// wake_fd() — from signal handlers.  Idempotent.
  void stop();

  /// Write end of the self-pipe: `write(wake_fd(), "q", 1)` requests stop
  /// and is async-signal-safe (what selin_ingestd's SIGTERM handler does).
  int wake_fd() const { return wake_w_; }

  /// Resolved TCP port (after start(); meaningful with opts.tcp_port >= 0).
  int tcp_port() const { return tcp_port_; }
  const std::string& uds_path() const { return opts_.uds_path; }

  struct Totals {
    uint64_t connections = 0;
    uint64_t sessions_opened = 0;
    uint64_t sessions_closed = 0;   ///< clean kBye closes
    uint64_t sessions_evicted = 0;  ///< idle timeouts + disconnects
    uint64_t frames = 0;
    uint64_t events = 0;
    uint64_t throttles = 0;
    uint64_t protocol_errors = 0;
    uint64_t http_requests = 0;
  };
  Totals totals() const;

  /// The /stats document (also what the daemon prints at shutdown).
  /// Any thread.
  std::string stats_json();
  /// The /metrics document (Prometheus exposition text).  Any thread.
  std::string metrics_text();
  /// The /metrics.json document.  Any thread.
  std::string metrics_json();

 private:
  struct Conn;

  void drain_loop();
  bool setup_uds(std::string* err);
  bool setup_tcp(std::string* err);
  void accept_all(int listen_fd);
  void handle_readable(Conn& c);
  void parse_frames(Conn& c);
  void handle_frame(Conn& c, const FrameView& f);
  void handle_hello(Conn& c, const FrameView& f);
  void handle_events(Conn& c, const FrameView& f);
  void handle_http(Conn& c);
  void protocol_error(Conn& c, const std::string& why);
  void flush_writes(Conn& c);
  void check_waiters();
  void evict_idle(uint64_t now_ms);
  void close_conn(int fd, bool evict_session);
  obs::MetricsSnapshot merged_snapshot();

  IngestOptions opts_;
  std::unique_ptr<service::MonitorService> svc_;
  // Excludes reactor-side service calls (open/close/queries/snapshots)
  // against the drain thread's rounds.
  std::mutex svc_mu_;
  std::condition_variable drain_cv_;
  std::thread drain_thread_;
  std::atomic<bool> drain_running_{false};
  std::atomic<bool> stop_requested_{false};

  int uds_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
  int wake_r_ = -1;
  int wake_w_ = -1;
  bool started_ = false;

  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  size_t waiters_ = 0;        // conns with a verdict/bye outstanding
  size_t open_sessions_ = 0;  // reactor-maintained (opened - closed/evicted)

  // Counters are atomics so totals()/stats_json() stay readable from other
  // threads (tests, the daemon's exit summary) without handshakes; the
  // reactor is the only writer.
  std::atomic<uint64_t> connections_{0}, sessions_opened_{0},
      sessions_closed_{0}, sessions_evicted_{0}, frames_{0}, events_{0},
      throttles_{0}, protocol_errors_{0}, http_requests_{0};
};

}  // namespace selin::net
