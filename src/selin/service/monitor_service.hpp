// Multi-tenant monitoring service: many independent (spec, history) streams
// fed in turn by one drain thread.
//
// The paper's pipeline is single-tenant — one history, one monitor.  A
// deployment watching thousands of concurrently monitored objects cannot
// afford a thread set per object; what it needs is the shape of Pod's
// generalized consensus layer (PAPERS.md): many client streams multiplexed
// over one fixed worker set.  MonitorService is that multiplexer for
// membership checking, and its worker set is the one thread that calls
// drain_round():
//
//   * each Session owns an independent LinMonitor (its own spec, dedup
//     arenas, frontier) plus a pending-event buffer — sessions share no
//     monitor state, and each check is a local computation on its own
//     session;
//   * feeds are buffered and the service drains them in round-robin
//     *batches*: each drain round takes at most `batch_limit` events from
//     every pending session and feeds them, one session after another, so
//     a firehose session cannot starve the others for longer than one
//     batch while the batched feed path amortizes per-event closure work
//     within each.
//
// Verdicts are deterministic per session: a session's events are fed in
// arrival order whatever the interleaving with other sessions' work
// (tests/service_test.cpp asserts this).  Verdict granularity is the batch:
// ok() may flip anywhere inside a drained batch, and first_bad_index()
// brackets the offense by the start of that batch (re-check the reported
// window per event for the exact offender).
//
// Threading contract: open/feed/drain/close are controller-thread calls
// (one caller, like every selin facade).  Per-session queries are safe
// between drains.  The one cross-thread entry point is the MPSC feed: any
// number of producer threads may publish event batches into a session's
// bounded *inbox* via Session::try_publish (looked up through
// MonitorService::find), and the controller's drain rounds absorb inboxes
// into the ordinary buffered path.  A full inbox rejects the batch —
// explicit backpressure the caller can surface (the ingest daemon answers
// with a THROTTLE frame) instead of unbounded buffering, silent drops, or
// blocking the producer.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "selin/engine/stats.hpp"
#include "selin/history/history.hpp"
#include "selin/lincheck/checker.hpp"
#include "selin/obs/hooks.hpp"
#include "selin/obs/metrics.hpp"
#include "selin/spec/spec.hpp"

namespace selin::service {

using SessionId = size_t;

struct ServiceOptions {
  /// Max events drained from one session per round — the fairness quantum:
  /// a firehose session cannot starve the others for longer than one batch.
  size_t batch_limit = 256;
  /// Build the observability plane: a per-session MetricsRegistry with the
  /// engine instrument set (labelled session=<name>) and the service's
  /// drain-round instruments.  Off by default: unobserved sessions pay one
  /// null check per feed round.
  bool observe = false;
  /// Receives kDrainRound / kSessionBatch / engine spans (borrowed; must
  /// outlive the service).  Only read when `observe` is set.
  obs::TraceSink* trace = nullptr;
};

struct SessionOptions {
  /// Exploration budget of the session's membership monitor.
  size_t max_configs = 1 << 18;
  /// Event capacity of the MPSC inbox (Session::try_publish).  The bound is
  /// the backpressure point of the live-ingest path: a publish that would
  /// exceed it is rejected whole.  A session fed only through its inbox
  /// buffers at most the service batch_limit + inbox_capacity events
  /// (Session::buffer_len()), however long its stream.
  size_t inbox_capacity = 1 << 14;
};

/// One monitored stream.  Owned by the service; query between drains.
class Session {
 public:
  enum class Status {
    kOk,          ///< every drained event consistent so far
    kRejected,    ///< membership violated (sticky)
    kOverflowed,  ///< exploration budget exceeded; verdict unknown (sticky)
  };

  const std::string& name() const { return name_; }
  Status status() const;
  bool ok() const { return status() == Status::kOk; }

  /// Events the monitor has accepted so far (excludes still-buffered ones;
  /// a settled session stops counting where processing stopped).
  size_t events_fed() const { return fed_; }
  /// Events buffered but not yet drained.
  size_t pending() const { return buffer_.size() - head_; }
  /// Index (in arrival order) of the first event of the batch in which the
  /// verdict flipped; events_fed() when still ok.  Batch granularity: the
  /// monitor settles verdicts per drained batch.
  size_t first_bad_index() const { return settled_ ? first_bad_ : fed_; }

  /// Execution counters of the session's engine (engine/stats.hpp).
  engine::EngineStats stats() const { return monitor_.stats(); }
  size_t frontier_size() const { return monitor_.frontier_size(); }

  /// The session's instrument registry; nullptr when the service is
  /// unobserved.
  const obs::MetricsRegistry* metrics() const { return reg_.get(); }

  /// Snapshot of the session's instruments with the engine counters sampled
  /// into engine_* gauges; empty when unobserved.
  obs::MetricsSnapshot metrics_snapshot();

  /// MPSC producer feed: atomically appends `events` to the session's
  /// bounded inbox.  Safe from any thread, concurrently with other
  /// producers and with the controller's drains.  Returns false when the
  /// batch would overflow inbox_capacity — the caller owns retry (nothing
  /// is partially published).  Events publish in call order per producer;
  /// cross-producer interleaving is the arrival order the monitor observes.
  /// A settled session accepts and discards (sticky verdicts ignore input).
  /// The pointer must not be used after MonitorService::close().
  bool try_publish(std::span<const Event> events);

  /// Events currently in the inbox (approximate under concurrent
  /// publishes; exact between drains).  Any thread.
  size_t inbox_len() const {
    return inbox_len_.load(std::memory_order_relaxed);
  }

  /// Undrained events: buffered + inbox.  Controller thread, between
  /// drains — the "has this session fully caught up" query the ingest
  /// daemon's verdict frames wait on.
  size_t backlog() const { return pending() + inbox_len(); }

  /// Events the buffer holds, its not yet dropped consumed prefix included:
  /// the session's memory, as opposed to pending().  Diagnostic; controller
  /// thread, between drains.
  size_t buffer_len() const { return buffer_.size(); }

 private:
  friend class MonitorService;

  Session(std::string name, std::unique_ptr<SeqSpec> spec,
          const SessionOptions& opts, uint64_t id, bool observe,
          obs::TraceSink* trace);

  /// Feed up to `limit` buffered events into the monitor (touches only
  /// this session).  CheckerOverflow is absorbed into the sticky
  /// overflowed status.
  void run_one_batch(size_t limit);

  /// Controller-side half of the MPSC feed: moves the inbox into the
  /// buffered path, behind the pending events, once the consumed prefix is
  /// dropped.  Skipped while >= max_buffered events are still pending, so
  /// the buffer never holds more than max_buffered + inbox_capacity events
  /// (the inbox then fills and try_publish starts rejecting — backpressure,
  /// not growth).
  void absorb_inbox(size_t max_buffered);

  /// Drops the consumed prefix [0, head_) of the buffer.
  void drop_consumed();

  std::string name_;
  std::unique_ptr<SeqSpec> spec_;
  LinMonitor monitor_;
  std::vector<Event> buffer_;  // pending events; [head_, size) undrained
  size_t head_ = 0;
  size_t fed_ = 0;
  size_t first_bad_ = 0;
  // Rejected or overflowed: drop further input.  Atomic so producer-thread
  // publishes can read it while the drain thread settles the verdict.
  std::atomic<bool> settled_{false};

  // MPSC inbox (see try_publish).  inbox_len_ mirrors inbox_.size() so
  // queries never take the mutex.
  std::mutex inbox_mu_;
  std::vector<Event> inbox_;
  size_t inbox_cap_;
  std::atomic<size_t> inbox_len_{0};

  // Observability plane (null/unused when the service is unobserved).  The
  // registry and bundle live with the session, so monitor_'s borrowed
  // attachment can never dangle.
  uint64_t id_ = 0;
  std::unique_ptr<obs::MetricsRegistry> reg_;
  obs::EngineHooks hooks_;
  obs::TraceSink* trace_ = nullptr;  // kSessionBatch spans
};

class MonitorService {
 public:
  explicit MonitorService(const ServiceOptions& opts = {});

  /// Opens an independent stream checked against `spec`.  The returned id
  /// is stable for the service's lifetime (ids are never reused).
  SessionId open(std::string name, std::unique_ptr<SeqSpec> spec,
                 const SessionOptions& opts = {});

  /// Destroys a session, releasing its monitor, dedup arenas and buffers —
  /// the eviction path of long-lived deployments (idle clients, completed
  /// streams).  The id stays burned; session(id) is invalid afterwards and
  /// producers must not hold its Session* across this call.  Controller
  /// thread.
  void close(SessionId id);

  Session& session(SessionId id) { return *sessions_[id]; }
  const Session& session(SessionId id) const { return *sessions_[id]; }
  /// The session, or nullptr if `id` is out of range or closed.  Safe from
  /// producer threads concurrently with open()/close() on the controller —
  /// the lookup the MPSC publish path uses.
  Session* find(SessionId id);
  /// Session slots ever opened (closed ones included; their slot is null).
  size_t session_count() const { return sessions_.size(); }
  /// Sessions currently open (controller thread).
  size_t live_session_count() const;

  /// Buffer events for a session (fed in arrival order at the next drain).
  void feed(SessionId id, const Event& e);
  void feed(SessionId id, std::span<const Event> events);

  /// One round-robin scheduling round: up to batch_limit events from every
  /// session with pending input, fed one session after another on the
  /// calling thread.  Returns the number of sessions serviced (0 = nothing
  /// pending).
  size_t drain_round();

  /// Drain rounds until no session has pending input.
  void drain();

  /// Total events still buffered across sessions.
  size_t pending() const;

  bool observed() const { return reg_ != nullptr; }

  /// Merged snapshot of the whole observability plane: the service's own
  /// drain-round instruments plus every session's registry, with
  /// each session's engine counters sampled in.  Empty when unobserved.
  /// Controller-thread call, between drains (like every query).
  obs::MetricsSnapshot metrics_snapshot();

  /// obs::snapshot_json of metrics_snapshot() — the machine-readable
  /// endpoint the ingest daemon will serve.
  std::string metrics_json();

 private:
  size_t batch_limit_;
  // Guards the sessions_ vector itself (growth in open, nulling in close)
  // against concurrent find() from producer threads.  Session contents are
  // not covered — they have their own discipline (inbox mutex + the
  // controller-thread contract).
  mutable std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
  size_t rr_ = 0;  // round-robin start offset (fairness rotation)

  // Observability plane (all null when unobserved).
  std::unique_ptr<obs::MetricsRegistry> reg_;
  obs::TraceSink* trace_ = nullptr;
  obs::Histogram* drain_sessions_ = nullptr;  // sessions serviced per round
  obs::Histogram* session_lag_ = nullptr;     // pending events at drain time
  obs::Counter* drain_rounds_ = nullptr;
  obs::Counter* events_drained_ = nullptr;
};

}  // namespace selin::service
