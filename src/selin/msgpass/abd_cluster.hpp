// A monitored ABD cluster: the message-passing deployment shape of the
// paper run at scale, with the modern checking engine attached.
//
// AbdService (Section 9.4) gives linearizable MWMR registers over a
// simulated asynchronous network — now with lossy/reordered links and
// client retransmission (AbdService::Options).  AbdCluster puts a
// runtime-verification plane next to it: every client operation publishes
// its invocation before the quorum protocol starts and its response after
// it completes, into a per-register service::MonitorService session whose
// LinMonitor checks the *observed* history against the register spec on
// the fingerprinted batched frontier engine.
//
// Soundness of the observation: publishing the invocation early and the
// response late only *widens* the operation's real-time interval, which
// weakens the precedence order the monitor enforces — a history
// linearizable under the true intervals stays linearizable under widened
// ones, so a correct ABD deployment always verifies kOk, while any value
// anomaly (stale read, lost write) is still a value anomaly in the widened
// history and gets caught.  Per-client event order is preserved by the
// MPSC session feed (events publish in call order per producer), so
// well-formedness holds as long as each logical client is driven
// sequentially — which is the client contract anyway.
//
// Scale shape: hundreds-to-thousands of *logical* clients (ProcIds) ride a
// handful of driver threads; per-register monitor state is bounded by the
// frontier of concurrently pending ops (≈ driver threads), not by the
// client population, and all sessions are fed in turn by one drainer — the
// decoupled-deployment shape where the whole cluster's checking runs on one
// controller thread.
//
// Threading contract: read()/write() are safe from any number of driver
// threads (each logical client on one thread at a time).  Draining is a
// controller role: either call drain_round()/drain() from a single
// controller thread, or start_drainer() to run it on an internal thread —
// required when multiple driver threads may fill the session inboxes, since
// a blocked publisher can only spin-wait on the drainer.  Verdict/stats
// queries belong to the controller, between drains (stop_drainer() first).
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "selin/engine/stats.hpp"
#include "selin/msgpass/abd.hpp"
#include "selin/service/monitor_service.hpp"

namespace selin {

struct AbdClusterOptions {
  /// Replica count of the underlying ABD service.
  size_t replicas = 3;
  /// Monitored registers; keys are 0..keys-1, one session per key.
  size_t keys = 1;
  uint64_t seed = 1;
  /// Network-adversity knobs, forwarded to AbdService::Options.
  uint64_t max_delay_us = 0;
  uint32_t drop_permille = 0;
  bool reorder = false;
  uint64_t retransmit_us = 0;
  /// Monitoring-plane knobs (service::MonitorService / SessionOptions).
  size_t batch_limit = 256;
  size_t max_configs = 1 << 18;
  size_t inbox_capacity = 1 << 14;
  bool observe = false;
  obs::TraceSink* trace = nullptr;
};

class AbdCluster {
 public:
  explicit AbdCluster(const AbdClusterOptions& opts);
  ~AbdCluster();

  AbdCluster(const AbdCluster&) = delete;
  AbdCluster& operator=(const AbdCluster&) = delete;

  /// Linearizable monitored register ops.  `client` is the logical process
  /// id of the observed history; each client must be driven sequentially.
  Value read(ProcId client, uint64_t key);
  void write(ProcId client, uint64_t key, Value value);

  /// Controller-side draining (see the threading contract above).
  size_t drain_round() { return svc_.drain_round(); }
  void drain() { svc_.drain(); }

  /// Run drain rounds on an internal controller thread until
  /// stop_drainer(); required for multi-threaded drivers.
  void start_drainer();
  /// Stops the drainer thread and drains whatever is left.
  void stop_drainer();

  /// Verdict of register `key`'s session (controller, after draining).
  service::Session::Status verdict(uint64_t key) {
    return session(key).status();
  }
  /// True iff every register's observed history verified kOk.
  bool all_ok();

  /// Engine counters aggregated across all sessions.
  engine::EngineStats stats();
  /// Merged metrics snapshot of the monitoring plane (empty when
  /// unobserved).
  obs::MetricsSnapshot metrics_snapshot() { return svc_.metrics_snapshot(); }

  /// Completed client operations (reads + writes).
  uint64_t ops() const { return ops_.load(std::memory_order_relaxed); }

  AbdService& network() { return *net_; }
  service::MonitorService& monitor() { return svc_; }
  service::Session& session(uint64_t key) { return svc_.session(sids_[key]); }

  /// Publish raw events into a register's observed history — the fault
  /// hook differential tests use to forge a lying response the network
  /// never produced.  Same MPSC path and blocking semantics as client ops.
  void publish_raw(uint64_t key, std::span<const Event> events);

 private:
  void publish_blocking(service::Session* s, const Event& e);

  AbdClusterOptions opts_;
  std::shared_ptr<AbdService> net_;
  service::MonitorService svc_;
  std::vector<service::SessionId> sids_;
  std::atomic<uint32_t> next_seq_{1};
  std::atomic<uint64_t> ops_{0};

  std::atomic<bool> drainer_on_{false};
  std::atomic<bool> drainer_stop_{false};
  std::thread drainer_;
};

}  // namespace selin
