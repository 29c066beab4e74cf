// Message-passing substrate (Section 9.4): "Due to the shared memory
// simulation algorithm in [5] (Attiya, Bar-Noy, Dolev), all our algorithms —
// A*, V_O, V_{O,A} and D_{O,A} — can be simulated in asynchronous
// message-passing systems where less than half the processes can crash."
//
// This module provides that simulation: a simulated asynchronous network of
// replica nodes with crash failures, the ABD multi-writer multi-reader
// atomic register protocol on top (majority quorums, two phases per
// operation, linearizable), and a Snapshot implementation over ABD registers
// so the whole selin stack — announcement object N, record object M, hence
// A* and every verifier — runs on message passing.
//
// Replicas are threads with mailboxes and randomized per-message delays
// (seeded, reproducible).  crash(r) silences a replica permanently; every
// client operation completes as long as a majority of replicas is alive —
// the fault-tolerance contract the paper inherits from [5].
//
// Payload note: selin snapshot entries are pointers to immutable nodes
// (Section 9.1 representation).  In a real deployment the nodes themselves
// would be shipped; the simulation shares one address space, so shipping the
// pointer preserves exactly the algorithmic content (timestamps, quorums,
// write-backs) under study.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "selin/impls/concurrent.hpp"
#include "selin/snapshot/snapshot.hpp"
#include "selin/util/rng.hpp"
#include "selin/util/types.hpp"

namespace selin {

/// The replicated register service: an asynchronous message-passing system
/// of `replicas` nodes implementing linearizable MWMR registers keyed by
/// uint64, via the ABD protocol.  Thread-safe for any number of clients.
class AbdService {
 public:
  struct Versioned {
    uint64_t value = 0;
    uint64_t ts = 0;    ///< logical timestamp
    uint32_t wid = 0;   ///< writer id (timestamp tie-break)
  };

  /// Network-adversity knobs (sim/-style seeded fault injection).  The
  /// defaults reproduce the seed-era reliable-FIFO links; the cluster bench
  /// and the differential tests turn the faults on.
  struct Options {
    /// Must be >= 1; tolerates ceil(replicas/2)-1 crashes.
    size_t replicas = 3;
    uint64_t seed = 1;
    /// Bounds the simulated per-message processing delay.
    uint64_t max_delay_us = 20;
    /// Per-message drop probability in permille (applied independently to
    /// requests and replies).  Lost messages are recovered by
    /// retransmission: ABD's phases are idempotent, so clients simply
    /// rebroadcast an unanswered request (see retransmit_us).
    uint32_t drop_permille = 0;
    /// Deliver inbox messages in random order instead of FIFO — the
    /// asynchronous-network reordering the protocol must tolerate.
    bool reorder = false;
    /// Client retransmission interval under lossy links; 0 picks a bound
    /// from max_delay_us.  Only consulted when drop_permille > 0.
    uint64_t retransmit_us = 0;
  };

  explicit AbdService(const Options& options);
  /// Seed-era signature (reliable links), kept delegating.
  explicit AbdService(size_t replicas, uint64_t seed = 1,
                      uint64_t max_delay_us = 20);
  ~AbdService();

  AbdService(const AbdService&) = delete;
  AbdService& operator=(const AbdService&) = delete;

  /// Crash replica r: it stops processing messages forever.  Crashing a
  /// majority makes subsequent operations block (as it must — ABD requires
  /// a live majority); the caller is responsible for staying a minority.
  void crash(size_t r);

  size_t replicas() const { return replicas_.size(); }
  size_t quorum() const { return replicas_.size() / 2 + 1; }
  size_t alive() const;

  /// Linearizable read: GET phase to a majority, then write-back (PUT) of
  /// the maximum timestamp to a majority.
  Versioned read(uint64_t key);

  /// Linearizable write: GET-timestamp phase, then PUT of (max_ts+1, wid).
  void write(uint64_t key, uint64_t value, uint32_t wid);

  /// Total messages processed (diagnostics / benches).
  uint64_t messages_processed() const;

  /// Messages lost to the simulated lossy links (requests + replies).
  uint64_t messages_dropped() const;

  /// Client rebroadcasts triggered by reply timeouts under lossy links.
  uint64_t retransmissions() const;

 private:
  struct Msg {
    enum class Type : uint8_t { kGet, kPut, kGetReply, kPutAck };
    Type type;
    uint64_t rid;
    uint64_t key;
    Versioned data;
    size_t replica;  // sender replica (for replies)
  };

  struct Replica {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Msg> inbox;
    bool crashed = false;
    bool stop = false;
    std::unordered_map<uint64_t, Versioned> store;
    std::thread thread;
  };

  struct Pending {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Msg> replies;
    /// Distinct-replica dedupe: retransmission makes duplicate replies
    /// possible, and a quorum must count *replicas*, not messages.
    std::vector<uint8_t> seen;
  };

  void replica_loop(size_t r, uint64_t seed);
  void post(size_t r, const Msg& m);
  void broadcast(const Msg& m);
  /// Blocks until a quorum of *distinct replicas* replied to rid; under
  /// lossy links, rebroadcasts `request` every retransmission interval
  /// (ABD phases are idempotent, so duplicates are harmless and deduped).
  std::vector<Msg> await_quorum(uint64_t rid, const Msg& request);
  uint64_t register_rid(std::shared_ptr<Pending> p);
  void deliver_reply(const Msg& m);
  /// Seeded coin for the lossy links; true = this message is lost.
  bool drop_message();

  std::vector<std::unique_ptr<Replica>> replicas_;
  Options opts_;
  uint64_t max_delay_us_;

  std::mutex pending_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Pending>> pending_;
  std::atomic<uint64_t> next_rid_{1};
  std::atomic<uint64_t> processed_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> retransmits_{0};
  std::atomic<uint64_t> drop_state_{0};
};

/// Snapshot over ABD registers: entry i is the ABD register with key i; a
/// scan double-collects (value, ts) vectors until two consecutive collects
/// agree on all timestamps — linearizable by the standard double-collect
/// argument over linearizable base registers.  Lock-free (scans can be
/// starved by writers), matching DoubleCollectSnapshot's contract but with
/// every base step a quorum round-trip.
template <typename T>
class AbdSnapshot final : public Snapshot<T> {
  static_assert(sizeof(T) <= sizeof(uint64_t) &&
                    std::is_trivially_copyable_v<T>,
                "AbdSnapshot payloads must fit a register word");

 public:
  /// Shares (does not own) the replica service, so several snapshot objects
  /// (announcements N, records M) can ride one replicated system.
  AbdSnapshot(std::shared_ptr<AbdService> service, size_t n, T initial,
              uint64_t key_base = 0)
      : service_(std::move(service)), n_(n), key_base_(key_base) {
    for (size_t i = 0; i < n_; ++i) {
      service_->write(key_base_ + i, encode(initial), /*wid=*/0);
    }
  }

  void write(ProcId i, T v) override {
    StepCounter::bump();
    service_->write(key_base_ + i, encode(v), i + 1);
  }

  void scan(ProcId /*i*/, std::vector<T>& out) override {
    const size_t n = n_;
    Collect<AbdService::Versioned> c[2];  // the previous collect and the latest
    collect(c[0]);
    for (size_t b = 1;; b ^= 1) {
      collect(c[b]);
      const Collect<AbdService::Versioned>& a = c[b ^ 1];
      bool clean = true;
      for (size_t k = 0; k < n; ++k) {
        if (a[k].ts != c[b][k].ts || a[k].wid != c[b][k].wid) {
          clean = false;
          break;
        }
      }
      if (clean) {
        out.resize(n);
        for (size_t k = 0; k < n; ++k) out[k] = decode(c[b][k].value);
        return;
      }
    }
  }

  size_t size() const override { return n_; }
  const char* name() const override { return "abd"; }

 private:
  static uint64_t encode(T v) {
    uint64_t out = 0;
    std::memcpy(&out, &v, sizeof(T));
    return out;
  }
  static T decode(uint64_t raw) {
    T out{};
    std::memcpy(&out, &raw, sizeof(T));
    return out;
  }

  void collect(Collect<AbdService::Versioned>& out) {
    out.clear();
    for (size_t k = 0; k < n_; ++k) {
      StepCounter::bump();
      out.push_back(service_->read(key_base_ + k));
    }
  }

  std::shared_ptr<AbdService> service_;
  size_t n_;
  uint64_t key_base_;
};

/// A *distributed* register implementation (an A living on message passing):
/// Read/Write through the ABD service.  Linearizable, majority-resilient.
std::unique_ptr<IConcurrent> make_abd_register(
    std::shared_ptr<AbdService> service, uint64_t key = 1'000'000,
    Value initial = 0);

}  // namespace selin
