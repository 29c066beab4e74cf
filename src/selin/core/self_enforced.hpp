// Self-enforced GenLin implementation V_{O,A} (Figure 11, Theorem 8.2).
//
// Given any implementation A of an object O ∈ GenLin, the wrapper
//   * obtains (y_i, λ_i) from A* (the Figure 7 construction over A),
//   * publishes the 4-tuple in the snapshot object M,
//   * locally tests X(τ_i) ∈ O,
//   * returns y_i if the test passes, and (ERROR, X(τ_i)) otherwise.
//
// Guarantees (Theorem 8.2): same progress as A; if A is correct no caller
// ever sees ERROR and the history is correct; if A is faulty, every
// execution is correct up to a prefix after which every new operation
// returns ERROR with a witness; and a certificate history similar to the
// current history is available on demand (certificate()).
//
// The membership side runs on the modern engine: V_{O,A}'s per-operation
// test X(τ_i) ∈ O rides MonitorCore's fingerprinted batched frontier
// engine, and Options carries the snapshot flavors and obs hooks down to
// it.
#pragma once

#include <atomic>

#include "selin/core/astar.hpp"
#include "selin/core/monitor_core.hpp"

namespace selin {

class SelfEnforced {
 public:
  struct Options {
    SnapshotKind announce_snapshot = SnapshotKind::kDoubleCollect;
    SnapshotKind monitor_snapshot = SnapshotKind::kDoubleCollect;
    AStarTraceSink* trace = nullptr;
    /// Forwarded to MonitorCore::Options::obs.
    const obs::LeveledHooks* obs = nullptr;
  };

  struct Outcome {
    Value value;  ///< y_i, or kError
    bool error;   ///< true iff the verification layer rejected
    /// True iff the rejection was an exploration-budget overflow: the
    /// verdict is *unknown* rather than proven wrong, and (like a genuine
    /// detection) it is sticky — every later operation of this process
    /// keeps returning ERROR.
    bool overflow = false;
  };

  /// n process slots over black-box `a`, enforcing membership in `obj`.
  /// Both must outlive this object.
  SelfEnforced(size_t n, IConcurrent& a, const GenLinObject& obj,
               Options options);
  SelfEnforced(size_t n, IConcurrent& a, const GenLinObject& obj)
      : SelfEnforced(n, a, obj, Options{}) {}

  /// Caller-provided base objects for N and M — e.g. ABD snapshots, making
  /// the whole stack run over message passing (Section 9.4).  The Options
  /// overload forwards the trace sink and obs hooks; snapshot kinds are
  /// ignored (the provided objects are the snapshots).
  SelfEnforced(size_t n, IConcurrent& a, const GenLinObject& obj,
               std::unique_ptr<Snapshot<const SetNode*>> announce,
               std::unique_ptr<Snapshot<const RecNode*>> records,
               Options options)
      : astar_(n, a, std::move(announce), options.trace),
        core_(n, n, obj, std::move(records),
              MonitorCore::Options{options.monitor_snapshot, options.obs}) {}
  SelfEnforced(size_t n, IConcurrent& a, const GenLinObject& obj,
               std::unique_ptr<Snapshot<const SetNode*>> announce,
               std::unique_ptr<Snapshot<const RecNode*>> records)
      : SelfEnforced(n, a, obj, std::move(announce), std::move(records),
                     Options{}) {}

  /// Apply(op_i) of Figure 11.  Wait-free given a wait-free A and snapshot.
  Outcome apply(ProcId i, Method m, Value arg = kNoArg);

  /// Theorem 8.2(3): a history similar to the current history of V_{O,A} —
  /// the forensic certificate.  Reflects process i's latest check.
  History certificate(ProcId i) const { return core_.sketch(i); }

  /// Number of operations that returned ERROR so far (all processes,
  /// overflow rejections included).
  uint64_t error_count() const {
    return errors_.load(std::memory_order_relaxed);
  }

  /// True iff process i's checker settled at budget overflow (sticky).
  bool overflowed(ProcId i) const { return core_.overflowed(i); }

  /// Aggregated engine counters of the enforcement monitors.
  engine::EngineStats stats() const { return core_.stats(); }

  AStar& astar() { return astar_; }
  const GenLinObject& object() const { return core_.object(); }

 private:
  AStar astar_;
  MonitorCore core_;
  std::atomic<uint64_t> errors_{0};
};

}  // namespace selin
