// Decoupled self-enforced implementation D_{O,A} (Figure 12, Section 9.2).
//
// Response production and verification are split: *producers* call apply(),
// which runs A* and publishes the 4-tuple but does NOT check (their Apply is
// Lines 01-05 of Figure 12 — constant extra work over A*); *verifiers* run
// verify_once() in a loop (Lines 06-12), snapshotting M and testing X(τ_j).
//
// Unlike V_{O,A}, D_{O,A} may return responses that are later found
// incorrect — the paper's trade-off: lower producer latency for detection
// lag.  Eventually the verifiers detect any non-GenLin behavior, assuming
// not all of them crash.  bench_decoupled measures both sides (B4).
//
// This split is where the modern engine pays off most: a verifier pass
// merges *every* record published since its last pass and feeds them as one
// dirty batch, so the fingerprinted feed_batch path runs one closure per
// response run instead of one full membership pass per operation — the
// deployment shape where many producers share few checking contexts gets
// the batched amortization end to end.  Options carries the snapshot
// flavors, the trace sink and the obs hooks; the positional constructor
// sets only the snapshot flavors.
#pragma once

#include <atomic>
#include <functional>

#include "selin/core/astar.hpp"
#include "selin/core/monitor_core.hpp"

namespace selin {

class Decoupled {
 public:
  using ErrorReport =
      std::function<void(size_t verifier, const History& witness)>;

  struct Options {
    SnapshotKind announce_snapshot = SnapshotKind::kDoubleCollect;
    SnapshotKind monitor_snapshot = SnapshotKind::kDoubleCollect;
    AStarTraceSink* trace = nullptr;
    /// Forwarded to MonitorCore::Options::obs.
    const obs::LeveledHooks* obs = nullptr;
  };

  /// n producer slots over black-box `a`, n_verifiers checking contexts.
  Decoupled(size_t n_producers, size_t n_verifiers, IConcurrent& a,
            const GenLinObject& obj, ErrorReport on_error, Options options);

  Decoupled(size_t n_producers, size_t n_verifiers, IConcurrent& a,
            const GenLinObject& obj, ErrorReport on_error = {},
            SnapshotKind announce_snapshot = SnapshotKind::kDoubleCollect,
            SnapshotKind monitor_snapshot = SnapshotKind::kDoubleCollect);

  /// Producer operation (Figure 12, Lines 01-05): returns y_i immediately.
  Value apply(ProcId i, Method m, Value arg = kNoArg);

  /// One iteration of verifier v's loop (Figure 12, Lines 07-11).  Returns
  /// the verdict; on a genuine rejection, reports (ERROR, X(τ_v)) through
  /// the callback.  A budget overflow settles the verifier sticky-false
  /// without a report — there is no witness to hand out, only "unknown".
  bool verify_once(size_t v);

  History witness(size_t v) const { return core_.sketch(v); }

  uint64_t error_count() const {
    return errors_.load(std::memory_order_relaxed);
  }

  /// Verifier passes that ended in budget overflow (each settled verifier
  /// counts once).
  uint64_t overflow_count() const {
    return overflows_.load(std::memory_order_relaxed);
  }
  bool overflowed(size_t v) const { return core_.overflowed(v); }

  /// Aggregated engine counters of the verifier monitors.
  engine::EngineStats stats() const { return core_.stats(); }

  size_t producers() const { return astar_.procs(); }
  size_t verifiers() const { return core_.checkers(); }

 private:
  AStar astar_;
  MonitorCore core_;
  ErrorReport on_error_;
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> overflows_{0};
};

}  // namespace selin
