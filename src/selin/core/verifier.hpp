// The wait-free predictive verifier V_O (Figure 10, Theorem 8.1).
//
// V_O interacts with an arbitrary input implementation A* ∈ DRV: it invokes
// Apply, receives (y_i, λ_i), exchanges 4-tuples through the snapshot object
// M, and locally tests X(τ_i) ∈ O, reporting (ERROR, X(τ_i)) on failure.
// The while-loop body of Figure 10 is the step() method; the workload (the
// "non-deterministically chosen operation" of Line 03) is supplied by the
// caller, which is how clients C drive the verifier in the interactive model
// of Section 3.
//
// Properties (Theorem 8.1): read/write base objects only with O(n) step
// complexity (per snapshot scan of [63]; O(n^2) with our Afek snapshot);
// predictive soundness — every report carries a witness history *of A**;
// completeness — a non-GenLin prefix eventually triggers ERROR at some
// process; soundness for correct A; and stability — after some prefix every
// iteration keeps reporting.
#pragma once

#include <atomic>
#include <functional>

#include "selin/core/astar.hpp"
#include "selin/core/monitor_core.hpp"

namespace selin {

class Verifier {
 public:
  /// Called on Line 11: report (ERROR, X(τ_i)).  May be invoked concurrently
  /// from multiple process threads; implementations must be thread-safe.
  using ErrorReport =
      std::function<void(ProcId reporter, const History& witness)>;

  struct Options {
    SnapshotKind monitor_snapshot = SnapshotKind::kDoubleCollect;
    /// Forwarded to MonitorCore::Options::obs.
    const obs::LeveledHooks* obs = nullptr;
  };

  /// Verifies the DRV implementation `astar` against `obj`; both must
  /// outlive the verifier.
  Verifier(AStar& astar, const GenLinObject& obj, ErrorReport on_error,
           Options options);
  Verifier(AStar& astar, const GenLinObject& obj, ErrorReport on_error = {},
           SnapshotKind monitor_snapshot = SnapshotKind::kDoubleCollect);

  /// One iteration of the Figure 10 while loop for process i, with op chosen
  /// by the caller.  Returns the response from A* (the interaction continues
  /// after ERROR, as in the paper's model).
  Value step(ProcId i, Method m, Value arg = kNoArg);

  /// Total ERROR reports so far.
  uint64_t error_count() const {
    return errors_.load(std::memory_order_relaxed);
  }

  /// X(τ_i) from process i's latest iteration.
  History sketch(ProcId i) const { return core_.sketch(i); }

  /// True iff process i's checker settled at budget overflow (sticky; such
  /// passes count toward error_count() but carry no witness).
  bool overflowed(ProcId i) const { return core_.overflowed(i); }

  /// Aggregated engine counters of the verification monitors.
  engine::EngineStats stats() const { return core_.stats(); }

 private:
  AStar* astar_;
  MonitorCore core_;
  ErrorReport on_error_;
  std::atomic<uint64_t> errors_{0};
};

}  // namespace selin
