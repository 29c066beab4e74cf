#include "selin/core/decoupled.hpp"

namespace selin {

Decoupled::Decoupled(size_t n_producers, size_t n_verifiers, IConcurrent& a,
                     const GenLinObject& obj, ErrorReport on_error,
                     Options options)
    : astar_(n_producers, a, options.announce_snapshot, options.trace),
      core_(n_producers, n_verifiers, obj,
            MonitorCore::Options{options.monitor_snapshot, options.obs}),
      on_error_(std::move(on_error)) {}

Decoupled::Decoupled(size_t n_producers, size_t n_verifiers, IConcurrent& a,
                     const GenLinObject& obj, ErrorReport on_error,
                     SnapshotKind announce_snapshot,
                     SnapshotKind monitor_snapshot)
    : Decoupled(n_producers, n_verifiers, a, obj, std::move(on_error),
                Options{announce_snapshot, monitor_snapshot}) {}

Value Decoupled::apply(ProcId i, Method m, Value arg) {
  // Lines 01-02: (y_i, λ_i) ← Apply(op_i) of A*.
  AStar::Result r = astar_.apply(i, m, arg);
  // Lines 03-04: publish the 4-tuple for the verifiers.
  core_.publish(i, r.op, r.y, std::move(r.view));
  // Line 05: return y_i without checking.
  return r.y;
}

bool Decoupled::verify_once(size_t v) {
  bool was_overflowed = core_.overflowed(v);
  // Lines 07-09: τ_v ← union of M.Snapshot(); Line 09: test X(τ_v) ∈ O.
  bool ok = core_.check(v);
  if (!ok) {
    if (core_.overflowed(v)) {
      if (!was_overflowed) {
        overflows_.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      // Line 10: report (ERROR, X(τ_v)).
      errors_.fetch_add(1, std::memory_order_relaxed);
      if (on_error_) on_error_(v, core_.sketch(v));
    }
  }
  return ok;
}

}  // namespace selin
