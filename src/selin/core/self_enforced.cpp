#include "selin/core/self_enforced.hpp"

namespace selin {

SelfEnforced::SelfEnforced(size_t n, IConcurrent& a, const GenLinObject& obj,
                           Options options)
    : astar_(n, a, options.announce_snapshot, options.trace),
      core_(n, n, obj,
            MonitorCore::Options{options.monitor_snapshot, options.obs}) {}

SelfEnforced::Outcome SelfEnforced::apply(ProcId i, Method m, Value arg) {
  // Lines 01-02: (y_i, λ_i) ← Apply(op_i) of A*.
  AStar::Result r = astar_.apply(i, m, arg);
  // Lines 03-04: res_i ← res_i ∪ {(p_i, op_i, y_i, λ_i)}; M.Write(res_i).
  core_.publish(i, r.op, r.y, std::move(r.view));
  // Lines 05-07: τ_i ← union of M.Snapshot(); test X(τ_i) ∈ O.
  bool ok = core_.check(i);
  if (ok) {
    return Outcome{r.y, false, false};  // Line 08
  }
  errors_.fetch_add(1, std::memory_order_relaxed);
  // Line 10 (witness via certificate()); overflow marks a budget exhaustion
  // rather than a proven violation — sticky either way.
  return Outcome{kError, true, core_.overflowed(i)};
}

}  // namespace selin
