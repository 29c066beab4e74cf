#include "selin/core/verifier.hpp"

namespace selin {

Verifier::Verifier(AStar& astar, const GenLinObject& obj, ErrorReport on_error,
                   Options options)
    : astar_(&astar),
      core_(astar.procs(), astar.procs(), obj,
            MonitorCore::Options{options.monitor_snapshot, options.obs}),
      on_error_(std::move(on_error)) {}

Verifier::Verifier(AStar& astar, const GenLinObject& obj, ErrorReport on_error,
                   SnapshotKind monitor_snapshot)
    : Verifier(astar, obj, std::move(on_error),
               Options{monitor_snapshot}) {}

Value Verifier::step(ProcId i, Method m, Value arg) {
  // Lines 04-05: invoke Apply(op_i) of A*, receive (y_i, λ_i).
  AStar::Result r = astar_->apply(i, m, arg);
  // Lines 06-07: res_i ← res_i ∪ {4-tuple}; M.Write(res_i).
  core_.publish(i, r.op, r.y, std::move(r.view));
  // Lines 08-10: τ_i ← union of M.Snapshot(); test X(τ_i) ∈ O.
  if (!core_.check(i)) {
    // Line 11: report (ERROR, X(τ_i)) — an overflow settles sticky-false
    // with no witness (the sketch may be incomplete), so it is counted but
    // not reported.
    errors_.fetch_add(1, std::memory_order_relaxed);
    if (on_error_ && !core_.overflowed(i)) on_error_(i, core_.sketch(i));
  }
  return r.y;
}

}  // namespace selin
