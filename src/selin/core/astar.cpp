#include "selin/core/astar.hpp"

#include <atomic>
#include <stdexcept>

namespace selin {

AStar::AStar(size_t n, IConcurrent& a, SnapshotKind kind, AStarTraceSink* sink)
    : a_(&a),
      sink_(sink),
      announce_(make_snapshot<const SetNode*>(kind, n, nullptr)),
      per_proc_(n) {}

AStar::AStar(size_t n, IConcurrent& a,
             std::unique_ptr<Snapshot<const SetNode*>> announce,
             AStarTraceSink* sink)
    : a_(&a), sink_(sink), announce_(std::move(announce)), per_proc_(n) {
  if (announce_->size() < n) {
    throw std::invalid_argument("AStar: snapshot smaller than process count");
  }
}

AStar::Result AStar::apply(ProcId i, Method m, Value arg) {
  OpDesc op;
  op.id = OpId{i, per_proc_[i].next_seq++};
  op.method = m;
  op.arg = arg;
  return apply_op(i, op);
}

AStar::Result AStar::apply_op(ProcId i, const OpDesc& op) {
  if (i >= per_proc_.size() || op.id.pid != i) {
    throw std::invalid_argument("AStar::apply_op: bad process id");
  }
  PerProc& pp = per_proc_[i];

  // Line 01: set_i ← set_i ∪ {(p_i, op_i)} — prepend to the immutable chain.
  auto* node = arena_.create<SetNode>(
      SetNode{op, pp.head, pp.head == nullptr ? 1u : pp.head->len + 1});
  pp.head = node;

  // Line 02: N.Write(set_i).
  announce_->write(i, node);
  if (sink_ != nullptr) sink_->on_write(op);
  // N and A are distinct base objects, each linearizable in the paper, so
  // Line 02 takes effect before Line 03 and Line 04 before Line 05.  The
  // snapshot's release stores and acquire loads do not order a store before
  // a later load (x86 reorders exactly that), so without these two fences
  // two processes can each miss the other's announcement and return views
  // that are not ⊆-comparable (Remark 7.2(2)).
  std::atomic_thread_fence(std::memory_order_seq_cst);

  // Lines 03-04: the black-box call into A.
  Value y = a_->apply(i, op);
  std::atomic_thread_fence(std::memory_order_seq_cst);

  // Lines 05-06: λ_i ← union of a Snapshot of N, scanned straight into the
  // buffer the view keeps.
  std::vector<const SetNode*> heads;
  announce_->scan(i, heads);
  View view(std::move(heads));
  if (sink_ != nullptr) sink_->on_snap(op, y);

  // Line 07.
  return Result{y, std::move(view), op};
}

OpDesc SteppedAStar::announce(ProcId i, Method m, Value arg) {
  if (i >= open_.size()) throw std::invalid_argument("SteppedAStar: pid");
  Open& o = open_[i];
  if (o.active) throw std::logic_error("SteppedAStar: operation already open");
  AStar::PerProc& pp = astar_->per_proc_[i];
  OpDesc op;
  op.id = OpId{i, pp.next_seq++};
  op.method = m;
  op.arg = arg;
  auto* node = astar_->arena_.create<SetNode>(
      SetNode{op, pp.head, pp.head == nullptr ? 1u : pp.head->len + 1});
  pp.head = node;
  astar_->announce_->write(i, node);
  if (astar_->sink_ != nullptr) astar_->sink_->on_write(op);
  o = Open{op, kNoArg, false, true};
  return op;
}

Value SteppedAStar::invoke(ProcId i) {
  Open& o = open_[i];
  if (!o.active || o.invoked) throw std::logic_error("SteppedAStar: invoke");
  o.y = astar_->a_->apply(i, o.op);
  o.invoked = true;
  return o.y;
}

AStar::Result SteppedAStar::complete(ProcId i) {
  Open& o = open_[i];
  if (!o.active || !o.invoked) throw std::logic_error("SteppedAStar: complete");
  std::vector<const SetNode*> heads;
  astar_->announce_->scan(i, heads);
  View view(std::move(heads));
  if (astar_->sink_ != nullptr) astar_->sink_->on_snap(o.op, o.y);
  AStar::Result r{o.y, std::move(view), o.op};
  o.active = false;
  return r;
}

AStar::Result SteppedAStar::run_all(ProcId i, Method m, Value arg) {
  announce(i, m, arg);
  invoke(i);
  return complete(i);
}

}  // namespace selin
