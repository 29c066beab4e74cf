#include "selin/core/monitor_core.hpp"

#include <algorithm>

#include "selin/lincheck/checker.hpp"

namespace selin {

void MonitorCore::init_checkers(size_t n_producers, const Options& options) {
  LeveledChecker::Options opts;
  opts.threads = options.checker_threads;
  for (CheckerSlot& c : checkers_) {
    c.seen.assign(n_producers, nullptr);
    c.checker = std::make_unique<LeveledChecker>(*obj_, opts);
    if (options.obs != nullptr) c.checker->set_obs(options.obs);
  }
}

MonitorCore::MonitorCore(size_t n_producers, size_t n_checkers,
                         const GenLinObject& obj, const Options& options)
    : obj_(&obj),
      m_(make_snapshot<const RecNode*>(options.snapshot, n_producers,
                                       nullptr)),
      producers_(n_producers),
      checkers_(n_checkers) {
  init_checkers(n_producers, options);
}

MonitorCore::MonitorCore(size_t n_producers, size_t n_checkers,
                         const GenLinObject& obj,
                         std::unique_ptr<Snapshot<const RecNode*>> m,
                         const Options& options)
    : obj_(&obj),
      m_(std::move(m)),
      producers_(n_producers),
      checkers_(n_checkers) {
  init_checkers(n_producers, options);
}

MonitorCore::MonitorCore(size_t n_producers, size_t n_checkers,
                         const GenLinObject& obj, SnapshotKind kind,
                         size_t checker_threads)
    : MonitorCore(n_producers, n_checkers, obj,
                  Options{kind, checker_threads, nullptr}) {}

MonitorCore::MonitorCore(size_t n_producers, size_t n_checkers,
                         const GenLinObject& obj,
                         std::unique_ptr<Snapshot<const RecNode*>> m,
                         size_t checker_threads)
    : MonitorCore(n_producers, n_checkers, obj, std::move(m),
                  Options{SnapshotKind::kDoubleCollect, checker_threads,
                          nullptr}) {}

MonitorCore::~MonitorCore() = default;

void MonitorCore::publish(ProcId producer, const OpDesc& op, Value y,
                          View view) {
  ProducerSlot& slot = producers_[producer];
  auto node = std::make_unique<RecNode>(
      RecNode{LambdaRecord{op, y, std::move(view)}, slot.head,
              slot.head == nullptr ? 1u : slot.head->len + 1});
  slot.head = node.get();
  slot.owned.push_back(std::move(node));
  // M.Write: publishes the chain head; the release store in the snapshot
  // implementation makes the record contents visible to scanning checkers.
  m_->write(producer, slot.head);
}

bool MonitorCore::check(size_t checker) {
  CheckerSlot& cs = checkers_[checker];
  // A settled overflow never clears: membership is unknown and the merged
  // X(τ) may be missing records, so re-merging could only produce a verdict
  // we cannot trust.  Skip the snapshot entirely.
  if (cs.status == CheckStatus::kOverflowed) return false;
  // Line 08: s ← M.Snapshot(); Line 09: τ ← union of entries.  The union is
  // merged incrementally: only chain segments beyond the previously seen
  // heads are new.
  std::vector<const RecNode*> heads = m_->scan(0);
  std::vector<size_t>& dirty = cs.dirty_scratch;
  dirty.clear();
  for (size_t j = 0; j < heads.size(); ++j) {
    const RecNode* h = heads[j];
    const RecNode* old = cs.seen[j];
    uint32_t old_len = old == nullptr ? 0 : old->len;
    // Collect the new records oldest-first (chains link newest→oldest).
    std::vector<const RecNode*>& fresh = cs.fresh_scratch;
    fresh.clear();
    for (const RecNode* n = h; n != nullptr && n->len > old_len; n = n->next) {
      fresh.push_back(n);
    }
    for (auto it = fresh.rbegin(); it != fresh.rend(); ++it) {
      dirty.push_back(cs.builder.add(&(*it)->rec));
    }
    cs.seen[j] = h;
  }
  bool ok;
  if (!dirty.empty()) {
    // Line 10: the membership test X(τ) ∈ O, resumed once below the lowest
    // level the merge touched.  The checker receives the merge's whole
    // dirty-level batch (not just its minimum) so the storm shape is
    // visible where the checkpoint/replay decisions are made.
    try {
      ok = cs.checker->resync(cs.builder, dirty);
    } catch (const CheckerOverflow&) {
      cs.status = CheckStatus::kOverflowed;
      return false;
    }
  } else {
    ok = cs.checker->ok();
  }
  cs.status = ok ? CheckStatus::kOk : CheckStatus::kRejected;
  return ok;
}

History MonitorCore::sketch(size_t checker) const {
  return checkers_[checker].builder.flatten();
}

size_t MonitorCore::record_count(size_t checker) const {
  return checkers_[checker].builder.record_count();
}

engine::EngineStats MonitorCore::checker_stats(size_t checker) const {
  return checkers_[checker].checker->stats();
}

engine::EngineStats MonitorCore::stats() const {
  engine::EngineStats total;
  total.lanes = 0;  // all-zero identity for the max-merged fields
  for (const CheckerSlot& cs : checkers_) {
    engine::accumulate(total, cs.checker->stats());
  }
  if (total.lanes == 0) total.lanes = 1;
  return total;
}

}  // namespace selin
