#include "selin/core/monitor_core.hpp"

#include <algorithm>
#include <limits>

#include "selin/lincheck/checker.hpp"

namespace selin {

void MonitorCore::init_checkers(size_t n_producers, const Options& options) {
  if (checkers_.size() > 1) tips_ = std::vector<TipSlot>(checkers_.size());
  for (CheckerSlot& c : checkers_) {
    c.seen.assign(n_producers, nullptr);
    c.checker = std::make_unique<LeveledChecker>(*obj_);
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

namespace {

uint32_t chain_len(const RecNode* head) {
  return head == nullptr ? 0 : head->len;
}

// The coverage rule.  A state that fed X(τ_c) for the records `cover`
// names, with top level `top`, is usable for a scan `heads` when each of
// its heads is at or below the scan's and every record the scan adds has a
// view larger than top's key.  Equal view sizes are equal views (Remark
// 7.2(2)), so no added record joins or precedes a level of τ_c: X(heads) is
// X(τ_c) followed by the levels of the added records.
bool usable(const std::vector<const RecNode*>& cover, const Level* top,
            const std::vector<const RecNode*>& heads) {
  const uint64_t top_key = top == nullptr ? 0 : top->key;
  for (size_t j = 0; j < heads.size(); ++j) {
    if (heads[j] == cover[j]) continue;
    const uint32_t have = chain_len(cover[j]);
    if (chain_len(heads[j]) < have) return false;
    for (const RecNode* n = heads[j]; n != nullptr && n->len > have;
         n = n->next) {
      if (n->rec.view.size() <= top_key) return false;
    }
  }
  return true;
}

}  // namespace

void MonitorCore::adopt_best_tip(size_t checker,
                                 const std::vector<const RecNode*>& heads) {
  CheckerSlot& cs = checkers_[checker];
  // Probe the tips in descending order of the records their slots
  // announce, so the first usable one has the most records.  A tip with no
  // more records than the own state is worth taking only when the own
  // state is not usable.
  std::vector<std::pair<size_t, size_t>>& ranked = cs.ranked;
  ranked.clear();
  for (size_t j = 0; j < tips_.size(); ++j) {
    const size_t records = tips_[j].records.load(std::memory_order_relaxed);
    if (j != checker && records > 0) ranked.push_back({records, j});
  }
  // Hazard protocol: name a tip in the hazard pointer, then re-read the
  // slot; if the slot still holds it, its owner cannot recycle it until the
  // hazard is cleared.  A slot that changed in between is skipped, never
  // retried.
  std::atomic<const Tip*>& hazard = tips_[checker].hazard;
  bool own_checked = false;
  while (!ranked.empty()) {
    // The first probe usually succeeds, so pick the best remaining
    // candidate each time rather than sorting them all.
    auto next = std::max_element(ranked.begin(), ranked.end());
    const auto [records, j] = *next;
    *next = ranked.back();
    ranked.pop_back();
    if (!own_checked && records <= cs.records) {
      if (usable(cs.seen, cs.builder.top(), heads)) break;
      own_checked = true;
    }
    const Tip* t = tips_[j].tip.load();
    if (t == nullptr) continue;
    hazard.store(t);
    if (tips_[j].tip.load() != t) continue;
    if (!usable(t->cover, t->top, heads)) {
      ++cs.tips_unusable;
      continue;
    }
    cs.seen = t->cover;
    cs.records = t->records;
    cs.builder.reset(t->top);
    cs.checker->adopt(*t->monitor, t->top);
    break;
  }
  hazard.store(nullptr);
}

std::unique_ptr<Tip> MonitorCore::reusable_tip(size_t checker) {
  CheckerSlot& cs = checkers_[checker];
  if (cs.retired.empty()) return nullptr;
  cs.hazards.clear();
  for (const TipSlot& s : tips_) {
    if (const Tip* t = s.hazard.load(); t != nullptr) cs.hazards.push_back(t);
  }
  // At most one hazard per slot exists, so more retired tips than slots
  // always leave one free: the retired list stays O(slots) long.
  for (auto it = cs.retired.begin(); it != cs.retired.end(); ++it) {
    if (std::find(cs.hazards.begin(), cs.hazards.end(), it->get()) ==
        cs.hazards.end()) {
      std::unique_ptr<Tip> t = std::move(*it);
      cs.retired.erase(it);
      return t;
    }
  }
  return nullptr;
}

void MonitorCore::publish_tip(size_t checker) {
  CheckerSlot& cs = checkers_[checker];
  cs.builder.seal();
  std::unique_ptr<Tip> t = reusable_tip(checker);
  if (t == nullptr) t = std::make_unique<Tip>();
  t->cover = cs.seen;
  t->records = cs.records;
  t->top = cs.builder.top();
  const MembershipMonitor& live = cs.checker->monitor();
  if (t->monitor == nullptr || !t->monitor->assign_from(live)) {
    t->monitor = live.clone();
  }
  tips_[checker].records.store(t->records, std::memory_order_relaxed);
  tips_[checker].tip.store(t.get());
  if (cs.published != nullptr) cs.retired.push_back(std::move(cs.published));
  cs.published = std::move(t);
}

bool MonitorCore::check(size_t checker) {
  CheckerSlot& cs = checkers_[checker];
  // A settled overflow never clears: membership is unknown and the merged
  // X(τ) may be missing records, so re-merging could only produce a verdict
  // we cannot trust.  Skip the snapshot entirely.
  if (cs.status == CheckStatus::kOverflowed) return false;
  // Line 08: s ← M.Snapshot(); Line 09: τ ← union of entries.
  std::vector<const RecNode*> heads = m_->scan(0);
  // Start from the usable state with the most records: this checker's own
  // or a tip another checker published.  With none usable (a miss), start
  // from the own state anyway; the merge then lands below its top, and
  // resync rolls back to one of this checker's checkpoints.
  if (!tips_.empty()) adopt_best_tip(checker, heads);
  // Merge what the start state lacks: the chain segments beyond its heads.
  std::vector<const RecNode*>& fresh = cs.fresh_scratch;
  fresh.clear();
  for (size_t j = 0; j < heads.size(); ++j) {
    const RecNode* h = heads[j];
    if (h == cs.seen[j]) continue;
    const uint32_t old_len = chain_len(cs.seen[j]);
    for (const RecNode* n = h; n != nullptr && n->len > old_len; n = n->next) {
      fresh.push_back(n);
    }
    cs.records = cs.records + chain_len(h) - old_len;
    cs.seen[j] = h;
  }
  // Merge in level order.  X(τ) depends only on the set of records, and
  // equal view sizes mean equal views (Remark 7.2(2)), so ascending view
  // size lets new levels append instead of relinking the levels merged just
  // before them; the lowest dirty level, which is all resync rolls back to,
  // is the same in any order.
  std::sort(fresh.begin(), fresh.end(),
            [](const RecNode* a, const RecNode* b) {
              return a->rec.view.size() < b->rec.view.size();
            });
  std::vector<size_t>& dirty = cs.dirty_scratch;
  dirty.clear();
  for (const RecNode* n : fresh) dirty.push_back(cs.builder.add(&n->rec));
  bool ok;
  if (!dirty.empty()) {
    // Line 10: the membership test X(τ) ∈ O, resumed once below the lowest
    // level the merge touched.  The checker receives the merge's whole
    // dirty-level batch (not just its minimum) so the storm shape is
    // visible where the checkpoint/replay decisions are made.
    try {
      ok = cs.checker->resync(cs.builder, dirty);
    } catch (const CheckerOverflow&) {
      // Leaves before publishing: an overflowed state is never shared.
      cs.status = CheckStatus::kOverflowed;
      return false;
    }
    if (!tips_.empty()) publish_tip(checker);
  } else {
    ok = cs.checker->ok();
  }
  // The settled bound.  A producer's views only grow along its chain, so
  // every record this context merges later has a view larger than that of
  // the head it merged from the same producer; a producer that has
  // published nothing could still publish any view.
  uint64_t settled = std::numeric_limits<uint64_t>::max();
  for (const RecNode* h : cs.seen) {
    settled = std::min(settled, h == nullptr ? 0 : h->rec.view.size());
  }
  cs.checker->settle(settled);
  cs.status = ok ? CheckStatus::kOk : CheckStatus::kRejected;
  return ok;
}

History MonitorCore::sketch(size_t checker) const {
  return checkers_[checker].builder.flatten();
}

size_t MonitorCore::record_count(size_t checker) const {
  return checkers_[checker].records;
}

size_t MonitorCore::level_nodes() const {
  size_t n = 0;
  for (const CheckerSlot& cs : checkers_) n += cs.builder.nodes();
  return n;
}

engine::EngineStats MonitorCore::stats() const {
  engine::EngineStats total;
  for (const CheckerSlot& cs : checkers_) {
    engine::accumulate(total, cs.checker->stats());
  }
  return total;
}

}  // namespace selin
