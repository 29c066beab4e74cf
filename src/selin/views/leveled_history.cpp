#include "selin/views/leveled_history.hpp"

#include <algorithm>
#include <iterator>

#include "selin/obs/hooks.hpp"

namespace selin {

std::vector<OpDesc> XBuilder::delta(const View* prev, const View& view) {
  std::vector<OpDesc> invs;
  for (size_t p = 0; p < view.procs(); ++p) {
    const SetNode* n = view.heads()[p];
    // Most processes did nothing between two adjacent levels.
    if (prev != nullptr && prev->heads()[p] == n) continue;
    uint32_t prev_len =
        prev == nullptr ? 0 : prev->chain_len(static_cast<ProcId>(p));
    while (n != nullptr && n->len > prev_len) {
      invs.push_back(n->op);
      n = n->next;
    }
  }
  std::sort(invs.begin(), invs.end(),
            [](const OpDesc& a, const OpDesc& b) { return a.id < b.id; });
  return invs;
}

LevelIndex::LevelIndex(const Level* top) {
  for (const Level* l = top; l != nullptr; l = l->below) levels_.push_back(l);
  std::reverse(levels_.begin(), levels_.end());
}

Level* XBuilder::new_level() {
  if (nodes_ % kChunk == 0) {
    chunks_.push_back(std::make_unique<Level[]>(kChunk));
  }
  return &chunks_.back()[nodes_++ % kChunk];
}

Level* XBuilder::writable(const Level* lvl) {
  // An unsealed level was allocated, non-const, by this builder since it
  // last sealed, and no other builder can reach it.
  if (!lvl->sealed) return const_cast<Level*>(lvl);
  Level* copy = new_level();
  *copy = *lvl;
  copy->sealed = false;
  return copy;
}

size_t XBuilder::add(const LambdaRecord* rec) {
  const uint64_t key = rec->view.size();
  // The levels above the record's key, top first: each is relinked onto
  // the level the record changes.
  above_.clear();
  const Level* at = top_;
  while (at != nullptr && at->key > key) {
    above_.push_back(at);
    at = at->below;
  }
  Level* lvl;
  const bool inserted = at == nullptr || at->key != key;
  if (!inserted) {
    // Existing level: insert the response, keeping OpId order.
    lvl = writable(at);
    auto& ress = lvl->ress;
    auto it = std::lower_bound(
        ress.begin(), ress.end(), rec->op.id,
        [](const std::pair<OpDesc, Value>& r, OpId id) {
          return r.first.id < id;
        });
    ress.insert(it, {rec->op, rec->y});
  } else {
    lvl = new_level();
    lvl->key = key;
    lvl->view = &rec->view;
    lvl->below = at;
    lvl->depth = at == nullptr ? 1 : at->depth + 1;
    lvl->invs = delta(at == nullptr ? nullptr : at->view, rec->view);
    lvl->ress.push_back({rec->op, rec->y});
  }
  const size_t changed = lvl->depth - 1;
  // Relink the levels above, bottom-up.  Above an inserted level, the old
  // level at its index loses the invocations the new one now claims.
  const Level* below = lvl;
  for (size_t i = above_.size(); i-- > 0;) {
    Level* up = writable(above_[i]);
    if (inserted && i + 1 == above_.size()) {
      up->invs = delta(&rec->view, *up->view);
    }
    up->below = below;
    up->depth = below->depth + 1;
    below = up;
  }
  top_ = below;
  return changed;
}

void XBuilder::seal() {
  // The unsealed levels are the top of the chain: every level above a
  // rewritten or new one was relinked, hence is unsealed too.
  for (const Level* l = top_; l != nullptr && !l->sealed; l = l->below) {
    const_cast<Level*>(l)->sealed = true;  // this builder's own, see writable
  }
}

History XBuilder::flatten() const {
  History out;
  const LevelIndex levels(top_);
  for (size_t k = 0; k < levels.size(); ++k) {
    const Level& lvl = levels[k];
    for (const OpDesc& op : lvl.invs) out.push_back(Event::inv(op));
    for (const auto& [op, y] : lvl.ress) out.push_back(Event::res(op, y));
  }
  return out;
}

namespace {

// Whether two chains hold the same levels: walks them down together until
// they share a node (or both end).
bool same_levels(const Level* a, const Level* b) {
  for (; a != b; a = a->below, b = b->below) {
    if (a == nullptr || b == nullptr || a->key != b->key ||
        a->invs != b->invs || a->ress != b->ress) {
      return false;
    }
  }
  return true;
}

}  // namespace

LeveledChecker::LeveledChecker(const GenLinObject& obj,
                               size_t checkpoint_stride)
    : obj_(&obj), stride_(checkpoint_stride == 0 ? 1 : checkpoint_stride) {}

LeveledChecker::~LeveledChecker() = default;

engine::EngineStats LeveledChecker::stats() const {
  return cur_ != nullptr ? cur_->stats() : engine::EngineStats{};
}

void LeveledChecker::set_obs(const obs::LeveledHooks* hooks) {
  obs_ = hooks;
  if (cur_ != nullptr) {
    cur_->attach_obs(hooks != nullptr ? hooks->engine : nullptr);
  }
}

std::unique_ptr<MembershipMonitor> LeveledChecker::fresh_monitor() const {
  std::unique_ptr<MembershipMonitor> m = obj_->monitor();
  if (obs_ != nullptr) m->attach_obs(obs_->engine);
  return m;
}

void LeveledChecker::ensure_monitor() {
  if (cur_ == nullptr) {
    cur_ = fresh_monitor();
    fed_ = 0;
  }
}

void LeveledChecker::append_batch(const XBuilder& builder) {
  // Monitors are sticky-false, so feeding past a failed level is harmless;
  // GenLin objects are prefix-closed, hence a failing prefix settles the
  // verdict anyway.  Each stride segment goes to the monitor as one batch,
  // so the frontier engine runs its closure once per segment's response
  // runs instead of once per response; segments end where the next
  // checkpoint is due, keeping the checkpoint policy level-exact.
  ensure_monitor();
  pending_.clear();
  for (const Level* l = builder.top(); l != nullptr && l->depth > fed_;
       l = l->below) {
    pending_.push_back(l);
  }
  while (!pending_.empty()) {
    const size_t due = last_checkpoint_level() + stride_;
    batch_.clear();
    const Level* lvl = nullptr;
    while (!pending_.empty() && fed_ < due) {
      lvl = pending_.back();
      pending_.pop_back();
      for (const OpDesc& op : lvl->invs) batch_.push_back(Event::inv(op));
      for (const auto& [op, y] : lvl->ress) {
        batch_.push_back(Event::res(op, y));
      }
      ++fed_;
    }
    cur_->feed_batch(batch_);
    if (fed_ == due) take_checkpoint(lvl);
  }
}

void LeveledChecker::take_checkpoint(const Level* at) {
  std::unique_ptr<MembershipMonitor> m;
  if (!spares_.empty()) {
    m = std::move(spares_.back());
    spares_.pop_back();
  }
  if (m == nullptr || !m->assign_from(*cur_)) m = cur_->clone();
  checkpoints_.push_back({fed_, at, std::move(m)});
}

void LeveledChecker::release(std::unique_ptr<MembershipMonitor> monitor) {
  if (spares_.size() < kMaxSpares) spares_.push_back(std::move(monitor));
}

void LeveledChecker::truncate_checkpoints(size_t level) {
  while (!checkpoints_.empty() && checkpoints_.back().level > level) {
    release(std::move(checkpoints_.back().monitor));
    checkpoints_.pop_back();
  }
}

void LeveledChecker::restore(const MembershipMonitor* src, const Level* at) {
  std::unique_ptr<MembershipMonitor> initial;
  if (src == nullptr) {
    initial = fresh_monitor();
    src = initial.get();
  }
  if (!cur_->assign_from(*src)) {
    cur_ = initial != nullptr ? std::move(initial) : src->clone();
  }
  fed_ = at == nullptr ? 0 : at->depth;
}

void LeveledChecker::rollback(size_t from_level) {
  ++rollbacks_;
  const size_t fed_before = fed_;
  // Release the stale checkpoints eagerly, before the restore — a rollback
  // must not leave monitors above the truncation point alive until some
  // later feed happens to overwrite them; the replay's checkpoints reuse
  // the ones kept as spares.
  truncate_checkpoints(from_level);
  if (checkpoints_.empty()) {
    restore(nullptr, nullptr);
  } else {
    restore(checkpoints_.back().monitor.get(), checkpoints_.back().at);
  }
  if (obs_ != nullptr) {
    const size_t replay = fed_before - fed_;
    if (obs_->rollback_depth != nullptr) obs_->rollback_depth->record(replay);
    if (obs_->trace != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::SpanKind::kRollback;
      ev.session = obs_->session;
      ev.start_ns = obs::now_ns();
      ev.p0 = from_level;
      ev.p1 = replay;
      ev.p2 = checkpoints_.size();
      obs_->trace->record(ev);
    }
  }
}

void LeveledChecker::adopt(const MembershipMonitor& state, const Level* top) {
  ensure_monitor();
  // A level determines the chain below it, so a checkpoint still describes
  // a prefix of `top`'s chain when the level it fed last is on it.  Two
  // checkers that each merged the same straggler hold copies of the levels
  // above it, so the lowest checkpoint, the settled one, also stays when
  // the chain holds the same levels as its own, and moves onto the chain.
  const Level* on = top;
  while (!checkpoints_.empty()) {
    Checkpoint& c = checkpoints_.back();
    while (on != nullptr && on->depth > c.level) on = on->below;
    if (on == c.at) break;
    if (checkpoints_.size() == 1 && same_levels(on, c.at)) {
      c.at = on;
      break;
    }
    release(std::move(c.monitor));
    checkpoints_.pop_back();
  }
  restore(&state, top);
  ok_ = cur_->ok();
  ++tip_adoptions_;
  // A level reached by adoption gets a checkpoint within a stride below it,
  // as a fed one does, so a later miss never replays from further down than
  // the jump it skipped.
  if (fed_ >= last_checkpoint_level() + stride_) take_checkpoint(top);
}

void LeveledChecker::settle(uint64_t bound) {
  // Keys ascend along the chain, so the checkpoints whose last fed level
  // has a key below the bound are a prefix; all of it but its last goes,
  // so the last checkpoint, which append_batch counts its stride from,
  // always stays.
  // A rollback restores the highest checkpoint at or below the lowest
  // dirty level, and a record with a view of at least `bound` dirties no
  // level whose key is below it, so none restores a released checkpoint.
  const auto kept = std::partition_point(
      checkpoints_.begin(), checkpoints_.end(),
      [bound](const Checkpoint& c) { return c.at->key < bound; });
  if (kept == checkpoints_.begin()) return;
  const auto settled = std::prev(kept);
  for (auto c = checkpoints_.begin(); c != settled; ++c) {
    release(std::move(c->monitor));
  }
  checkpoints_.erase(checkpoints_.begin(), settled);
}

bool LeveledChecker::resync(const XBuilder& builder, size_t from_level) {
  const size_t dirty[1] = {from_level};
  return resync(builder, std::span<const size_t>(dirty, 1));
}

bool LeveledChecker::resync(const XBuilder& builder,
                            std::span<const size_t> dirty_levels) {
  const uint64_t t0 = obs_ != nullptr ? obs::now_ns() : 0;
  const uint64_t replayed_before = replayed_levels_;
  ensure_monitor();
  size_t dirty = builder.depth();
  for (size_t d : dirty_levels) dirty = std::min(dirty, d);
  const size_t from = std::min(fed_, dirty);
  if (dirty_levels.size() > 1) {
    peak_storm_records_ = std::max(peak_storm_records_, dirty_levels.size());
  }
  const size_t old_fed = fed_;
  if (from < fed_) rollback(from);
  // Replayed = previously fed levels re-fed below the old frontier; the
  // merge's brand-new levels would have been fed either way.
  if (fed_ < old_fed) {
    replayed_levels_ += std::min(old_fed, builder.depth()) - fed_;
  }
  append_batch(builder);
  ok_ = cur_->ok();
  if (obs_ != nullptr) {
    const uint64_t dur = obs::now_ns() - t0;
    if (obs_->resync_ns != nullptr) obs_->resync_ns->record(dur);
    if (obs_->trace != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::SpanKind::kResync;
      ev.session = obs_->session;
      ev.start_ns = t0;
      ev.dur_ns = dur;
      ev.p0 = dirty_levels.size();
      ev.p1 = from;
      ev.p2 = replayed_levels_ - replayed_before;
      ev.p3 = fed_;
      obs_->trace->record(ev);
    }
  }
  return ok_;
}

}  // namespace selin
