#include "selin/views/leveled_history.hpp"

#include <algorithm>

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

size_t XBuilder::add(const LambdaRecord* rec) {
  ++records_;
  uint64_t key = rec->view.size();
  auto pos = std::lower_bound(
      levels_.begin(), levels_.end(), key,
      [](const Level& l, uint64_t k) { return l.key < k; });
  size_t idx = static_cast<size_t>(pos - levels_.begin());

  if (pos != levels_.end() && pos->key == key) {
    // Existing level: insert the response, keeping OpId order.
    auto& ress = pos->ress;
    auto it = std::lower_bound(
        ress.begin(), ress.end(), rec->op.id,
        [](const std::pair<OpDesc, Value>& r, OpId id) {
          return r.first.id < id;
        });
    ress.insert(it, {rec->op, rec->y});
    return idx;
  }

  // New level at idx.
  const View* prev = idx == 0 ? nullptr : levels_[idx - 1].view;
  Level lvl;
  lvl.key = key;
  lvl.view = &rec->view;
  lvl.invs = delta(prev, rec->view);
  lvl.ress.push_back({rec->op, rec->y});
  // The old level at idx (if any) loses the invocations now claimed by the
  // inserted level: recompute its delta against the new predecessor.
  if (idx < levels_.size()) {
    levels_[idx].invs = delta(&rec->view, *levels_[idx].view);
  }
  levels_.insert(levels_.begin() + static_cast<long>(idx), std::move(lvl));
  return idx;
}

History XBuilder::flatten() const {
  History out;
  for (const Level& lvl : levels_) {
    for (const OpDesc& op : lvl.invs) out.push_back(Event::inv(op));
    for (const auto& [op, y] : lvl.ress) out.push_back(Event::res(op, y));
  }
  return out;
}

LeveledChecker::LeveledChecker(const GenLinObject& obj, const Options& opts)
    : obj_(&obj), stride_(opts.stride == 0 ? 1 : opts.stride),
      threads_(opts.threads) {}

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

void LeveledChecker::ensure_monitor() {
  if (cur_ == nullptr) {
    cur_ = obj_->monitor(threads_);
    if (obs_ != nullptr) cur_->attach_obs(obs_->engine);
    fed_ = 0;
  }
}

void LeveledChecker::append_batch(const XBuilder& builder) {
  // Monitors are sticky-false, so feeding past a failed level is harmless;
  // GenLin objects are prefix-closed, hence a failing prefix settles the
  // verdict anyway.  Each stride segment goes to the monitor as one batch,
  // so the frontier engine runs its closure once per segment's response
  // runs instead of once per response; segments never span a stride
  // boundary, keeping the checkpoint policy level-exact.
  const auto& levels = builder.levels();
  ensure_monitor();
  while (fed_ < levels.size()) {
    const size_t until =
        std::min(levels.size(), (fed_ / stride_ + 1) * stride_);
    batch_.clear();
    for (size_t i = fed_; i < until; ++i) {
      const Level& lvl = levels[i];
      for (const OpDesc& op : lvl.invs) batch_.push_back(Event::inv(op));
      for (const auto& [op, y] : lvl.ress) {
        batch_.push_back(Event::res(op, y));
      }
    }
    cur_->feed_batch(batch_);
    fed_ = until;
    if (fed_ % stride_ == 0) checkpoints_.push_back(cur_->clone());
  }
}

void LeveledChecker::rollback(size_t from_level) {
  ++rollbacks_;
  const size_t fed_before = fed_;
  // Checkpoints at or below from_level; in range because from_level < fed_
  // and checkpoints_.size() == fed_ / stride_.
  const size_t keep = from_level / stride_;
  if (keep == 0) {
    cur_ = obj_->monitor(threads_);
    if (obs_ != nullptr) cur_->attach_obs(obs_->engine);
    fed_ = 0;
  } else {
    cur_ = checkpoints_[keep - 1]->clone();
    fed_ = keep * stride_;
  }
  // Release the stale clones eagerly — a rollback must not leave monitors
  // above the truncation point alive until some later feed happens to
  // overwrite them.
  checkpoints_.resize(keep);
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
      ev.p2 = keep;
      obs_->trace->record(ev);
    }
  }
}

bool LeveledChecker::resync(const XBuilder& builder, size_t from_level) {
  const size_t dirty[1] = {from_level};
  return resync(builder, std::span<const size_t>(dirty, 1));
}

bool LeveledChecker::resync(const XBuilder& builder,
                            std::span<const size_t> dirty_levels) {
  const uint64_t t0 = obs_ != nullptr ? obs::now_ns() : 0;
  const uint64_t replayed_before = replayed_levels_;
  const auto& levels = builder.levels();
  ensure_monitor();
  size_t from = fed_;
  for (size_t d : dirty_levels) from = std::min(from, d);
  if (dirty_levels.size() > 1) {
    peak_storm_records_ = std::max(peak_storm_records_, dirty_levels.size());
  }
  if (from < fed_) {
    const size_t old_fed = fed_;
    rollback(from);
    // Replayed = previously fed levels re-fed below the old frontier; the
    // merge's brand-new levels would have been fed either way.
    replayed_levels_ += std::min(old_fed, levels.size()) - fed_;
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
