#include "selin/views/leveled_history.hpp"

#include <algorithm>
#include <stdexcept>

#include "selin/obs/hooks.hpp"
#include "selin/util/hash.hpp"

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

namespace {

// Seeds the prefix digest chain (digests_[0], the empty prefix).
constexpr uint64_t kPrefixTag = 0x1E7E1ED0D16E5700ull;

// The words a level contributes to its prefix digest: its key, then each
// invocation (id, method, arg) and each response (id, method, arg, value),
// each list preceded by its length.
template <typename Fn>
void level_words(const Level& lvl, Fn&& word) {
  word(lvl.key);
  word(lvl.invs.size());
  for (const OpDesc& op : lvl.invs) {
    word(op.id.packed());
    word(static_cast<uint64_t>(op.method));
    word(static_cast<uint64_t>(op.arg));
  }
  word(lvl.ress.size());
  for (const auto& [op, y] : lvl.ress) {
    word(op.id.packed());
    word(static_cast<uint64_t>(op.method));
    word(static_cast<uint64_t>(op.arg));
    word(static_cast<uint64_t>(y));
  }
}

}  // namespace

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

void LeveledChecker::share_tips(std::span<TipSlot> slots, size_t self) {
  slots_ = slots;
  self_ = self;
}

std::unique_ptr<MembershipMonitor> LeveledChecker::fresh_monitor() const {
  std::unique_ptr<MembershipMonitor> m = obj_->monitor(threads_);
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
  const auto& levels = builder.levels();
  ensure_monitor();
  while (fed_ < levels.size()) {
    const size_t due = last_checkpoint_level() + stride_;
    const size_t until = std::min(levels.size(), due);
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
    if (fed_ == due) checkpoints_.push_back({fed_, cur_->clone()});
  }
}

void LeveledChecker::truncate_checkpoints(size_t level) {
  while (!checkpoints_.empty() && checkpoints_.back().level > level) {
    checkpoints_.pop_back();
  }
}

void LeveledChecker::restore(const MembershipMonitor* src, size_t level) {
  std::unique_ptr<MembershipMonitor> initial;
  if (src == nullptr) {
    initial = fresh_monitor();
    src = initial.get();
  }
  if (!cur_->assign_from(*src)) {
    cur_ = initial != nullptr ? std::move(initial) : src->clone();
  }
  fed_ = level;
}

void LeveledChecker::rollback(size_t from_level) {
  ++rollbacks_;
  const size_t fed_before = fed_;
  // Release the stale checkpoints eagerly, before the restore — a rollback
  // must not leave monitors above the truncation point alive until some
  // later feed happens to overwrite them.
  truncate_checkpoints(from_level);
  if (checkpoints_.empty()) {
    restore(nullptr, 0);
  } else {
    restore(checkpoints_.back().monitor.get(), checkpoints_.back().level);
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

void LeveledChecker::refresh_digests(const XBuilder& builder, size_t dirty) {
  const auto& levels = builder.levels();
  if (digests_.empty()) digests_.push_back(fph::Hasher(kPrefixTag).done());
  // digests_[0..k] describe prefixes below every dirty level: still valid.
  size_t k = std::min(dirty, digests_.size() - 1);
  digests_.resize(levels.size() + 1);
#if SELIN_FP_AUDIT
  audit_ends_.resize(levels.size() + 1);  // audit_ends_[0] stays 0
  audit_words_.resize(audit_ends_[k]);
#endif
  for (; k < levels.size(); ++k) {
    fph::Hasher h(kPrefixTag);
    h.u64(digests_[k]);
    level_words(levels[k], [&](uint64_t w) {
      h.u64(w);
#if SELIN_FP_AUDIT
      audit_words_.push_back(w);
#endif
    });
    digests_[k + 1] = h.done();
#if SELIN_FP_AUDIT
    audit_ends_[k + 1] = audit_words_.size();
#endif
  }
}

bool LeveledChecker::adopt_tip(size_t resume, size_t levels) {
  // Hazard protocol: name a tip in a hazard pointer, then re-read the slot;
  // if the slot still holds it, its owner cannot recycle it until the
  // hazard is cleared.  A slot that changed in between is skipped, never
  // retried.  hazard[best_h] guards the best tip so far, the other probes.
  std::atomic<const Tip*>* hazard = slots_[self_].hazard;
  const Tip* best = nullptr;
  int best_h = 1;
  for (size_t j = 0; j < slots_.size(); ++j) {
    if (j == self_) continue;
    const Tip* t = slots_[j].tip.load();
    if (t == nullptr) continue;
    const int h = 1 - best_h;
    hazard[h].store(t);
    if (slots_[j].tip.load() != t) continue;
    const size_t k = t->levels;
    if (k <= resume || k > levels || (best != nullptr && k <= best->levels)) {
      continue;
    }
    if (t->digest != digests_[k]) {
      ++tips_rejected_;
      continue;
    }
    best = t;
    best_h = h;
  }
  hazard[1 - best_h].store(nullptr);
  if (best == nullptr) return false;
#if SELIN_FP_AUDIT
  if (!std::equal(best->audit_words.begin(), best->audit_words.end(),
                  audit_words_.begin(),
                  audit_words_.begin() +
                      static_cast<long>(audit_ends_[best->levels]))) {
    hazard[best_h].store(nullptr);
    throw std::runtime_error(
        "selin: fingerprint collision detected (level prefix digest)");
  }
#endif
  restore(best->monitor.get(), best->levels);
  hazard[best_h].store(nullptr);
  ++tip_adoptions_;
  // A level reached by adoption gets a checkpoint within a stride below it,
  // as a fed one does, so a later miss never replays from further down than
  // the jump it skipped.
  if (fed_ >= last_checkpoint_level() + stride_) {
    checkpoints_.push_back({fed_, cur_->clone()});
  }
  return true;
}

std::unique_ptr<Tip> LeveledChecker::reusable_tip() {
  if (retired_.empty()) return nullptr;
  hazards_.clear();
  for (const TipSlot& s : slots_) {
    for (const auto& h : s.hazard) {
      if (const Tip* t = h.load(); t != nullptr) hazards_.push_back(t);
    }
  }
  // At most 2 * slots hazards exist, so more retired tips than that always
  // leave one free: the retired list stays O(slots) long.
  for (auto it = retired_.begin(); it != retired_.end(); ++it) {
    if (std::find(hazards_.begin(), hazards_.end(), it->get()) ==
        hazards_.end()) {
      std::unique_ptr<Tip> t = std::move(*it);
      retired_.erase(it);
      return t;
    }
  }
  return nullptr;
}

void LeveledChecker::publish_tip() {
  std::unique_ptr<Tip> t = reusable_tip();
  if (t == nullptr) t = std::make_unique<Tip>();
  if (t->monitor == nullptr || !t->monitor->assign_from(*cur_)) {
    t->monitor = cur_->clone();
  }
  t->levels = fed_;
  t->digest = digests_[fed_];
#if SELIN_FP_AUDIT
  t->audit_words.assign(
      audit_words_.begin(),
      audit_words_.begin() + static_cast<long>(audit_ends_[fed_]));
#endif
  slots_[self_].tip.store(t.get());
  if (published_ != nullptr) retired_.push_back(std::move(published_));
  published_ = std::move(t);
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
  size_t dirty = levels.size();
  for (size_t d : dirty_levels) dirty = std::min(dirty, d);
  const size_t from = std::min(fed_, dirty);
  if (dirty_levels.size() > 1) {
    peak_storm_records_ = std::max(peak_storm_records_, dirty_levels.size());
  }
  const size_t old_fed = fed_;
  bool adopted = false;
  if (!slots_.empty()) {
    refresh_digests(builder, dirty);
    // Checkpoints above `from` describe changed levels.  Without a tip,
    // this checker resumes from the live monitor when nothing below it
    // changed, else from the nearest checkpoint at or below `from`.
    truncate_checkpoints(from);
    adopted = adopt_tip(from < fed_ ? last_checkpoint_level() : fed_,
                        levels.size());
  }
  if (!adopted && from < fed_) rollback(from);
  // Replayed = previously fed levels re-fed below the old frontier; the
  // merge's brand-new levels would have been fed either way.
  if (fed_ < old_fed) {
    replayed_levels_ += std::min(old_fed, levels.size()) - fed_;
  }
  append_batch(builder);
  ok_ = cur_->ok();
  // Reached only when the feed did not overflow, so an overflowed state is
  // never shared.
  if (!slots_.empty()) publish_tip();
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
