#include "selin/lincheck/checker.hpp"

#include "selin/engine/frontier_engine.hpp"
#include "selin/engine/policies.hpp"
#include "selin/lincheck/config.hpp"

namespace selin {

using lincheck::Config;
using lincheck::DedupEngine;

// ---------------------------------------------------------------------------
// LinMonitor — a facade over the generic frontier engine with the
// linearizability policy (engine/policies.hpp).
// ---------------------------------------------------------------------------

struct LinMonitor::Impl {
  engine::FrontierEngine<engine::LinPolicy> eng;

  Impl(const SeqSpec& s, size_t cap) : eng(engine::LinPolicy{&s}, cap) {}
};

LinMonitor::LinMonitor(const SeqSpec& spec, size_t max_configs)
    : impl_(std::make_unique<Impl>(spec, max_configs)) {}

LinMonitor::LinMonitor(const LinMonitor& other)
    : impl_(std::make_unique<Impl>(*other.impl_)) {}

LinMonitor::~LinMonitor() = default;

void LinMonitor::feed(const Event& e) { impl_->eng.feed(e); }
void LinMonitor::feed_batch(std::span<const Event> events) {
  impl_->eng.feed_batch(events);
}
bool LinMonitor::ok() const { return impl_->eng.ok(); }
void LinMonitor::attach_obs(const obs::EngineHooks* hooks) {
  impl_->eng.set_obs(hooks);
}
bool LinMonitor::overflowed() const { return impl_->eng.overflowed(); }
size_t LinMonitor::frontier_size() const { return impl_->eng.frontier_size(); }
engine::EngineStats LinMonitor::stats() const { return impl_->eng.stats(); }
uint64_t LinMonitor::frontier_digest() const {
  return impl_->eng.frontier_digest();
}
engine::FrontierFootprint LinMonitor::footprint() const {
  return impl_->eng.footprint();
}

std::unique_ptr<MembershipMonitor> LinMonitor::clone() const {
  return std::make_unique<LinMonitor>(*this);
}

bool LinMonitor::assign_from(const MembershipMonitor& src) {
  const auto* o = dynamic_cast<const LinMonitor*>(&src);
  if (o == nullptr) return false;
  impl_->eng.assign_from(o->impl_->eng);
  return true;
}

bool LinMonitor::swap_state(MembershipMonitor& other) {
  auto* o = dynamic_cast<LinMonitor*>(&other);
  if (o == nullptr) return false;
  impl_->eng.swap_state(o->impl_->eng);
  return true;
}

bool linearizable(const SeqSpec& spec, const History& h, size_t max_configs) {
  LinMonitor m(spec, max_configs);
  for (const Event& e : h) {
    m.feed(e);
    if (!m.ok()) return false;
  }
  return m.ok();
}

// ---------------------------------------------------------------------------
// find_linearization: memoized DFS recording the linearization order.
//
// The search runs on an explicit frame stack — its depth is the history
// length plus the number of linearized operations, which for deep histories
// (hundreds of thousands of events) overflows the native stack long before
// max_visited trips.
// ---------------------------------------------------------------------------

namespace {

struct DfsCtx {
  const History* h;
  DedupEngine eng;
  FpSet failed{eng.arena};  // memo of dead (event index, config) states
  size_t max_visited;
  size_t visited = 0;

  // The linearization order: (op, result assigned by the machine).
  std::vector<std::pair<OpDesc, Value>> order;

  // One node of the search tree.  kInv/kResMatched frames have exactly one
  // child (advance past the event); kLinCandidates frames try linearizing
  // each eligible open op (preferring e.op, which prunes fastest when it
  // matches immediately) against the *same* event.
  struct Frame {
    enum Kind : uint8_t { kInv, kResMatched, kLinCandidates };
    size_t idx;
    Config c;
    std::vector<OpDesc> open;
    uint64_t memo_key = 0;
    size_t order_mark = 0;  // order.size() to restore when this frame fails
    Kind kind = kInv;
    bool entered = false;  // children enumerated?
    std::vector<size_t> cand;  // open indices still to try (kLinCandidates)
    size_t next_cand = 0;
  };

  uint64_t memo_fp(size_t idx, const Config& c) {
    uint64_t fp = fph::mix(c.fingerprint() ^ fph::mix(idx));
    eng.audit(fp, [&] { return std::to_string(idx) + "#" + c.key(); });
    return fp;
  }

  bool search(Config root) {
    std::vector<Frame> stack;
    {
      Frame f;
      f.idx = 0;
      f.c = std::move(root);
      stack.push_back(std::move(f));
    }

    auto pop_failed = [&] {
      Frame& f = stack.back();
      failed.insert(f.memo_key);
      order.resize(f.order_mark);
      eng.pool.release(std::move(f.c.state));
      stack.pop_back();
    };

    while (!stack.empty()) {
      Frame& f = stack.back();
      if (!f.entered) {
        f.entered = true;
        if (++visited > max_visited) throw CheckerOverflow{};
        if (f.idx == h->size()) return true;
        f.memo_key = memo_fp(f.idx, f.c);
        if (failed.contains(f.memo_key)) {
          order.resize(f.order_mark);
          eng.pool.release(std::move(f.c.state));
          stack.pop_back();
          continue;
        }
        const Event& e = (*h)[f.idx];
        if (e.is_inv()) {
          // Single child; a failed child fails this frame too, so the
          // config and open set move down instead of being cloned (the
          // parent pops with a released — null — state, which is fine).
          f.kind = Frame::kInv;
          Frame child;
          child.idx = f.idx + 1;
          child.c = std::move(f.c);
          child.open = std::move(f.open);
          child.open.push_back(e.op);
          child.order_mark = order.size();
          stack.push_back(std::move(child));
          continue;
        }
        const Value* assigned = f.c.find(e.op.id);
        if (assigned != nullptr) {
          if (*assigned != e.result) {
            pop_failed();
            continue;
          }
          // Single child as above: mutate the moved config in place.
          f.kind = Frame::kResMatched;
          Frame child;
          child.idx = f.idx + 1;
          child.c = std::move(f.c);
          child.c.remove(e.op.id);
          child.open = std::move(f.open);
          for (size_t i = 0; i < child.open.size(); ++i) {
            if (child.open[i].id == e.op.id) {
              child.open.erase(child.open.begin() +
                               static_cast<long>(i));  // keep order: the
              break;  // candidate preference below iterates open in order
            }
          }
          child.order_mark = order.size();
          stack.push_back(std::move(child));
          continue;
        }
        f.kind = Frame::kLinCandidates;
        f.cand.reserve(f.open.size());
        for (size_t i = 0; i < f.open.size(); ++i) {
          if (f.c.find(f.open[i].id) == nullptr) {
            if (f.open[i].id == e.op.id) f.cand.insert(f.cand.begin(), i);
            else f.cand.push_back(i);
          }
        }
        // fall through to the candidate loop below
      }

      // A child of this frame failed (or candidates are being enumerated).
      if (f.kind != Frame::kLinCandidates) {
        pop_failed();
        continue;
      }
      const Event& e = (*h)[f.idx];
      bool pushed = false;
      while (f.next_cand < f.cand.size()) {
        const OpDesc& op = f.open[f.cand[f.next_cand++]];
        Config next = f.c.clone_with(eng.pool);
        Value assigned = next.state->step(op.method, op.arg);
        if (op.id == e.op.id && assigned != e.result) {
          eng.pool.release(std::move(next.state));
          continue;
        }
        next.add(op.id, assigned);
        Frame child;
        child.idx = f.idx;  // same event, new machine state
        child.c = std::move(next);
        child.open = f.open;
        child.order_mark = order.size();
        order.emplace_back(op, assigned);
        stack.push_back(std::move(child));
        pushed = true;
        break;
      }
      if (!pushed) pop_failed();
    }
    return false;
  }
};

}  // namespace

std::optional<History> find_linearization(const SeqSpec& spec,
                                          const History& h,
                                          size_t max_visited) {
  DfsCtx ctx;
  ctx.h = &h;
  ctx.max_visited = max_visited;

  Config c;
  c.state = spec.initial();
  if (!ctx.search(std::move(c))) return std::nullopt;

  History s;
  s.reserve(ctx.order.size() * 2);
  for (const auto& [op, assigned] : ctx.order) {
    s.push_back(Event::inv(op));
    s.push_back(Event::res(op, assigned));
  }
  return s;
}

// ---------------------------------------------------------------------------
// Brute-force oracle (tests only).
// ---------------------------------------------------------------------------

namespace {

// Enumerate linearization orders of a subset of ops respecting real-time
// order and the spec; complete ops must be included with matching results,
// pending ops are optional with any spec result.
struct Brute {
  const SeqSpec* spec;
  std::vector<OpRecord> ops;
  const HistoryIndex* index;

  bool rec(SeqState& state, std::vector<bool>& used, size_t remaining_complete) {
    if (remaining_complete == 0) return true;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (used[i]) continue;
      // Real-time: an unused op j with res(j) < inv(i) must come first.
      bool blocked = false;
      for (size_t j = 0; j < ops.size(); ++j) {
        if (j == i || used[j]) continue;
        if (ops[j].complete() &&
            index->precedes(ops[j].op.id, ops[i].op.id)) {
          blocked = true;
          break;
        }
      }
      if (blocked) continue;
      auto next = state.clone();
      Value got = next->step(ops[i].op.method, ops[i].op.arg);
      if (ops[i].complete() && got != *ops[i].result) continue;
      used[i] = true;
      if (rec(*next, used,
              remaining_complete - (ops[i].complete() ? 1 : 0))) {
        return true;
      }
      used[i] = false;
    }
    return false;
  }
};

}  // namespace

bool linearizable_bruteforce(const SeqSpec& spec, const History& h) {
  HistoryIndex index(h);
  Brute b;
  b.spec = &spec;
  b.ops = index.ops();
  b.index = &index;
  auto state = spec.initial();
  std::vector<bool> used(b.ops.size(), false);
  return b.rec(*state, used, index.complete_count());
}

}  // namespace selin
