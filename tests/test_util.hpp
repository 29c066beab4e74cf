// Shared helpers for the selin test-suite: a small history-building DSL and
// seeded random-history generators used by the property tests.
#pragma once

#include <atomic>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "selin/selin.hpp"

namespace selin::test {

/// Round multiplier of the fuzz tests: SELIN_FUZZ_ROUNDS (default 1), so
/// plain ctest is a fast smoke and the CI fuzz legs raise it.
inline size_t fuzz_rounds() {
  if (const char* s = std::getenv("SELIN_FUZZ_ROUNDS")) {
    long v = std::atol(s);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 1;
}

/// Builds OpDescs with automatic per-process sequence numbers.
class OpFactory {
 public:
  OpDesc op(ProcId p, Method m, Value arg = kNoArg) {
    if (p >= next_.size()) next_.resize(p + 1, 0);
    return OpDesc{OpId{p, next_[p]++}, m, arg};
  }

 private:
  std::vector<uint32_t> next_;
};

/// A complete operation as one inv+res pair appended to `h` (sequential
/// convenience for spec-level tests).
inline void seq_op(History& h, OpFactory& f, ProcId p, Method m, Value arg,
                   Value res) {
  OpDesc d = f.op(p, m, arg);
  h.push_back(Event::inv(d));
  h.push_back(Event::res(d, res));
}

/// Generates a random *linearizable* history of `ops` complete operations on
/// `n` processes: operations are invoked, linearized (applying the spec at
/// the linearization point) and responded at independently random times, so
/// the histories have rich overlap structure but are linearizable by
/// construction.
inline History random_linearizable_history(ObjectKind kind, size_t n,
                                           size_t ops, uint64_t seed) {
  Rng rng(seed);
  auto spec = make_spec(kind);
  auto state = spec->initial();
  History h;
  struct Pending {
    OpDesc op;
    bool linearized = false;
    Value result = kNoArg;
  };
  std::vector<std::vector<Pending>> pend(n);  // at most 1 per proc
  std::vector<uint32_t> seq(n, 0);
  size_t invoked = 0;

  auto idle_procs = [&] {
    std::vector<ProcId> v;
    for (ProcId p = 0; p < n; ++p) {
      if (pend[p].empty() && invoked < ops) v.push_back(p);
    }
    return v;
  };

  while (true) {
    std::vector<ProcId> idle = idle_procs();
    std::vector<ProcId> lin, resp;
    for (ProcId p = 0; p < n; ++p) {
      if (!pend[p].empty()) {
        if (!pend[p][0].linearized) lin.push_back(p);
        else resp.push_back(p);
      }
    }
    if (idle.empty() && lin.empty() && resp.empty()) break;
    // Linearize/respond actions are weighted 2x: unbounded overlap windows
    // make membership checking exponential (it is NP-hard), and real
    // wait-free executions complete operations promptly.
    uint64_t total = idle.size() + 2 * (lin.size() + resp.size());
    uint64_t pick = rng.below(total);
    if (pick >= idle.size()) {
      pick = idle.size() + (pick - idle.size()) / 2;
    }
    if (pick < idle.size()) {
      ProcId p = idle[pick];
      auto [m, arg] = random_op(kind, rng);
      OpDesc d{OpId{p, seq[p]++}, m, arg};
      pend[p].push_back(Pending{d});
      h.push_back(Event::inv(d));
      ++invoked;
    } else if (pick < idle.size() + lin.size()) {
      ProcId p = lin[pick - idle.size()];
      Pending& pd = pend[p][0];
      pd.result = state->step(pd.op.method, pd.op.arg);
      pd.linearized = true;
    } else {
      ProcId p = resp[pick - idle.size() - lin.size()];
      Pending pd = pend[p][0];
      pend[p].clear();
      h.push_back(Event::res(pd.op, pd.result));
    }
  }
  return h;
}

/// Random exchanger histories: overlapping windows of exchange ops whose
/// responses are either kEmpty or a concurrently open op's argument.  Both
/// verdicts occur; the sequential set-lin monitor is the ground truth.
inline History random_exchanger_history(size_t n, size_t ops, uint64_t seed) {
  Rng rng(seed);
  OpFactory f;
  History h;
  struct Open {
    OpDesc op;
  };
  std::vector<std::optional<Open>> open(n);
  size_t invoked = 0;
  for (;;) {
    bool any_open = false;
    for (const auto& o : open) any_open |= o.has_value();
    if (invoked >= ops && !any_open) break;
    ProcId p = static_cast<ProcId>(rng.below(n));
    if (!open[p].has_value()) {
      if (invoked >= ops) continue;
      Value arg = static_cast<Value>(rng.range(1, 50));
      OpDesc d = f.op(p, Method::kExchange, arg);
      h.push_back(Event::inv(d));
      open[p] = Open{d};
      ++invoked;
    } else if (rng.chance(1, 2)) {
      // Respond: empty-handed, or claim some other open op's value.
      Value res = kEmpty;
      std::vector<Value> partners;
      for (size_t q = 0; q < n; ++q) {
        if (q != p && open[q].has_value()) {
          partners.push_back(open[q]->op.arg);
        }
      }
      if (!partners.empty() && rng.chance(2, 3)) {
        res = partners[rng.below(partners.size())];
      }
      h.push_back(Event::res(open[p]->op, res));
      open[p].reset();
    }
  }
  return h;
}

/// Random write-snapshot histories; valid ones are generated by simulating
/// the interval machine (masks grow, self bit present), invalid ones corrupt
/// a mask.  The sequential interval monitor is the ground truth either way.
inline History random_write_snapshot_history(size_t n, uint64_t seed,
                                             bool corrupt) {
  Rng rng(seed);
  History h;
  std::vector<uint32_t> seq(n, 0);
  std::vector<std::optional<OpDesc>> open(n);
  uint64_t entered = 0;
  size_t invoked = 0, responded = 0;
  while (responded < n) {
    ProcId p = static_cast<ProcId>(rng.below(n));
    if (!open[p].has_value() && invoked < n && seq[p] == 0) {
      OpDesc d{OpId{p, seq[p]++}, Method::kWriteSnap, kNoArg};
      h.push_back(Event::inv(d));
      open[p] = d;
      ++invoked;
    } else if (open[p].has_value() && rng.chance(1, 2)) {
      entered |= 1ULL << p;  // machine-invoke at the latest possible moment
      Value mask = static_cast<Value>(entered);
      h.push_back(Event::res(*open[p], mask));
      open[p].reset();
      ++responded;
    }
  }
  if (corrupt) {
    // Drop the self-inclusion bit of one response: never valid.
    for (Event& e : h) {
      if (e.is_res()) {
        e.result &= ~(1LL << e.op.id.pid);
        break;
      }
    }
  }
  return h;
}

/// Corrupts one random response value of `h` (returns false if there is no
/// response to corrupt).  The result is usually non-linearizable — tests
/// must still consult an oracle for the expected verdict.
inline bool corrupt_response(History& h, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> res_idx;
  for (size_t i = 0; i < h.size(); ++i) {
    if (h[i].is_res()) res_idx.push_back(i);
  }
  if (res_idx.empty()) return false;
  size_t i = res_idx[rng.below(res_idx.size())];
  Value& v = h[i].result;
  v = (v == kEmpty) ? 777 : (v == kTrue ? kEmpty : v + 13);
  return true;
}

/// A bounded concurrency window for real-thread stress tests.  Threads run
/// in lockstep rounds, and each round as groups of up to three threads, one
/// group after another: a thread calls enter(p, i) before its operation i
/// and leave(p, i) after it, and enter waits until every thread has left
/// round i - 1 and every thread of an earlier group has left round i.  The
/// threads of a group race.  Membership rotates by one position each round,
/// so with four threads a different one runs alone after the other three
/// each round, and every pair of threads races in half of the rounds; a
/// thread preempted mid-operation overlaps at most two other operations.
///
/// Free-running under host load, one pending enqueue can overlap hundreds of
/// operations, and the offline checker's queue and stack frontiers overflow
/// their budget.  Ambiguity still compounds across rounds, because the order
/// of concurrent enqueues stays open until their values are dequeued.  With
/// every group fully overlapped and its results drawn from a random order
/// (100 trials per script), the impls_test and universal_test queue and
/// stack scripts overflow the 2^18 budget in up to 46% of trials in groups
/// of 4, and peak at 1,728 configurations in rotating groups of 3.
class RoundGate {
 public:
  explicit RoundGate(size_t procs) : left_(procs) {}

  void enter(ProcId p, uint32_t round) const {
    for (size_t q = 0; q < left_.size(); ++q) {
      const uint32_t need =
          group(q, round) < group(p, round) ? round + 1 : round;
      while (left_[q].load(std::memory_order_acquire) < need) {
        std::this_thread::yield();
      }
    }
  }

  void leave(ProcId p, uint32_t round) {
    left_[p].store(round + 1, std::memory_order_release);
  }

 private:
  static constexpr size_t kWidth = 3;

  size_t group(size_t p, uint32_t round) const {
    const size_t n = left_.size();
    return (p + n - round % n) % n / kWidth;
  }

  std::vector<std::atomic<uint32_t>> left_;  // rounds each process has left
};

/// GenLinObject wrapper whose monitors count live instances, so tests can
/// observe how many monitors (live frontiers, checkpoints, shared tips) a
/// checker keeps alive, and at its peak.  Feeds and restores forward to the
/// wrapped monitor, so a restore through assign_from allocates nothing, as
/// with the real monitors.
class CountingMonitor final : public MembershipMonitor {
 public:
  CountingMonitor(std::unique_ptr<MembershipMonitor> inner,
                  std::shared_ptr<std::atomic<int>> live,
                  std::shared_ptr<std::atomic<int>> peak)
      : inner_(std::move(inner)), live_(std::move(live)),
        peak_(std::move(peak)) {
    int now = live_->fetch_add(1) + 1;
    int prev = peak_->load();
    while (prev < now && !peak_->compare_exchange_weak(prev, now)) {
    }
  }
  ~CountingMonitor() override { live_->fetch_sub(1); }

  void feed(const Event& e) override { inner_->feed(e); }
  void feed_batch(std::span<const Event> events) override {
    inner_->feed_batch(events);
  }
  bool ok() const override { return inner_->ok(); }
  std::unique_ptr<MembershipMonitor> clone() const override {
    return std::make_unique<CountingMonitor>(inner_->clone(), live_, peak_);
  }
  bool assign_from(const MembershipMonitor& src) override {
    const auto* o = dynamic_cast<const CountingMonitor*>(&src);
    return o != nullptr && inner_->assign_from(*o->inner_);
  }

 private:
  std::unique_ptr<MembershipMonitor> inner_;
  std::shared_ptr<std::atomic<int>> live_;
  std::shared_ptr<std::atomic<int>> peak_;
};

class CountingObject final : public GenLinObject {
 public:
  explicit CountingObject(std::unique_ptr<GenLinObject> base)
      : base_(std::move(base)),
        live_(std::make_shared<std::atomic<int>>(0)),
        peak_(std::make_shared<std::atomic<int>>(0)) {}

  const char* name() const override { return base_->name(); }
  std::unique_ptr<MembershipMonitor> monitor() const override {
    return std::make_unique<CountingMonitor>(base_->monitor(), live_, peak_);
  }
  std::unique_ptr<MembershipMonitor> monitor(size_t threads) const override {
    return std::make_unique<CountingMonitor>(base_->monitor(threads), live_,
                                             peak_);
  }

  int live() const { return live_->load(); }
  int peak() const { return peak_->load(); }
  void reset_peak() { peak_->store(live_->load()); }

 private:
  std::unique_ptr<GenLinObject> base_;
  std::shared_ptr<std::atomic<int>> live_;
  std::shared_ptr<std::atomic<int>> peak_;
};

/// λ-records of a seeded single-threaded A* run over an MS queue, in the
/// order a process would publish them: `procs` slots and up to `max_open`
/// operations between announce and publish at a time.  An operation that
/// starts while another is open is a dequeue, as in the enforced_queue
/// benchmark: overlapping mutators overflow the checker's budget.  Each
/// operation takes four steps (announce, invoke, complete, publish), so a
/// record completed early can be published after later ones and land in
/// the middle of the levels.  Owns the A* whose announcement chains the
/// views point into.
struct SteppedQueueRun {
  std::unique_ptr<IConcurrent> impl;
  std::unique_ptr<AStar> astar;
  std::vector<LambdaRecord> records;
};

inline SteppedQueueRun stepped_queue_run(size_t procs, size_t ops,
                                         size_t max_open, uint64_t seed) {
  SteppedQueueRun run;
  run.impl = make_ms_queue();
  run.astar = std::make_unique<AStar>(procs, *run.impl);
  SteppedAStar step(*run.astar);
  Rng rng(seed);
  struct Open {
    ProcId p;
    int stage;  // steps done after announce: 0, invoke 1, complete 2
    AStar::Result r;
  };
  std::vector<Open> open;
  std::vector<char> busy(procs, 0);
  size_t started = 0;
  while (started < ops || !open.empty()) {
    if (started < ops && open.size() < max_open &&
        (open.empty() || rng.chance(1, 2))) {
      auto p = static_cast<ProcId>(rng.below(procs));
      while (busy[p]) p = static_cast<ProcId>((p + 1) % procs);
      std::pair<Method, Value> op{Method::kDequeue, kNoArg};
      if (open.empty()) op = random_op(ObjectKind::kQueue, rng);
      step.announce(p, op.first, op.second);
      busy[p] = 1;
      ++started;
      open.push_back({p, 0, {}});
      continue;
    }
    const size_t k = rng.below(open.size());
    Open& o = open[k];
    if (o.stage == 0) {
      step.invoke(o.p);
    } else if (o.stage == 1) {
      o.r = step.complete(o.p);
    } else {
      run.records.push_back({o.r.op, o.r.y, std::move(o.r.view)});
      busy[o.p] = 0;
      open.erase(open.begin() + static_cast<long>(k));
      continue;
    }
    ++o.stage;
  }
  return run;
}

}  // namespace selin::test
