// The generic frontier engine behind all three membership checkers.
//
// The paper's membership test P_O is instantiated three times in this repo —
// linearizability, set-linearizability, interval-linearizability — and all
// three share the same skeleton: maintain the frontier of configurations
// consistent with the events fed so far; on every response event, expand the
// frontier to its closure under the semantics' linearization moves, then
// filter on the observed response value.  FrontierEngine<Policy> owns that
// skeleton once:
//
//   * the frontier (a plain vector + one DedupEngine),
//   * open-op bookkeeping, dedup, state recycling, cloning,
//   * the feed-boundary exception discipline (sticky overflowed(), every
//     in-flight state released, CheckerOverflow rethrown),
//   * execution stats (EngineStats).
//
// Each test runs sequentially on the calling thread, as each process's
// local test does in the paper (Section 3): the construction's concurrency
// comes from the n checking processes, not from inside one test.
//
// A Policy captures everything semantics-specific:
//
//   struct Policy {
//     using Config = ...;            // lincheck::Config or engine::IConfig
//     struct Scratch {};             // expansion scratch, reused per round
//     static constexpr bool kLazyExpand;  // which expansion hook it offers
//     std::unique_ptr<SeqState> initial_state() const;
//     template <typename GetCfg, typename Emit>
//     void expand(lincheck::StatePool& pool, Scratch& scratch,
//                 std::span<const OpDesc> open, GetCfg&& cfg,
//                 Emit&& emit) const;         // successors of one config
//         // (kLazyExpand == false); cfg() returns the configuration and
//         // MUST be re-fetched after every emit (the engine expands in
//         // place and emit may reallocate the closure vector).  Policies
//         // with kLazyExpand offer expand_lazy instead (see LinPolicy).
//     bool match(Config& c, const Event& res) const;  // response filter;
//         // true keeps (and mutates) the configuration, false drops it
//   };
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "selin/engine/stats.hpp"
#include "selin/lincheck/checker.hpp"
#include "selin/lincheck/config.hpp"
#include "selin/obs/hooks.hpp"

namespace selin::engine {

template <typename Policy>
class FrontierEngine {
 public:
  using Config = typename Policy::Config;

  FrontierEngine(Policy policy, size_t max_configs)
      : policy_(std::move(policy)), max_configs_(max_configs) {
    Config c;
    c.state = policy_.initial_state();
    frontier_.push_back(std::move(c));
  }

  FrontierEngine(const FrontierEngine& o)
      : policy_(o.policy_), max_configs_(o.max_configs_), ok_(o.ok_),
        overflowed_(o.overflowed_), obs_(o.obs_), open_(o.open_),
        base_stats_(o.stats()) {
    frontier_.reserve(o.frontier_.size());
    for (const Config& c : o.frontier_) frontier_.push_back(c.clone());
  }

  FrontierEngine& operator=(const FrontierEngine&) = delete;

  /// Overwrite the fed state (frontier, open ops, verdict) with a copy of
  /// `o`'s, built from this engine's state pool.  Counters, scratch
  /// capacity and the obs attachment stay this engine's own, so restoring a
  /// checkpoint does not erase the work done since the fork.  The facades
  /// forward MembershipMonitor::assign_from here.
  void assign_from(const FrontierEngine& o) {
    ok_ = o.ok_;
    overflowed_ = o.overflowed_;
    open_ = o.open_;
    for (Config& c : frontier_) eng_.pool.release(std::move(c.state));
    frontier_.clear();
    for (const Config& c : o.frontier_) {
      frontier_.push_back(c.clone_with(eng_.pool));
    }
  }

  void feed(const Event& e) { feed_batch({&e, 1}); }

  /// Batched feed: the per-event closure/dedup work is amortized across
  /// every *consecutive run of responses* in the batch.  One closure round
  /// services the whole run — the closure set is a fixpoint, and filtering
  /// a response only removes the op from surviving configurations, so the
  /// filtered set is already closed under the remaining open operations
  /// (the intermediate re-closure the per-event path performs adds nothing;
  /// see feed_res_run).  Verdicts and post-response frontier sizes are
  /// bit-identical to feeding the same events one at a time
  /// (tests/engine_parity_test.cpp asserts this per spec and chunking);
  /// only the stats differ: a run counts as one round, not one per
  /// response.
  void feed_batch(std::span<const Event> events) {
    size_t i = 0;
    while (i < events.size()) {
      if (!ok_ || overflowed_) return;
      if (events[i].is_inv()) {
        ++base_stats_.events_fed;
        open_.push_back(events[i].op);
        ++i;
        continue;
      }
      size_t j = i + 1;
      while (j < events.size() && events[j].is_res()) ++j;
      feed_res_run(events.subspan(i, j - i));
      i = j;
    }
  }

  bool ok() const { return ok_; }
  bool overflowed() const { return overflowed_; }

  /// Attach observability instruments (obs/hooks.hpp; nullptr detaches).
  /// The bundle (and everything it points at) must outlive the engine or a
  /// later set_obs(nullptr).  When detached — the default — the hot path
  /// pays exactly one pointer test per closure round; clones inherit the
  /// attachment, so replay monitors forked from an instrumented one report
  /// into the same instruments.
  void set_obs(const obs::EngineHooks* hooks) { obs_ = hooks; }

  size_t frontier_size() const { return frontier_.size(); }

  /// Counters of the engine: the round/peak/event counts plus the dedup
  /// engine's probe and recycling counts.
  EngineStats stats() const {
    EngineStats s = base_stats_;
    s.dedup_probes += eng_.probes;
    s.dedup_hits += eng_.hits;
    s.states_recycled += eng_.pool.recycled();
    s.probe_batches += eng_.batches;
    s.prefetch_batches += eng_.prefetch_batches;
    return s;
  }

  /// Order-independent digest of the live frontier: XOR of the mixed
  /// fingerprint of every configuration.  The fingerprints are
  /// representation-independent, so the digest is identical across op-set
  /// storage layouts and between per-event and batched feeding
  /// (tests/engine_parity_test.cpp asserts both).
  uint64_t frontier_digest() const {
    uint64_t d = 0;
    for (const Config& c : frontier_) d ^= fph::mix(c.fingerprint());
    return d;
  }

  /// Walks every live configuration, so it is deliberately not folded into
  /// stats(), which stays O(1).
  FrontierFootprint footprint() const {
    FrontierFootprint f;
    for (const Config& c : frontier_) {
      ++f.configs;
      f.opset_elems += c.opset_elems();
      f.opset_bytes += c.opset_bytes();
    }
    return f;
  }

 private:
  std::span<const OpDesc> open_span() const {
    return {open_.data(), open_.size()};
  }

  /// Post-round observability (only reached with hooks attached): the round
  /// latency histogram and the kFeedRound span.
  void observe_round(uint64_t t0, size_t run_len) {
    const uint64_t dur = obs::now_ns() - t0;
    if (obs_->round_ns != nullptr) obs_->round_ns->record(dur);
    if (obs_->trace != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::SpanKind::kFeedRound;
      ev.session = obs_->session;
      ev.start_ns = t0;
      ev.dur_ns = dur;
      ev.p1 = frontier_size();
      ev.p2 = run_len;
      ev.p3 = base_stats_.events_fed;
      obs_->trace->record(ev);
    }
  }

  // All configurations reachable from the frontier by any sequence of the
  // policy's linearization moves (index-based BFS with dedup; `result` may
  // reallocate under emit, which is why the policy receives the
  // configuration as a re-fetching accessor rather than a reference — see
  // the policy contract in policies.hpp).
  //
  // Data-oriented layout: candidates are buffered and their fingerprints
  // probed in prefetched batches (probe order — and with it every dedup
  // outcome, the result order, and the overflow point — is the emission
  // order, exactly as the probe-per-emit loop produced).  Alongside the
  // result the engine fills two parallel SoA rows per configuration:
  // hot_fp_ (the fingerprint) and hot_bloom_ (the policy's match-key Bloom
  // bits), which the response filter then scans contiguously without
  // touching the Configs of dropped rows.  `seen` is pre-sized from the
  // previous round's closure width so no FpSet grow lands mid-closure.
  std::vector<Config> closure() {
    eng_.seen.clear();
    eng_.seen.reserve(std::max(frontier_.size(), last_width_));
    hot_fp_.clear();
    hot_bloom_.clear();
    std::vector<Config> result;
    result.reserve(std::max(frontier_.size() * 2, last_width_));
    // Seed: the frontier is already deduplicated, so every probe is fresh —
    // the batch registers the fingerprints in `seen` and the configurations
    // *move* in (no clone; a round where nothing expands now costs one
    // probe batch and |frontier| moves instead of |frontier| state clones
    // immediately released again).
    fp_buf_.clear();
    for (const Config& c : frontier_) fp_buf_.push_back(c.fingerprint());
    for (size_t b = 0; b < fp_buf_.size(); b += FpSet::kMaxBatch) {
      const size_t n = std::min(FpSet::kMaxBatch, fp_buf_.size() - b);
      const uint64_t fresh =
          eng_.probe_batch(eng_.seen, fp_buf_.data() + b, n,
                           [&](size_t i) { return frontier_[b + i].key(); });
      for (size_t i = 0; i < n; ++i) {
        if (((fresh >> i) & 1) != 0) {
          hot_fp_.push_back(fp_buf_[b + i]);
          hot_bloom_.push_back(policy_.hot_bits(frontier_[b + i]));
          result.push_back(std::move(frontier_[b + i]));
        } else {
          eng_.pool.release(std::move(frontier_[b + i].state));
        }
      }
    }
    frontier_.clear();
    if constexpr (Policy::kLazyExpand) {
      expand_closure_lazy(result);
    } else {
      expand_closure_buffered(result);
    }
    last_width_ = result.size();
    return result;
  }

  /// Expansion loop for policies with expand_lazy (LinPolicy): candidates
  /// arrive as (stepped state, op, value, fingerprint) — no Config yet.
  /// Fingerprints batch-probe into `seen`; only admitted candidates pay the
  /// linearized-set copy, so the duplicate-heavy case skips the
  /// clone-then-release churn entirely.  Buffers flush at every expand_lazy()
  /// return (and at kMaxBatch mid-expand), preserving emission order.
  void expand_closure_lazy(std::vector<Config>& result) {
    auto flush = [&] {
      const size_t n = lazy_.size();
      if (n == 0) return;
      fp_buf_.clear();
      for (const LazyCand& lc : lazy_) fp_buf_.push_back(lc.fp);
      const uint64_t fresh =
          eng_.probe_batch(eng_.seen, fp_buf_.data(), n, [&](size_t i) {
            const LazyCand& lc = lazy_[i];
            return Policy::candidate_key(
                *lc.st, result[lc.parent].linearized, lc.id, lc.v);
          });
      for (size_t i = 0; i < n; ++i) {
        LazyCand& lc = lazy_[i];
        if (((fresh >> i) & 1) == 0) {
          eng_.pool.release(std::move(lc.st));
          continue;
        }
        if (result.size() >= max_configs_) throw CheckerOverflow{};
        Config next;
        next.state = std::move(lc.st);
        next.linearized = result[lc.parent].linearized;
        next.add(lc.id, lc.v);
        hot_fp_.push_back(lc.fp);
        hot_bloom_.push_back(hot_bloom_[lc.parent] |
                             lincheck::match_bit(lc.id));
        result.push_back(std::move(next));
      }
      lazy_.clear();
    };
    for (size_t i = 0; i < result.size(); ++i) {
      auto cfg = [&result, i]() -> const Config& { return result[i]; };
      policy_.expand_lazy(
          eng_.pool, scratch_, open_span(), cfg,
          [&](std::unique_ptr<SeqState> st, OpId id, Value v, uint64_t fp) {
            lazy_.push_back(LazyCand{std::move(st), id, v, fp, i});
            if (lazy_.size() == FpSet::kMaxBatch) flush();
          });
      flush();
    }
  }

  /// Expansion loop for batch-linearizing policies (SetLin/Interval):
  /// candidates are full Configs, but probes still resolve in prefetched
  /// batches with the grow check hoisted out of the per-probe path.
  void expand_closure_buffered(std::vector<Config>& result) {
    auto flush = [&] {
      const size_t n = pend_.size();
      if (n == 0) return;
      fp_buf_.clear();
      for (const Config& c : pend_) fp_buf_.push_back(c.fingerprint());
      const uint64_t fresh =
          eng_.probe_batch(eng_.seen, fp_buf_.data(), n,
                           [&](size_t i) { return pend_[i].key(); });
      for (size_t i = 0; i < n; ++i) {
        if (((fresh >> i) & 1) == 0) {
          eng_.pool.release(std::move(pend_[i].state));
          continue;
        }
        if (result.size() >= max_configs_) throw CheckerOverflow{};
        hot_fp_.push_back(fp_buf_[i]);
        hot_bloom_.push_back(policy_.hot_bits(pend_[i]));
        result.push_back(std::move(pend_[i]));
      }
      pend_.clear();
    };
    for (size_t i = 0; i < result.size(); ++i) {
      auto cfg = [&result, i]() -> const Config& { return result[i]; };
      policy_.expand(eng_.pool, scratch_, open_span(), cfg,
                     [&](Config&& next) {
                       pend_.push_back(std::move(next));
                       if (pend_.size() == FpSet::kMaxBatch) flush();
                     });
      flush();
    }
  }

  /// One closure round servicing a run of consecutive response events.
  ///
  /// Why a single closure is enough: let S be the closure of the frontier
  /// under the current open set O.  Filtering response r keeps exactly the
  /// configurations of S that linearized r with the observed value, with r
  /// removed from their bookkeeping (match never touches machine state).
  /// Any closure move applicable to a filtered configuration F = C∖r
  /// (C ∈ S) corresponds to the same move on C — the move cannot involve r,
  /// which left the open set — and S is a fixpoint, so the moved C is in S
  /// and still matches r.  The filtered set is therefore already closed
  /// under O∖{r}, and the next response of the run can be filtered
  /// directly.  This holds for all three policies (linearize-one,
  /// linearize-batch, machine-invoke/machine-respond).
  void feed_res_run(std::span<const Event> run) {
    try {
      const uint64_t t0 = obs_ != nullptr ? obs::now_ns() : 0;
      ++base_stats_.rounds_sequential;
      run_res_sequential(run);
      if (obs_ != nullptr) observe_round(t0, run.size());
    } catch (...) {
      // The half-expanded frontier no longer reflects the fed prefix.
      // Release everything and poison the engine (sticky overflowed())
      // rather than leave it open to undefined reuse; the exception still
      // propagates so one-shot callers see CheckerOverflow as before.
      overflowed_ = true;
      release_everything();
      throw;
    }
  }

  /// Response bookkeeping: the op leaves the open set, the width counters
  /// see the post-filter frontier.  Returns
  /// false once the frontier is empty (verdict settled; the rest of the run
  /// is ignored, exactly as per-event feeds ignore events after !ok()).
  bool settle_response(const Event& e, size_t width) {
    erase_open(e.op.id);
    base_stats_.peak_frontier = std::max(base_stats_.peak_frontier, width);
    if (obs_ != nullptr && obs_->frontier_width != nullptr) {
      obs_->frontier_width->record(width);
    }
    if (width == 0) {
      ok_ = false;
      return false;
    }
    return true;
  }

  void run_res_sequential(std::span<const Event> run) {
    std::vector<Config> cur = closure();
    for (const Event& e : run) {
      ++base_stats_.events_fed;
      filter_in_place(cur, e);
      if (!settle_response(e, cur.size())) break;
    }
    // closure() moved the old frontier out, so `cur` simply takes its place.
    frontier_ = std::move(cur);
  }

  /// Allocation-free response filter over the closure set: no `filtered`
  /// vector — survivors compact to the front of `cur` in place (stable, so
  /// the surviving order matches the old copy-out loop bit for bit).  The
  /// pass scans the SoA hot rows closure() built: a configuration whose
  /// Bloom bits exclude the event's op provably cannot match and drops
  /// without the exact match() call; survivors' fingerprints are patched by
  /// the policy's per-event match delta (match never touches machine state)
  /// instead of recomputed, then dedup in prefetched batches against a
  /// filter_seen pre-sized to the survivor count.  The collision audit
  /// cross-checks every patched fingerprint against the mutated
  /// configuration's canonical key, so the delta arithmetic is verified in
  /// debug/audit builds.
  void filter_in_place(std::vector<Config>& cur, const Event& e) {
    ++base_stats_.filter_in_place_rounds;
    const uint64_t bit = lincheck::match_bit(e.op.id);
    const uint64_t delta = policy_.match_delta(e);
    size_t w = 0;
    for (size_t i = 0; i < cur.size(); ++i) {
      if ((hot_bloom_[i] & bit) == 0 || !policy_.match(cur[i], e)) {
        eng_.pool.release(std::move(cur[i].state));
        continue;
      }
      if (w != i) {
        cur[w] = std::move(cur[i]);
        hot_bloom_[w] = hot_bloom_[i];
      }
      hot_fp_[w] = hot_fp_[i] ^ delta;
      ++w;
    }
    eng_.filter_seen.clear();
    eng_.filter_seen.reserve(w);
    size_t out = 0;
    for (size_t b = 0; b < w; b += FpSet::kMaxBatch) {
      const size_t n = std::min(FpSet::kMaxBatch, w - b);
      const uint64_t fresh =
          eng_.probe_batch(eng_.filter_seen, hot_fp_.data() + b, n,
                           [&](size_t i) { return cur[b + i].key(); });
      for (size_t i = 0; i < n; ++i) {
        if (((fresh >> i) & 1) == 0) {
          eng_.pool.release(std::move(cur[b + i].state));
          continue;
        }
        if (out != b + i) {
          cur[out] = std::move(cur[b + i]);
          hot_fp_[out] = hot_fp_[b + i];
          hot_bloom_[out] = hot_bloom_[b + i];
        }
        ++out;
      }
    }
    cur.resize(out);
    hot_fp_.resize(out);
    hot_bloom_.resize(out);
  }

  void release_everything() {
    for (Config& c : frontier_) eng_.pool.release(std::move(c.state));
    frontier_.clear();
    for (LazyCand& lc : lazy_) eng_.pool.release(std::move(lc.st));
    lazy_.clear();
    for (Config& c : pend_) eng_.pool.release(std::move(c.state));
    pend_.clear();
    hot_fp_.clear();
    hot_bloom_.clear();
  }

  void erase_open(OpId id) {
    for (size_t i = 0; i < open_.size(); ++i) {
      if (open_[i].id == id) {
        open_[i] = open_.back();  // order is irrelevant: swap-erase
        open_.pop_back();
        break;
      }
    }
  }

  Policy policy_;
  size_t max_configs_;
  bool ok_ = true;
  bool overflowed_ = false;

  // Borrowed instrumentation bundle (obs/hooks.hpp); null when detached, so
  // the unobserved hot path costs one pointer test per closure round.
  const obs::EngineHooks* obs_ = nullptr;

  std::vector<OpDesc> open_;  // invoked, response not yet fed

  std::vector<Config> frontier_;
  lincheck::DedupEngine eng_;
  typename Policy::Scratch scratch_;  // expansion scratch, reused per round

  // Data-oriented hot-path storage.  hot_fp_ and
  // hot_bloom_ are SoA rows parallel to the closure vector (fingerprint and
  // match-key Bloom bits of result[i]); fp_buf_ is the batch-probe scratch;
  // lazy_/pend_ buffer not-yet-admitted expansion candidates between probe
  // flushes.  All retain capacity across rounds — steady state allocates
  // nothing here.
  struct LazyCand {
    std::unique_ptr<SeqState> st;
    OpId id;
    Value v;
    uint64_t fp;
    size_t parent;  // index into the closure vector
  };
  size_t last_width_ = 0;          // previous closure width (pre-sizing seed)
  std::vector<uint64_t> hot_fp_;
  std::vector<uint64_t> hot_bloom_;
  std::vector<uint64_t> fp_buf_;
  std::vector<LazyCand> lazy_;     // lazy candidates (Policy::kLazyExpand)
  std::vector<Config> pend_;       // buffered Configs (batch policies)

  // Rounds/peak/events live here; dedup and recycling counters are read
  // from the engines at stats() time.  Copies snapshot the source's full
  // aggregate into base_stats_, so stats survive cloning.
  EngineStats base_stats_;
};

}  // namespace selin::engine
