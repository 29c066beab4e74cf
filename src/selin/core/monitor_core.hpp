// Shared machinery of the verifier algorithms (Figures 10, 11, 12): the
// snapshot object M holding per-producer grow-only sets of λ-records, plus
// per-checker incremental X(τ) construction and membership evaluation.
//
// Producers publish 4-tuples (Lines 06-07 of Figure 10 / 03-04 of Figure 11
// / 03-04 of Figure 12); checkers snapshot M, merge the newly visible
// records into their private XBuilder, and re-evaluate membership through
// their private LeveledChecker (Lines 08-10).  All cross-thread
// communication goes through the snapshot object and through one
// single-writer tip register per checker, where checkers publish monitor
// states for each other to adopt (LeveledChecker::share_tips) — read/write
// base objects only, per Theorem 8.1(1).
//
// The checking side rides the modern membership engine: each checker's
// LeveledChecker feeds stride segments through feed_batch into a
// fingerprinted FrontierEngine monitor, and Options carries the engine
// knobs (threads=auto, obs hooks) so enforcement deployments get the same
// batched/adaptive hot path as plain history checking; the monitors run
// their parallel rounds on the executor the GenLinObject was built with.
// An exploration-budget overflow (CheckerOverflow) is absorbed into a
// sticky per-checker kOverflowed status instead of escaping the wait-free
// loop.
#pragma once

#include <memory>
#include <vector>

#include "selin/engine/stats.hpp"
#include "selin/snapshot/snapshot.hpp"
#include "selin/spec/spec.hpp"
#include "selin/views/leveled_history.hpp"

namespace selin::obs {
struct LeveledHooks;  // obs/hooks.hpp — instrumentation bundle, borrowed
}  // namespace selin::obs

namespace selin {

/// One published λ-record in a producer's grow-only chain.
struct RecNode {
  LambdaRecord rec;
  const RecNode* next;
  uint32_t len;
};

class MonitorCore {
 public:
  /// Engine knobs shared by every checker context.  Defaults reproduce the
  /// seed-era fully sequential discipline, so the unported call sites (and
  /// the A/B baseline arms in bench_self_enforced) are unchanged.
  struct Options {
    /// Snapshot flavor for a core-built M (ignored when the caller provides
    /// M, e.g. the ABD record object).
    SnapshotKind snapshot = SnapshotKind::kDoubleCollect;
    /// Forwarded to each checker's membership monitors (0 = the object's
    /// default; > 1 runs the membership test P_O on the parallel sharded
    /// frontier engine; engine::kAutoThreads picks sequential vs sharded
    /// per feed round — the monitor threads belong to the checker that
    /// owns them, so the wait-free cross-thread protocol through M is
    /// unchanged).
    size_t checker_threads = 0;
    /// Instrumentation bundle attached to every checker (and through it to
    /// the membership monitors); must outlive the core.  nullptr = none.
    const obs::LeveledHooks* obs = nullptr;
  };

  /// Verdict state of one checking context.  kOverflowed means the
  /// exploration budget was exceeded: membership is *unknown*, the status
  /// is sticky, and check() keeps returning false without re-raising —
  /// enforcement treats it as a (conservative) permanent error, per the
  /// sticky-after-prefix shape of Theorem 8.2.
  enum class CheckStatus { kOk, kRejected, kOverflowed };

  /// n_producers writable entries in M; n_checkers independent checking
  /// contexts (per-process in Figures 10/11; per-verifier in Figure 12).
  MonitorCore(size_t n_producers, size_t n_checkers, const GenLinObject& obj,
              const Options& options);

  /// Same, with a caller-provided record object M (e.g. ABD, Section 9.4).
  MonitorCore(size_t n_producers, size_t n_checkers, const GenLinObject& obj,
              std::unique_ptr<Snapshot<const RecNode*>> m,
              const Options& options);

  /// Seed-era signatures, kept delegating so existing call sites (and the
  /// sequential A/B baseline) compile unchanged.
  MonitorCore(size_t n_producers, size_t n_checkers, const GenLinObject& obj,
              SnapshotKind kind = SnapshotKind::kDoubleCollect,
              size_t checker_threads = 0);
  MonitorCore(size_t n_producers, size_t n_checkers, const GenLinObject& obj,
              std::unique_ptr<Snapshot<const RecNode*>> m,
              size_t checker_threads = 0);
  ~MonitorCore();

  /// res_i ← res_i ∪ {(p_i, op_i, y_i, λ_i)}; M.Write(res_i).
  void publish(ProcId producer, const OpDesc& op, Value y, View view);

  /// One checking pass for `checker`: M.Snapshot(), τ ← union, rebuild the
  /// affected suffix of X(τ) and return the verdict X(τ) ∈ O.  An overflow
  /// of the monitor's exploration budget settles the checker at
  /// kOverflowed; from then on check() returns false without merging.
  bool check(size_t checker);

  /// Verdict state of `checker`'s latest pass (sticky once not kOk).
  CheckStatus check_status(size_t checker) const {
    return checkers_[checker].status;
  }
  bool overflowed(size_t checker) const {
    return checkers_[checker].status == CheckStatus::kOverflowed;
  }

  /// X(τ) of this checker's latest pass — the ERROR witness (Theorem 8.1)
  /// and the certificate of Theorem 8.2(3).
  History sketch(size_t checker) const;

  /// λ-records currently merged by this checker (diagnostics).
  size_t record_count(size_t checker) const;

  /// One checker's leveled evaluator (diagnostics: engine counters,
  /// checkpoints, rollbacks, tip adoptions).
  const LeveledChecker& leveled(size_t checker) const {
    return *checkers_[checker].checker;
  }

  /// Engine counters aggregated across all checkers (engine::accumulate) —
  /// what an enforced object reports under --stats-json / --metrics.
  engine::EngineStats stats() const;

  const GenLinObject& object() const { return *obj_; }
  size_t producers() const { return producers_.size(); }
  size_t checkers() const { return checkers_.size(); }

 private:
  struct alignas(64) ProducerSlot {
    const RecNode* head = nullptr;
    std::vector<std::unique_ptr<RecNode>> owned;  // reclaimed at destruction
  };
  struct alignas(64) CheckerSlot {
    std::vector<const RecNode*> seen;  // last merged head per producer
    std::vector<const RecNode*> fresh_scratch;  // reused across check() calls
    std::vector<size_t> dirty_scratch;  // dirty levels of the current pass
    XBuilder builder;
    std::unique_ptr<LeveledChecker> checker;
    CheckStatus status = CheckStatus::kOk;
  };

  void init_checkers(size_t n_producers, const Options& options);

  const GenLinObject* obj_;
  std::unique_ptr<Snapshot<const RecNode*>> m_;  // the object M
  std::vector<ProducerSlot> producers_;
  /// One single-writer tip register per checker, through which checkers
  /// share monitor states (LeveledChecker::share_tips); empty with a
  /// single checker, which has nobody to share with.  Declared before
  /// checkers_ so that it outlives them.
  std::vector<TipSlot> tips_;
  std::vector<CheckerSlot> checkers_;
};

}  // namespace selin
