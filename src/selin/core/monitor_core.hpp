// Shared machinery of the verifier algorithms (Figures 10, 11, 12): the
// snapshot object M holding per-producer grow-only sets of λ-records, plus
// per-checker incremental X(τ) construction and membership evaluation.
//
// Producers publish 4-tuples (Lines 06-07 of Figure 10 / 03-04 of Figure 11
// / 03-04 of Figure 12); checkers snapshot M, merge the newly visible
// records into their XBuilder, and re-evaluate membership through their
// LeveledChecker (Lines 08-10).  X(τ) depends only on the set of records,
// so the checkers of one object share their work: each publishes its state
// (the records it covers, its top level and its monitor) as a tip in one
// single-writer register, and a check starts from the usable state with the
// most records, its own or a tip (check()).  All cross-thread communication
// goes through the snapshot object and the tip registers — read/write base
// objects only, per Theorem 8.1(1); level nodes are immutable once a tip
// can reach them.
//
// The checking side rides the modern membership engine: each checker's
// LeveledChecker feeds stride segments through feed_batch into a
// fingerprinted FrontierEngine monitor, so enforcement deployments get the
// same batched hot path as plain history checking, and Options carries the
// snapshot flavor and obs hooks.  An exploration-budget overflow
// (CheckerOverflow) is absorbed into a sticky per-checker kOverflowed
// status instead of escaping the wait-free loop.
#pragma once

#include <atomic>
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

/// A state one checking context published for the others: its monitor
/// after feeding X(τ) for the records `cover` names (one chain head per
/// producer), whose levels are `top`'s chain.  Immutable while published.
struct Tip {
  std::vector<const RecNode*> cover;
  size_t records = 0;  ///< records in cover
  const Level* top = nullptr;
  std::unique_ptr<MembershipMonitor> monitor;
};

/// One checking context's single-writer registers: the tip it published
/// last, the number of records that tip covers (stored first, so readers
/// can rank the tips before reading any), and a hazard pointer naming the
/// tip it is reading.  Only the owner stores to them (plain atomic stores,
/// no read-modify-write); every context loads them.
struct alignas(64) TipSlot {
  std::atomic<const Tip*> tip{nullptr};
  std::atomic<size_t> records{0};
  std::atomic<const Tip*> hazard{nullptr};
};

/// Settings shared by every checker context of a MonitorCore (spelled
/// MonitorCore::Options; declared outside the class so that `= {}` can
/// default it there).
struct MonitorCoreOptions {
  /// Snapshot flavor for a core-built M (ignored when the caller provides
  /// M, e.g. the ABD record object).
  SnapshotKind snapshot = SnapshotKind::kDoubleCollect;
  /// Instrumentation bundle attached to every checker (and through it to
  /// the membership monitors); must outlive the core.  nullptr = none.
  const obs::LeveledHooks* obs = nullptr;
};

class MonitorCore {
 public:
  using Options = MonitorCoreOptions;

  /// Verdict state of one checking context.  kOverflowed means the
  /// exploration budget was exceeded: membership is *unknown*, the status
  /// is sticky, and check() keeps returning false without re-raising —
  /// enforcement treats it as a (conservative) permanent error, per the
  /// sticky-after-prefix shape of Theorem 8.2.
  enum class CheckStatus { kOk, kRejected, kOverflowed };

  /// n_producers writable entries in M; n_checkers independent checking
  /// contexts (per-process in Figures 10/11; per-verifier in Figure 12).
  MonitorCore(size_t n_producers, size_t n_checkers, const GenLinObject& obj,
              const Options& options = {});

  /// Same, with a caller-provided record object M (e.g. ABD, Section 9.4).
  MonitorCore(size_t n_producers, size_t n_checkers, const GenLinObject& obj,
              std::unique_ptr<Snapshot<const RecNode*>> m,
              const Options& options = {});
  ~MonitorCore();

  /// res_i ← res_i ∪ {(p_i, op_i, y_i, λ_i)}; M.Write(res_i).
  void publish(ProcId producer, const OpDesc& op, Value y, View view);

  /// One checking pass for `checker`: M.Snapshot(), τ ← union, build X(τ)
  /// from the usable state with the most records, merging only the records
  /// that state lacks, and return the verdict X(τ) ∈ O.  The pass then
  /// settles the checker's levels below the smallest view among the
  /// producers' merged chain heads (0 while one has published nothing):
  /// a producer's later records have larger views, so no merge can change
  /// those levels, and their checkpoints go (LeveledChecker::settle).  An
  /// overflow of the monitor's exploration budget settles the checker at
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

  /// Tips of other checkers that `checker` examined and could not start
  /// from, because they cover a record beyond its scan or lack one at or
  /// below their top level (diagnostics).
  uint64_t tips_unusable(size_t checker) const {
    return checkers_[checker].tips_unusable;
  }

  /// Level nodes the checkers have allocated, copies included
  /// (diagnostics: the checkers share levels instead of each building its
  /// own).
  size_t level_nodes() const;

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
    /// The records the builder holds: one chain head per producer.
    std::vector<const RecNode*> seen;
    size_t records = 0;  // records in seen
    std::vector<const RecNode*> fresh_scratch;  // reused across check() calls
    std::vector<size_t> dirty_scratch;  // dirty levels of the current pass
    XBuilder builder;
    std::unique_ptr<LeveledChecker> checker;
    CheckStatus status = CheckStatus::kOk;
    std::unique_ptr<Tip> published;  // what tips_[self].tip names
    std::vector<std::unique_ptr<Tip>> retired;
    std::vector<const Tip*> hazards;  // reusable_tip scratch
    std::vector<std::pair<size_t, size_t>> ranked;  // (records, slot) scratch
    uint64_t tips_unusable = 0;
  };

  void init_checkers(size_t n_producers, const Options& options);
  /// Start `checker` from the usable state with the most records: keep its
  /// own, or take a tip's records and levels and adopt its monitor.
  void adopt_best_tip(size_t checker, const std::vector<const RecNode*>& heads);
  /// Publish `checker`'s state, sealing its levels first.
  void publish_tip(size_t checker);
  /// A retired tip of `checker` that no hazard pointer names, or nullptr.
  std::unique_ptr<Tip> reusable_tip(size_t checker);

  const GenLinObject* obj_;
  std::unique_ptr<Snapshot<const RecNode*>> m_;  // the object M
  std::vector<ProducerSlot> producers_;
  /// One single-writer tip register per checker, through which checkers
  /// share their states; empty with a single checker, which has nobody to
  /// share with.  Declared before checkers_ so that it outlives them.
  std::vector<TipSlot> tips_;
  std::vector<CheckerSlot> checkers_;
};

}  // namespace selin
