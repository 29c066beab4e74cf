// Incremental X(λ) maintenance.
//
// The verifier (Figure 10) and the self-enforced implementation (Figure 11)
// recompute X(τ_i) and re-test membership after *every* operation.  Testing
// the whole history from scratch each time would make the local computation
// quadratic; instead we exploit the level structure of X(λ):
//
//   * XBuilder maintains the levels σ1 ⊂ σ2 ⊂ ... of the records seen so
//     far, as nodes linked top-down.  Adding a record usually appends a
//     node; a record that was written to M late lands in an *existing*
//     middle level (its view is small), which rewrites only the nodes from
//     that level up.  A sealed node is never rewritten (a late record copies
//     it instead), so builders whose levels start with the same records can
//     hold the same nodes: the checkers of one object build each level once
//     (MonitorCore).
//
//   * LeveledChecker memoizes the membership monitor state after every
//     level, so a change at level k re-feeds only levels k..m, and can adopt
//     a state another checker fed through a chain of shared levels.
//
// Each verifier process owns one builder/checker pair and feeds it from its
// own snapshots (Line 08 of Figure 10), mirroring the paper's "each process
// locally tests" discipline.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "selin/engine/stats.hpp"
#include "selin/spec/spec.hpp"
#include "selin/views/lambda.hpp"

namespace selin::obs {
struct LeveledHooks;  // obs/hooks.hpp — instrumentation bundle, borrowed
}  // namespace selin::obs

namespace selin {

/// One level of X(λ): the invocations that first appear in σk, then the
/// responses of the records whose view is σk.  Levels are nodes linked
/// top-down, like the SetNode chains of a view, so a level determines every
/// level below it.
struct Level {
  uint64_t key = 0;  ///< |σk| — unique under containment comparability
  const View* view = nullptr;
  const Level* below = nullptr;  ///< σk−1's level; nullptr under σ1
  size_t depth = 0;              ///< k: this level and the ones below it
  /// Set by XBuilder::seal; a sealed level is immutable and may be shared.
  bool sealed = false;
  std::vector<OpDesc> invs;
  std::vector<std::pair<OpDesc, Value>> ress;
};

/// The levels of a chain bottom-up, for random access (tests, diagnostics).
class LevelIndex {
 public:
  explicit LevelIndex(const Level* top);
  size_t size() const { return levels_.size(); }
  const Level& operator[](size_t k) const { return *levels_[k]; }

 private:
  std::vector<const Level*> levels_;
};

/// A handle to the top level of X(λ) for the records added so far.  It
/// owns the level nodes it allocates; another builder may point into them
/// once they are sealed, so they live as long as this builder.
class XBuilder {
 public:
  /// Incorporates a record (which must outlive the builder).  Returns the
  /// index of the lowest level whose content changed.  Unsealed levels are
  /// rewritten in place; sealed ones at or above that index are copied.
  size_t add(const LambdaRecord* rec);

  /// The top level (nullptr while empty); its chain is X(λ).
  const Level* top() const { return top_; }
  size_t depth() const { return top_ == nullptr ? 0 : top_->depth; }

  /// The levels bottom-up; O(depth) to build.
  LevelIndex levels() const { return LevelIndex(top_); }

  /// The full history X(λ) in level order (used for witnesses/certificates).
  History flatten() const;

  /// Seal every level, so that the chain can be handed to other builders.
  void seal();

  /// Take `top`'s chain as this builder's levels; it must be sealed (or
  /// nullptr, for no levels).
  void reset(const Level* top) { top_ = top; }

  /// Level nodes this builder has allocated, copies included.
  size_t nodes() const { return nodes_; }

 private:
  static constexpr size_t kChunk = 64;

  /// Invocation pairs of `view` beyond `prev` (σk \ σk−1), sorted by OpId.
  static std::vector<OpDesc> delta(const View* prev, const View& view);

  Level* new_level();
  /// `lvl` itself when unsealed (then this builder made it and nobody else
  /// holds it), else a fresh unsealed copy.
  Level* writable(const Level* lvl);

  const Level* top_ = nullptr;
  std::vector<std::unique_ptr<Level[]>> chunks_;  // allocated on first add
  size_t nodes_ = 0;
  std::vector<const Level*> above_;  // add() scratch
};

/// Memoizing membership evaluator over an XBuilder.
///
/// Keeps one live monitor at the current frontier plus sparse checkpoints
/// every `stride` levels; a change at level k restores the nearest
/// checkpoint at or below k and replays forward.  Appends — the
/// overwhelmingly common case — advance the live monitor directly, so the
/// amortized per-operation cost is one level.
///
/// A checker can also adopt a state another checker fed (adopt), when its
/// builder has taken that checker's sealed levels: the state after a chain
/// of levels depends only on the chain.
///
/// Replaying a monitor fold is inherently sequential in its *state* (the
/// configuration frontier after level k feeds level k+1), so rollback
/// replay cannot be split across checkpoint segments without changing what
/// is computed.  Every stride boundary copies the live monitor inline, into
/// a spare monitor a released checkpoint left (clone() only when none is
/// left), and settle() releases the checkpoints under levels that can no
/// longer change, so a caller whose bound keeps up with the history keeps
/// a bounded number of monitors however long it grows.
class LeveledChecker {
 public:
  /// Tuned default for `checkpoint_stride` (bench_ablation sweeps it).
  static constexpr size_t kDefaultStride = 16;

  /// `checkpoint_stride` trades rollback-replay cost against checkpoint
  /// memory/clone cost (0 is treated as 1).
  explicit LeveledChecker(const GenLinObject& obj,
                          size_t checkpoint_stride = kDefaultStride);
  LeveledChecker(const LeveledChecker&) = delete;
  LeveledChecker& operator=(const LeveledChecker&) = delete;
  ~LeveledChecker();

  /// Re-evaluates after the builder changed at `from_level`; returns the
  /// current verdict X(λ) ∈ O.
  bool resync(const XBuilder& builder, size_t from_level);

  /// Batched form: one pass over a merge that dirtied several levels (the
  /// rollback-storm shape MonitorCore produces).  Restores once, below the
  /// lowest dirty level, instead of once per record.
  bool resync(const XBuilder& builder, std::span<const size_t> dirty_levels);

  /// Feed every level the builder holds beyond levels_fed() into the live
  /// monitor, batching the events of each stride segment into one
  /// feed_batch call so the membership engine amortizes its closure work
  /// across the segment (each segment ends where the next checkpoint is
  /// due, so checkpoints land exactly where per-level feeding puts them).
  /// resync() calls this; exposed for callers that append without a dirty
  /// set.
  void append_batch(const XBuilder& builder);

  /// Make a copy of `state`, the monitor another checker had after feeding
  /// the levels of `top`'s chain, the live monitor.  Call it once the
  /// builder holds that chain and before merging beyond it.  The
  /// checkpoints whose level lies on the chain stay, as does the lowest
  /// one when the chain holds a copy of its levels; the others become
  /// spares.  An adoption a stride or more above the last checkpoint takes
  /// one at `top`, built in a spare, so every level this checker reaches,
  /// by feeding or adopting, lies less than a stride above a checkpoint or
  /// at or below the lowest one.
  void adopt(const MembershipMonitor& state, const Level* top);

  /// Declare every level whose key is below `bound` final: no record the
  /// builder takes later has a view smaller than `bound`.  Releases every
  /// checkpoint below the highest one whose last fed level has a key below
  /// `bound` (no rollback can restore them) into the spares.  A bound that
  /// is too high costs replay, never a verdict: a later rollback below it
  /// restores a lower checkpoint, or the initial state.
  void settle(uint64_t bound);

  /// The live monitor, after levels_fed() levels (call after a resync or
  /// an adoption).
  const MembershipMonitor& monitor() const { return *cur_; }

  bool ok() const { return ok_; }

  /// Attach observability instruments (obs/hooks.hpp; nullptr detaches).
  /// Attach before the first resync: the live monitor and every checkpoint
  /// cloned from it inherit `hooks->engine`, so rollback replays report into
  /// the same engine instruments; attaching mid-run only reaches monitors
  /// created afterwards.  The bundle must outlive the checker.
  void set_obs(const obs::LeveledHooks* hooks);

  /// Materialized checkpoints.  Without adoptions or settle(), exactly
  /// levels_fed() / stride after any resync — the eager-release regression
  /// tests key on that; an adoption that jumps a stride or more adds one at
  /// the adopted level, and settle() keeps only the highest checkpoint
  /// under its bound and the ones above it.
  size_t checkpoint_count() const { return checkpoints_.size(); }

  /// Levels consumed by the live monitor (diagnostics).
  size_t levels_fed() const { return fed_; }

  /// Execution counters of the live monitor's engine; all-zero before the
  /// first feed.  Restores (a checkpoint after a rollback, an adopted
  /// state) copy state, not counters, so the counters include every
  /// replayed event — the number an enforced object should report as
  /// "checking work done".
  engine::EngineStats stats() const;

  /// Restores from this checker's own checkpoints (the miss path).
  uint64_t rollbacks() const { return rollbacks_; }
  /// Previously fed levels fed again after a rollback (appended-for-the-
  /// first-time levels are not replay cost).
  uint64_t replayed_levels() const { return replayed_levels_; }
  /// Widest dirty-level batch one resync has received (> 1 only when a
  /// merge dirtied several levels at once — the rollback-storm shape).
  size_t peak_storm_records() const { return peak_storm_records_; }
  /// States adopted from other checkers.
  uint64_t tip_adoptions() const { return tip_adoptions_; }

 private:
  struct Checkpoint {
    size_t level;     // the monitor has fed levels [0, level)
    const Level* at;  // the level it fed last
    std::unique_ptr<MembershipMonitor> monitor;
  };

  /// Released checkpoint monitors kept for reuse; beyond this many they
  /// are freed, so the spares stay bounded whatever the history length.
  static constexpr size_t kMaxSpares = 4;

  std::unique_ptr<MembershipMonitor> fresh_monitor() const;
  void ensure_monitor();
  size_t last_checkpoint_level() const {
    return checkpoints_.empty() ? 0 : checkpoints_.back().level;
  }
  /// Checkpoint the live monitor, which has fed the chain up to `at`.
  void take_checkpoint(const Level* at);
  /// Keep a released checkpoint's monitor as a spare, or free it.
  void release(std::unique_ptr<MembershipMonitor> monitor);
  /// Drop the checkpoints above `level`.
  void truncate_checkpoints(size_t level);
  /// Make the live monitor a copy of `src` (nullptr: the initial state),
  /// which has fed the chain up to `at`; the live monitor keeps its
  /// counters.
  void restore(const MembershipMonitor* src, const Level* at);
  /// Restore the nearest checkpoint at or below `from_level`, eagerly
  /// releasing everything above it.
  void rollback(size_t from_level);

  const GenLinObject* obj_;
  size_t stride_;
  std::unique_ptr<MembershipMonitor> cur_;  // state after levels [0, fed_)
  size_t fed_ = 0;                          // levels consumed by cur_
  /// Ascending levels in (0, fed_], each on the chain the live monitor fed.
  /// Every level this checker reached, by feeding it or by adopting a state
  /// there, lies less than `stride_` above a checkpoint or level 0, or at
  /// or below the lowest checkpoint once settle() released the ones under
  /// it; in particular fed_ < last_checkpoint_level() + stride_.
  std::vector<Checkpoint> checkpoints_;
  /// Monitors of released checkpoints, overwritten by the next checkpoints
  /// (assign_from) instead of cloning the live monitor.
  std::vector<std::unique_ptr<MembershipMonitor>> spares_;
  bool ok_ = true;
  std::vector<const Level*> pending_;  // append_batch scratch
  std::vector<Event> batch_;           // append_batch scratch

  uint64_t rollbacks_ = 0;
  uint64_t replayed_levels_ = 0;
  size_t peak_storm_records_ = 0;
  uint64_t tip_adoptions_ = 0;

  // Borrowed instrumentation bundle; not owned.
  const obs::LeveledHooks* obs_ = nullptr;
};

}  // namespace selin
