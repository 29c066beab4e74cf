// Incremental X(λ) maintenance.
//
// The verifier (Figure 10) and the self-enforced implementation (Figure 11)
// recompute X(τ_i) and re-test membership after *every* operation.  Testing
// the whole history from scratch each time would make the local computation
// quadratic; instead we exploit the level structure of X(λ):
//
//   * XBuilder maintains the levels σ1 ⊂ σ2 ⊂ ... of the records seen so
//     far.  Adding a record usually appends at the end; a record that was
//     written to M late lands in an *existing* middle level (its view is
//     small), which only invalidates levels from that point on.
//
//   * LeveledChecker memoizes the membership monitor state after every
//     level, so a change at level k re-feeds only levels k..m.
//
//   * The checkers of one object publish their monitor states as tips,
//     keyed by a digest of the level prefix they cover, and adopt each
//     other's: the state after a prefix depends only on the prefix, so a
//     checker whose X(τ) starts with a prefix another one already fed
//     skips it.
//
// Each verifier process owns one builder/checker pair and feeds it from its
// own snapshots (Line 08 of Figure 10), mirroring the paper's "each process
// locally tests" discipline.  The tips add one single-writer register per
// checker plus two hazard pointers, read and written with plain atomic
// loads and stores, so the construction keeps to read/write base objects
// and stays wait-free.  The membership monitors may still run the sharded
// frontier engine (the `threads` knob), whose helper threads are not
// visible through the snapshot object M.
#pragma once

#include <atomic>
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
/// responses of the records whose view is σk.
struct Level {
  uint64_t key = 0;  ///< |σk| — unique under containment comparability
  const View* view = nullptr;
  std::vector<OpDesc> invs;
  std::vector<std::pair<OpDesc, Value>> ress;
};

class XBuilder {
 public:
  /// Incorporates a record (which must outlive the builder).  Returns the
  /// index of the lowest level whose content changed.
  size_t add(const LambdaRecord* rec);

  const std::vector<Level>& levels() const { return levels_; }

  /// The full history X(λ) in level order (used for witnesses/certificates).
  History flatten() const;

  size_t record_count() const { return records_; }

 private:
  /// Invocation pairs of `view` beyond `prev` (σk \ σk−1), sorted by OpId.
  static std::vector<OpDesc> delta(const View* prev, const View& view);

  std::vector<Level> levels_;
  size_t records_ = 0;
};

/// A monitor state one checking context published for the other contexts
/// of the same object: the membership monitor after the levels
/// [0, levels) of that context's X(τ), and the digest of that prefix
/// (LeveledChecker::share_tips).  Immutable while published.
struct Tip {
  size_t levels = 0;
  uint64_t digest = 0;
  std::unique_ptr<MembershipMonitor> monitor;
  /// The words the digest hashed, so an adopter can compare the prefix
  /// itself; filled in fingerprint-audit builds only.
  std::vector<uint64_t> audit_words;
};

/// One checking context's single-writer registers: the tip it published
/// last and two hazard pointers naming the tips it is reading.  Only the
/// owner stores to them (plain atomic stores, no read-modify-write); every
/// context loads them.
struct alignas(64) TipSlot {
  std::atomic<const Tip*> tip{nullptr};
  std::atomic<const Tip*> hazard[2] = {};
};

/// Memoizing membership evaluator over an XBuilder.
///
/// Keeps one live monitor at the current frontier plus sparse checkpoints
/// every `stride` levels; a change at level k restores the nearest
/// checkpoint at or below k and replays forward.  Appends — the
/// overwhelmingly common case — advance the live monitor directly, so the
/// amortized per-operation cost is one level.
///
/// Checkers of one object can share their work (share_tips): each resync
/// first adopts the furthest state another checker published for a level
/// prefix equal to its own, and feeds only the levels beyond it.
///
/// Replaying a monitor fold is inherently sequential in its *state* (the
/// configuration frontier after level k feeds level k+1), so rollback
/// replay cannot be split across checkpoint segments without changing what
/// is computed.  What parallelizes honestly is the replayed monitor itself:
/// it can run the sharded/adaptive frontier engine (`threads` —
/// engine::kAutoThreads is the natural fit: most replays are narrow, and
/// precisely the expensive rollback storms go wide enough to engage the
/// shards).  Every stride boundary clones the live monitor inline.
class LeveledChecker {
 public:
  /// Tuned default for `checkpoint_stride` (bench_ablation sweeps it);
  /// callers that only want to set later parameters name this instead of
  /// repeating the number.
  static constexpr size_t kDefaultStride = 16;

  struct Options {
    /// Trades rollback-replay cost against checkpoint memory/clone cost.
    size_t stride = kDefaultStride;
    /// Forwarded to the object's monitor factory (0 = object default; > 1
    /// the parallel sharded frontier engine; engine::kAutoThreads the
    /// adaptive one).
    size_t threads = 0;
  };

  explicit LeveledChecker(const GenLinObject& obj,
                          size_t checkpoint_stride = kDefaultStride,
                          size_t threads = 0)
      : LeveledChecker(obj, Options{checkpoint_stride, threads}) {}

  LeveledChecker(const GenLinObject& obj, const Options& opts);
  LeveledChecker(const LeveledChecker&) = delete;
  LeveledChecker& operator=(const LeveledChecker&) = delete;
  ~LeveledChecker();

  /// Share checking work with the other checkers of one object, each
  /// owning one entry of `slots` (this one owns slots[self]).  Every
  /// resync then keeps a digest of each level prefix of its builder,
  /// adopts the furthest published tip whose prefix equals its own
  /// (skipping the levels below it), and publishes its own tip afterwards.
  /// Wait-free: O(slots) atomic loads and stores per resync, no retries.
  /// Call before the first resync; the slots must outlive the checker, and
  /// each checker's resyncs must come from one thread at a time.
  void share_tips(std::span<TipSlot> slots, size_t self);

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
  /// set (and without share_tips).
  void append_batch(const XBuilder& builder);

  bool ok() const { return ok_; }

  /// Attach observability instruments (obs/hooks.hpp; nullptr detaches).
  /// Attach before the first resync: the live monitor and every checkpoint
  /// cloned from it inherit `hooks->engine`, so rollback replays report into
  /// the same engine instruments; attaching mid-run only reaches monitors
  /// created afterwards.  The bundle must outlive the checker.
  void set_obs(const obs::LeveledHooks* hooks);

  /// Materialized checkpoints.  Without shared tips, exactly
  /// levels_fed() / stride after any resync — the eager-release regression
  /// tests key on that; an adoption that jumps a stride or more adds one at
  /// the adopted level.
  size_t checkpoint_count() const { return checkpoints_.size(); }

  /// Levels consumed by the live monitor (diagnostics).
  size_t levels_fed() const { return fed_; }

  /// Execution counters of the live monitor's engine; all-zero before the
  /// first feed.  Restores (a checkpoint after a rollback, a shared tip)
  /// copy state, not counters, so the counters include every replayed
  /// event — the number an enforced object should report as "checking work
  /// done".
  engine::EngineStats stats() const;

  /// Restores from this checker's own checkpoints (the miss path).
  uint64_t rollbacks() const { return rollbacks_; }
  /// Previously fed levels fed again after a rollback or after adopting a
  /// tip below them (appended-for-the-first-time levels are not replay
  /// cost).
  uint64_t replayed_levels() const { return replayed_levels_; }
  /// Widest dirty-level batch one resync has received (> 1 only when a
  /// merge dirtied several levels at once — the rollback-storm shape).
  size_t peak_storm_records() const { return peak_storm_records_; }
  /// Resyncs that adopted another checker's tip.
  uint64_t tip_adoptions() const { return tip_adoptions_; }
  /// Tips in the adoptable level range whose digest differed from this
  /// checker's prefix.
  uint64_t tips_rejected() const { return tips_rejected_; }

 private:
  struct Checkpoint {
    size_t level;  // the monitor has fed levels [0, level)
    std::unique_ptr<MembershipMonitor> monitor;
  };

  std::unique_ptr<MembershipMonitor> fresh_monitor() const;
  void ensure_monitor();
  size_t last_checkpoint_level() const {
    return checkpoints_.empty() ? 0 : checkpoints_.back().level;
  }
  /// Drop the checkpoints above `level`.
  void truncate_checkpoints(size_t level);
  /// Make the live monitor a copy of `src` (nullptr: the initial state),
  /// which has fed `level` levels; the live monitor keeps its counters.
  void restore(const MembershipMonitor* src, size_t level);
  /// Restore the nearest checkpoint at or below `from_level`, eagerly
  /// releasing everything above it.
  void rollback(size_t from_level);
  /// digests_[k] for every prefix [0, k) of the builder, recomputed from
  /// the lowest dirty level up.
  void refresh_digests(const XBuilder& builder, size_t dirty);
  /// Adopt the furthest tip in (resume, levels] whose prefix matches this
  /// checker's; false when none does.
  bool adopt_tip(size_t resume, size_t levels);
  void publish_tip();
  /// A retired tip that no hazard pointer names, or nullptr.
  std::unique_ptr<Tip> reusable_tip();

  const GenLinObject* obj_;
  size_t stride_;
  size_t threads_ = 0;
  std::unique_ptr<MembershipMonitor> cur_;  // state after levels [0, fed_)
  size_t fed_ = 0;                          // levels consumed by cur_
  /// Ascending levels in (0, fed_].  Every level this checker reached, by
  /// feeding it or by adopting a tip there, lies less than `stride_` above
  /// a checkpoint or level 0; in particular
  /// fed_ < last_checkpoint_level() + stride_.
  std::vector<Checkpoint> checkpoints_;
  bool ok_ = true;
  std::vector<Event> batch_;  // append_batch scratch

  // Shared tips (empty slots_: not sharing).
  std::span<TipSlot> slots_;
  size_t self_ = 0;
  std::vector<uint64_t> digests_;      // digests_[k]: prefix [0, k)
  std::vector<uint64_t> audit_words_;  // audit builds: the hashed words
  std::vector<size_t> audit_ends_;     // audit_words_ length per prefix
  std::unique_ptr<Tip> published_;     // what slots_[self_].tip names
  std::vector<std::unique_ptr<Tip>> retired_;
  std::vector<const Tip*> hazards_;    // reusable_tip scratch

  uint64_t rollbacks_ = 0;
  uint64_t replayed_levels_ = 0;
  size_t peak_storm_records_ = 0;
  uint64_t tip_adoptions_ = 0;
  uint64_t tips_rejected_ = 0;

  // Borrowed instrumentation bundle; not owned.
  const obs::LeveledHooks* obs_ = nullptr;
};

}  // namespace selin
