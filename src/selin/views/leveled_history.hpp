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
// Each verifier process owns one builder/checker pair and feeds it from its
// own snapshots (Line 08 of Figure 10), mirroring the paper's "each process
// locally tests" discipline — the *protocol* stays single-threaded.  The
// membership monitors may still run the sharded frontier engine (the
// `threads` knob), whose helper threads are not visible through the
// snapshot object M.
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

/// Memoizing membership evaluator over an XBuilder.
///
/// Keeps one live monitor at the current frontier plus sparse checkpoints
/// every `stride` levels; a change at level k restores the nearest
/// checkpoint at or below k and replays forward.  Appends — the
/// overwhelmingly common case — advance the live monitor directly, so the
/// amortized per-operation cost is one level.
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
  /// across the segment (checkpoint policy applied at every stride
  /// boundary, exactly as per-level feeding would).  resync() calls this;
  /// exposed for callers that append without a dirty set.
  void append_batch(const XBuilder& builder);

  bool ok() const { return ok_; }

  /// Attach observability instruments (obs/hooks.hpp; nullptr detaches).
  /// Attach before the first resync: the live monitor and every checkpoint
  /// cloned from it inherit `hooks->engine`, so rollback replays report into
  /// the same engine instruments; attaching mid-run only reaches monitors
  /// created afterwards.  The bundle must outlive the checker.
  void set_obs(const obs::LeveledHooks* hooks);

  /// Materialized checkpoints: exactly levels_fed() / stride after any
  /// resync — the eager-release regression tests key on that.
  size_t checkpoint_count() const { return checkpoints_.size(); }

  /// Levels consumed by the live monitor (diagnostics).
  size_t levels_fed() const { return fed_; }

  /// Execution counters of the live monitor's engine; all-zero before the
  /// first feed.  Checkpoint clones re-count from the fork, so after a
  /// rollback the counters reflect the state actually replayed — the number
  /// an enforced object should report as "checking work done".
  engine::EngineStats stats() const;

  uint64_t rollbacks() const { return rollbacks_; }
  /// Previously fed levels re-fed by rollbacks (appended-for-the-first-time
  /// levels are not replay cost).
  uint64_t replayed_levels() const { return replayed_levels_; }
  /// Widest dirty-level batch one resync has received (> 1 only when a
  /// merge dirtied several levels at once — the rollback-storm shape).
  size_t peak_storm_records() const { return peak_storm_records_; }

 private:
  void ensure_monitor();
  /// Restore the nearest checkpoint at or below `from_level`, eagerly
  /// releasing everything above it.
  void rollback(size_t from_level);

  const GenLinObject* obj_;
  size_t stride_;
  size_t threads_ = 0;
  std::unique_ptr<MembershipMonitor> cur_;  // state after levels [0, fed_)
  size_t fed_ = 0;                          // levels consumed by cur_
  /// checkpoints_[i] = monitor state after (i+1)*stride_ levels.
  std::vector<std::unique_ptr<MembershipMonitor>> checkpoints_;
  bool ok_ = true;
  std::vector<Event> batch_;  // append_batch scratch

  uint64_t rollbacks_ = 0;
  uint64_t replayed_levels_ = 0;
  size_t peak_storm_records_ = 0;

  // Borrowed instrumentation bundle; not owned.
  const obs::LeveledHooks* obs_ = nullptr;
};

}  // namespace selin
