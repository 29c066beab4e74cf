// Sequential specifications (Definition 4.1) and abstract GenLin objects
// (Section 7.1).
//
// A sequential specification is a deterministic state machine: δ(q, op)
// returns (q', res).  The paper allows non-deterministic machines; all the
// objects it names (queue, stack, set, priority queue, counter, consensus)
// are deterministic, and determinism is what makes the membership test
// tractable, so the SeqState interface is deterministic.  Non-deterministic
// conditions are still expressible through the GenLinObject membership
// interface, which is just the predicate P_O of Section 3.
//
// GenLin (Definition 7.2) is the class of abstract objects — sets of
// well-formed finite histories — closed under prefixes and similarity.  In
// code a GenLinObject is a membership oracle over histories; monitors give
// the incremental form used by the verifier so that re-checking after each
// operation does not restart from scratch.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "selin/engine/stats.hpp"
#include "selin/history/history.hpp"

namespace selin::obs {
struct EngineHooks;  // obs/hooks.hpp — instrumentation bundle, borrowed
}  // namespace selin::obs

namespace selin {

/// Deterministic sequential state machine state (Definition 4.1).
class SeqState {
 public:
  virtual ~SeqState() = default;
  virtual std::unique_ptr<SeqState> clone() const = 0;

  /// δ: apply the operation, mutate the state, return the response.
  virtual Value step(Method m, Value arg) = 0;

  /// Canonical encoding; two states are equal iff their encodings are equal.
  /// Ground truth for state identity; the checkers' hot paths use
  /// fingerprint() instead and fall back to encode() only for the debug
  /// collision audit and diagnostics.
  virtual std::string encode() const = 0;

  /// 64-bit state fingerprint: equal encodings must yield equal
  /// fingerprints.  The default hashes encode(); concrete specs override
  /// with direct hashing so deduplication never materializes a string.
  virtual uint64_t fingerprint() const;

  /// Overwrite *this with a copy of `src` (same dynamic type), reusing
  /// internal container capacity.  Returns false when the concrete type does
  /// not support it (callers then fall back to clone()).  Enables the
  /// checkers' state pool to recycle discarded configurations with zero
  /// allocation in steady state.
  virtual bool assign_from(const SeqState& src);
};

class SeqSpec {
 public:
  virtual ~SeqSpec() = default;
  virtual const char* name() const = 0;
  virtual std::unique_ptr<SeqState> initial() const = 0;
};

/// Set-sequential specification (set-linearizability, Neiger [81]): the
/// transition consumes a non-empty *set* of operations that take effect
/// simultaneously.
class SetSeqSpec {
 public:
  virtual ~SetSeqSpec() = default;
  virtual const char* name() const = 0;
  virtual std::unique_ptr<SeqState> initial() const = 0;

  /// Simultaneous transition on `batch`; writes the per-op responses into
  /// `out` (same length) and returns true, or returns false if the batch is
  /// not enabled in this state.  Must be deterministic.
  virtual bool step_set(SeqState& state, std::span<const OpDesc> batch,
                        std::span<Value> out) const = 0;
};

/// Incremental membership monitor: feed events one at a time, query the
/// verdict.  clone() supports the leveled checker's rollback on late records.
class MembershipMonitor {
 public:
  virtual ~MembershipMonitor() = default;
  virtual void feed(const Event& e) = 0;

  /// Feed a batch of events.  Semantically identical to feeding them one at
  /// a time (same final verdict and frontier); monitors that can amortize
  /// per-event work across the batch override this — the frontier checkers
  /// run their closure once per run of consecutive responses instead of
  /// once per response.
  virtual void feed_batch(std::span<const Event> events) {
    for (const Event& e : events) feed(e);
  }

  /// Membership verdict for everything fed so far.  Once false, stays false.
  virtual bool ok() const = 0;
  virtual std::unique_ptr<MembershipMonitor> clone() const = 0;

  /// Overwrite the membership state (what has been fed, and the verdict)
  /// with a copy of `src`'s, which has the same concrete type.  Unlike
  /// clone(), *this keeps its own engine counters, scratch capacity and obs
  /// attachment, so a monitor restored this way still reports the work it
  /// did.  Default: unsupported, returns false; callers fall back to
  /// clone().
  virtual bool assign_from(const MembershipMonitor& src) {
    (void)src;
    return false;
  }

  /// Attach observability instruments (obs/hooks.hpp; nullptr detaches).
  /// The bundle must outlive the monitor and every clone taken from it —
  /// clones inherit the attachment.  Default: no-op, for monitors without
  /// an instrumented engine.
  virtual void attach_obs(const obs::EngineHooks* hooks) { (void)hooks; }

  /// Execution counters of the monitor's engine (engine/stats.hpp).
  /// Default: all-zero, for monitors without an instrumented engine; the
  /// frontier-engine facades report their real counters, which is how
  /// enforced objects surface engine stats through LeveledChecker /
  /// MonitorCore without knowing the concrete checker type.
  virtual engine::EngineStats stats() const { return {}; }
};

/// An abstract object in the sense of Section 7.1: a set of well-formed
/// finite histories; contains() is the correctness predicate P_O.
class GenLinObject {
 public:
  virtual ~GenLinObject() = default;
  virtual const char* name() const = 0;
  virtual std::unique_ptr<MembershipMonitor> monitor() const = 0;

  /// A monitor running its membership test on up to `threads` shards (the
  /// parallel frontier engine); objects without a parallel engine fall back
  /// to the default monitor.  `threads == 0` means "the object's default";
  /// engine::kAutoThreads (engine/stats.hpp) requests adaptive
  /// sequential↔sharded execution chosen per feed round.
  virtual std::unique_ptr<MembershipMonitor> monitor(size_t threads) const {
    (void)threads;
    return monitor();
  }

  /// One-shot membership test (P_O).  Default: replay through a monitor.
  virtual bool contains(const History& h) const;
};

/// Runs a *sequential* history through the spec; true iff every response
/// matches δ.  Used to validate linearizations produced by the checker.
bool seq_history_valid(const SeqSpec& spec, const History& sequential);

// ---- Concrete specification factories -------------------------------------

std::unique_ptr<SeqSpec> make_queue_spec();
std::unique_ptr<SeqSpec> make_stack_spec();
std::unique_ptr<SeqSpec> make_set_spec();
std::unique_ptr<SeqSpec> make_pqueue_spec();
std::unique_ptr<SeqSpec> make_counter_spec();
std::unique_ptr<SeqSpec> make_register_spec(Value initial = 0);
std::unique_ptr<SeqSpec> make_consensus_spec();
std::unique_ptr<SetSeqSpec> make_exchanger_spec();

/// The write-snapshot task (Section 9.3) as a GenLin object; outputs are
/// bitmask views over process ids (n ≤ 64).  Interval-linearizable but not
/// linearizable, demonstrating GenLin strictly beyond linearizability.
std::unique_ptr<GenLinObject> make_write_snapshot_object(size_t n);

}  // namespace selin
