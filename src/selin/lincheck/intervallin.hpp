// Interval-linearizability (Castañeda–Rajsbaum–Raynal [17]; Section 7.1).
//
// The third member of GenLin: an operation need not take effect at a single
// point — it may overlap an *interval* of other operations in the
// interval-sequential witness.  Concretely, the specification is a state
// machine that consumes *sets of invocations* and emits responses to
// machine-open operations at later transitions, so an operation is "open in
// the machine" across several steps.
//
// The checker generalizes the frontier scheme of LinMonitor with two closure
// moves instead of one:
//   (a) machine-invoke any non-empty subset of history-open operations that
//       are not yet in the machine (the I-sets of an interval-sequential
//       history), and
//   (b) machine-respond any machine-open operation, recording the
//       deterministic value the machine assigns.
// A history response event then filters configurations on the recorded
// value, exactly like LinMonitor.
//
// Scope note: this engine supports *deterministic-response* interval
// specifications (respond() is a function of the state and the operation),
// and treats responses one at a time — specs whose semantics depend on
// response *grouping* are out of scope.  Both restrictions are vacuous for
// the paper's exemplar objects (tasks such as write-snapshot), and
// linearizability/set-linearizability embed via singleton I-sets.
#pragma once

#include <memory>
#include <span>

#include "selin/engine/stats.hpp"
#include "selin/history/history.hpp"
#include "selin/spec/spec.hpp"

namespace selin {

/// Deterministic-response interval-sequential specification.
class IntervalSeqSpec {
 public:
  virtual ~IntervalSeqSpec() = default;
  virtual const char* name() const = 0;
  virtual std::unique_ptr<SeqState> initial() const = 0;

  /// One I-step: a non-empty set of operations enters the machine
  /// simultaneously.  Returns false if the set is not enabled in this state.
  virtual bool invoke_set(SeqState& state,
                          std::span<const OpDesc> batch) const = 0;

  /// Respond to a machine-open operation: mutate the state if needed and
  /// return the response value.  Deterministic.
  virtual Value respond(SeqState& state, const OpDesc& op) const = 0;
};

/// A facade over engine::FrontierEngine with the interval policy.
class IntervalLinMonitor final : public MembershipMonitor {
 public:
  explicit IntervalLinMonitor(const IntervalSeqSpec& spec,
                              size_t max_configs = 1 << 18);
  IntervalLinMonitor(const IntervalLinMonitor& other);
  ~IntervalLinMonitor() override;

  void feed(const Event& e) override;
  /// Batched feed: closure/dedup amortized over each consecutive run of
  /// responses; verdict and frontier identical to per-event feeding.
  void feed_batch(std::span<const Event> events) override;
  bool ok() const override;
  std::unique_ptr<MembershipMonitor> clone() const override;
  /// See LinMonitor::assign_from.
  bool assign_from(const MembershipMonitor& src) override;

  /// Forwarded to the underlying engine; clones inherit the attachment.
  void attach_obs(const obs::EngineHooks* hooks) override;

  /// Sticky overflow flag; see LinMonitor::overflowed().
  bool overflowed() const;

  /// Number of live configurations (diagnostics / determinism tests).
  size_t frontier_size() const;

  /// Execution counters of the underlying engine (see engine/stats.hpp).
  engine::EngineStats stats() const;

  /// Order-independent digest of the live frontier (XOR of mixed config
  /// fingerprints) — representation and batching parity checks.
  uint64_t frontier_digest() const;

  /// Op-set footprint of the live frontier; walks every configuration, so
  /// poll sparingly.
  engine::FrontierFootprint footprint() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One-shot test: is `h` interval-linearizable w.r.t. `spec`?
bool interval_linearizable(const IntervalSeqSpec& spec, const History& h,
                           size_t max_configs = 1 << 18);

/// GenLin adapter (owns the spec).
std::unique_ptr<GenLinObject> make_interval_linearizable_object(
    std::unique_ptr<IntervalSeqSpec> spec, size_t max_configs = 1 << 18);

/// The write-snapshot task as an interval-sequential specification (outputs
/// are bitmask views; n ≤ 64) — cross-validated in tests against the direct
/// task monitor of make_write_snapshot_object().
std::unique_ptr<IntervalSeqSpec> make_write_snapshot_interval_spec();

}  // namespace selin
