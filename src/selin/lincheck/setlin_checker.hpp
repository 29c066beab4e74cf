// Set-linearizability membership (Neiger [81]; Section 7.1).
//
// Same frontier scheme as LinMonitor, except a closure step linearizes a
// non-empty *batch* of open operations simultaneously through the
// set-sequential transition.  Everything the paper proves for GenLin applies
// unchanged: set-linearizable objects are closed by prefixes and similarity
// (Section 7.1), so they can be plugged into the verifier as GenLin objects.
#pragma once

#include <memory>

#include "selin/engine/stats.hpp"
#include "selin/history/history.hpp"
#include "selin/spec/spec.hpp"

namespace selin {

/// A facade over engine::FrontierEngine with the set-linearizability policy.
class SetLinMonitor final : public MembershipMonitor {
 public:
  explicit SetLinMonitor(const SetSeqSpec& spec,
                         size_t max_configs = 1 << 18);
  SetLinMonitor(const SetLinMonitor& other);
  ~SetLinMonitor() override;

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

/// One-shot test: is `h` set-linearizable with respect to `spec`?
bool set_linearizable(const SetSeqSpec& spec, const History& h,
                      size_t max_configs = 1 << 18);

}  // namespace selin
