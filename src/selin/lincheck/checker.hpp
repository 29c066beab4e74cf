// Linearizability membership checking (the predicate P_O of Section 3).
//
// Deciding whether a finite history is linearizable is NP-complete in
// general [51, 82]; the paper assumes each process "can locally test if a
// given finite history satisfies P_O" (Section 3).  We provide that local
// test in three forms:
//
//  1. LinMonitor — an *incremental* checker in the style of Wing & Gong's
//     configuration search: it maintains the frontier of all configurations
//     (sequential-machine state + set of linearized-but-unresponded
//     operations with their assigned results) consistent with the events fed
//     so far.  Feeding is amortized; the verifier re-uses monitors across
//     loop iterations via clone() (Section 8's repeated Line-10 tests).
//
//  2. find_linearization — a memoized DFS that additionally returns a
//     sequential witness history (the linearization S of Definition 4.2),
//     used for certificates (Theorem 8.2(3)) and for validating monitors in
//     property tests.
//
//  3. linearizable_bruteforce — an exhaustive reference oracle for small
//     histories, used only by tests to cross-validate 1 and 2.
//
// Pending operations are handled per Definition 4.2: a pending operation may
// be linearized (its response is "appended" with the spec-determined value)
// or dropped (its invocation removed by comp()).
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>

#include "selin/engine/stats.hpp"
#include "selin/history/history.hpp"
#include "selin/spec/spec.hpp"

namespace selin {

/// Thrown when the configuration frontier exceeds the exploration budget;
/// callers may treat it as "unknown" or re-try with a larger budget.  The
/// frontier is bounded by (spec states reachable) x (orders of open ops), and
/// open ops are bounded by n, so in the wait-free setting overflow indicates
/// a pathological workload rather than a big history.
class CheckerOverflow : public std::runtime_error {
 public:
  CheckerOverflow() : std::runtime_error("linearizability frontier overflow") {}
};

/// Incremental linearizability monitor for a deterministic sequential spec.
///
/// A thin facade over engine::FrontierEngine (engine/frontier_engine.hpp)
/// with the linearizability policy.
class LinMonitor final : public MembershipMonitor {
 public:
  explicit LinMonitor(const SeqSpec& spec, size_t max_configs = 1 << 18);
  LinMonitor(const LinMonitor& other);
  ~LinMonitor() override;

  void feed(const Event& e) override;
  /// Batched feed: closure/dedup amortized over each consecutive run of
  /// responses; verdict and frontier identical to per-event feeding.
  void feed_batch(std::span<const Event> events) override;
  bool ok() const override;
  std::unique_ptr<MembershipMonitor> clone() const override;
  /// engine::FrontierEngine::assign_from; false for a non-LinMonitor `src`.
  bool assign_from(const MembershipMonitor& src) override;
  /// engine::FrontierEngine::swap_state; false for another monitor type.
  bool swap_state(MembershipMonitor& other) override;

  /// Forwarded to the underlying engine (engine::FrontierEngine::set_obs);
  /// clones inherit the attachment.
  void attach_obs(const obs::EngineHooks* hooks) override;

  /// True once a feed overflowed the exploration budget.  The overflowing
  /// feed releases every in-flight configuration and rethrows
  /// CheckerOverflow; afterwards the monitor is sticky — further feeds are
  /// ignored and ok() keeps its last definite value, so callers that caught
  /// the overflow must treat the verdict as unknown, not reuse it.
  bool overflowed() const;

  /// Number of live configurations (diagnostics / bench counters).
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

/// One-shot test: is `h` linearizable with respect to `spec`?
bool linearizable(const SeqSpec& spec, const History& h,
                  size_t max_configs = 1 << 18);

/// DFS with memoization returning a linearization S (a sequential history of
/// complete operations, Definition 4.2) when one exists.
std::optional<History> find_linearization(const SeqSpec& spec,
                                          const History& h,
                                          size_t max_visited = 1 << 20);

/// Exhaustive reference oracle (exponential; tests only, |ops| <= ~8).
bool linearizable_bruteforce(const SeqSpec& spec, const History& h);

}  // namespace selin
