// Instrumentation hook bundles: the bridge between the observability core
// and the instrumented components.
//
// The hot paths (FrontierEngine::feed_res_run, LeveledChecker::resync)
// must not pay registry lookups, string hashing, or even a virtual call per
// event when observability is attached — and must pay nothing but one
// pointer test when it is not.  So each component holds a `const
// XxxHooks*`, null by default:
//
//   if (obs_ == nullptr) { ... untouched code path ... }
//
// and a hooks struct is a flat bundle of pre-resolved instrument pointers
// plus an optional TraceSink.  The make_*_hooks helpers register the
// canonical instrument set in a MetricsRegistry once and fill the bundle;
// callers own both the registry and the bundle storage (the component only
// borrows the pointer — attach, run, snapshot, detach-or-destroy-together).
//
// Individual members may be left null to subscribe to a subset (the
// component checks each member it uses); `session` is stamped into every
// trace event the component emits so multi-tenant traces stay attributable.
#pragma once

#include <cstdint>

#include "selin/obs/metrics.hpp"
#include "selin/obs/trace.hpp"

namespace selin::obs {

/// FrontierEngine instrumentation (engine/frontier_engine.hpp).
struct EngineHooks {
  Histogram* round_ns = nullptr;       ///< closure-round wall ns
  Histogram* frontier_width = nullptr; ///< post-response frontier width
  TraceSink* trace = nullptr;          ///< kFeedRound spans
  uint64_t session = 0;
};

/// LeveledChecker instrumentation (views/leveled_history.hpp).
struct LeveledHooks {
  Histogram* rollback_depth = nullptr;  ///< levels re-fed per rollback
  Histogram* resync_ns = nullptr;       ///< wall ns per resync call
  /// Attached to every replay monitor the checker creates (clones inherit),
  /// so rollback-storm engine work shows up under the same instruments.
  const EngineHooks* engine = nullptr;
  TraceSink* trace = nullptr;  ///< kRollback + kResync spans
  uint64_t session = 0;
};

/// Registers the canonical engine instrument set in `reg` and returns a
/// bundle pointing at it.  `labels` is applied to every instrument (e.g.
/// {{"session", name}}); `trace`/`session` are copied into the bundle.
EngineHooks make_engine_hooks(MetricsRegistry& reg, Labels labels = {},
                              TraceSink* trace = nullptr,
                              uint64_t session = 0);

/// `engine` is stored as-is (pass a bundle with the same registry/labels to
/// fold replay-monitor engine metrics into the checker's instruments).
LeveledHooks make_leveled_hooks(MetricsRegistry& reg, Labels labels = {},
                                TraceSink* trace = nullptr,
                                uint64_t session = 0,
                                const EngineHooks* engine = nullptr);

}  // namespace selin::obs
