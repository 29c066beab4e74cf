// Thread-knob encoding and execution counters of the frontier engine.
//
// This header is deliberately tiny and dependency-free so the checker
// headers (lincheck/checker.hpp etc.) can expose EngineStats without pulling
// the engine template — frontier_engine.hpp includes the sharded frontier,
// which includes the checker headers for CheckerOverflow.
//
// The `threads` knob every monitor takes is a plain size_t with one twist:
// values with the high bit set request the *adaptive* engine, which decides
// per feed round whether to run the sequential or the sharded path (see
// frontier_engine.hpp for the hysteresis).  The low bits carry the lane
// count to use when the round goes parallel; 0 means "resolve from the
// hardware".  kAutoThreads — what `selin_check --threads auto` passes — is
// the common spelling.
#pragma once

#include <cstddef>
#include <cstdint>

namespace selin::engine {

/// High bit of the `threads` knob: adaptive sequential↔sharded execution.
inline constexpr size_t kAutoFlag = size_t{1} << (sizeof(size_t) * 8 - 1);

/// Adaptive execution with hardware-resolved lane count.
inline constexpr size_t kAutoThreads = kAutoFlag;

/// Adaptive execution with an explicit lane count (tests, sized deploys).
constexpr size_t auto_threads(size_t lanes) { return kAutoFlag | lanes; }

constexpr bool is_auto_threads(size_t threads) {
  return (threads & kAutoFlag) != 0;
}

/// The lane-count request carried by an adaptive knob (0 = hardware).
constexpr size_t auto_lane_request(size_t threads) {
  return threads & ~kAutoFlag;
}

/// Execution counters of one FrontierEngine, aggregated across its
/// sequential dedup engine and every shard lane.  Clones inherit the counts
/// accumulated up to the fork (their fresh lanes then count from zero).
struct EngineStats {
  size_t lanes = 1;              ///< resolved lane count (1 = no pool)
  uint64_t events_fed = 0;       ///< events accepted by feed()
  uint64_t rounds_sequential = 0;  ///< response rounds run sequentially
  uint64_t rounds_parallel = 0;    ///< response rounds dispatched to shards
  size_t peak_frontier = 0;      ///< widest post-feed frontier observed
  uint64_t dedup_probes = 0;     ///< fingerprint probes across all dedup sets
  uint64_t dedup_hits = 0;       ///< probes that found a duplicate
  uint64_t states_recycled = 0;  ///< StatePool acquisitions served from pool
  uint64_t mode_switches = 0;    ///< adaptive representation migrations

  // Data-oriented hot-path counters (PR 8).
  uint64_t probe_batches = 0;    ///< batched dedup probe groups resolved
  uint64_t prefetch_batches = 0;  ///< groups that issued slot prefetches
  uint64_t filter_in_place_rounds = 0;  ///< in-place swap-partition filters
};

/// Merge `from` into `into`: counters add, widths/lane counts take the
/// maximum.  The aggregation callers use to report one EngineStats for a
/// group of engines (MonitorCore's per-checker monitors, a cluster's
/// sessions) under the same 12-key JSON schema as a single engine.
inline void accumulate(EngineStats& into, const EngineStats& from) {
  into.lanes = into.lanes > from.lanes ? into.lanes : from.lanes;
  into.events_fed += from.events_fed;
  into.rounds_sequential += from.rounds_sequential;
  into.rounds_parallel += from.rounds_parallel;
  into.peak_frontier =
      into.peak_frontier > from.peak_frontier ? into.peak_frontier
                                              : from.peak_frontier;
  into.dedup_probes += from.dedup_probes;
  into.dedup_hits += from.dedup_hits;
  into.states_recycled += from.states_recycled;
  into.mode_switches += from.mode_switches;
  into.probe_batches += from.probe_batches;
  into.prefetch_batches += from.prefetch_batches;
  into.filter_in_place_rounds += from.filter_in_place_rounds;
}

/// Aggregate op-set footprint of a live frontier (bench_frontier_memory).
/// `opset_bytes` is what the run-length sets actually occupy;
/// `opset_smallvec_bytes` is what the flat SmallVec representation they
/// replaced would occupy for the same contents (small_vec_model_bytes in
/// util/interval_set.hpp).
struct FrontierFootprint {
  size_t configs = 0;
  size_t opset_elems = 0;
  size_t opset_bytes = 0;
  size_t opset_smallvec_bytes = 0;
};

}  // namespace selin::engine
