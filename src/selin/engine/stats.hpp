// Execution counters of the frontier engine.
//
// This header is deliberately tiny and dependency-free so the checker
// headers (lincheck/checker.hpp etc.) can expose EngineStats without pulling
// the engine template.
#pragma once

#include <cstddef>
#include <cstdint>

namespace selin::engine {

/// Execution counters of one FrontierEngine.  Clones inherit the counts
/// accumulated up to the fork.
struct EngineStats {
  uint64_t events_fed = 0;       ///< events accepted by feed()
  uint64_t rounds_sequential = 0;  ///< response rounds (closure + filters)
  size_t peak_frontier = 0;      ///< widest post-feed frontier observed
  uint64_t dedup_probes = 0;     ///< fingerprint probes across all dedup sets
  uint64_t dedup_hits = 0;       ///< probes that found a duplicate
  uint64_t states_recycled = 0;  ///< StatePool acquisitions served from pool

  // Data-oriented hot-path counters.
  uint64_t probe_batches = 0;    ///< batched dedup probe groups resolved
  uint64_t prefetch_batches = 0;  ///< groups that issued slot prefetches
  uint64_t filter_in_place_rounds = 0;  ///< in-place swap-partition filters
};

/// Merge `from` into `into`: counters add, the peak width takes the
/// maximum.  The aggregation callers use to report one EngineStats for a
/// group of engines (MonitorCore's per-checker monitors, a cluster's
/// sessions) under the same 9-key JSON schema as a single engine.
inline void accumulate(EngineStats& into, const EngineStats& from) {
  into.events_fed += from.events_fed;
  into.rounds_sequential += from.rounds_sequential;
  into.peak_frontier =
      into.peak_frontier > from.peak_frontier ? into.peak_frontier
                                              : from.peak_frontier;
  into.dedup_probes += from.dedup_probes;
  into.dedup_hits += from.dedup_hits;
  into.states_recycled += from.states_recycled;
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
