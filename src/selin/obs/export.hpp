// Machine-readable export of the observability state.
//
// Two formats over one MetricsSnapshot:
//
//   * snapshot_json — a single JSON document:
//       {"metrics":[{"name":...,"labels":{...},"kind":"counter","value":N},
//                   {...,"kind":"histogram","count":N,"sum":N,"max":N,
//                    "p50":N,"p99":N,"buckets":[[le,count],...]}, ...]}
//     (`selin_check --metrics <file|->`, MonitorService::metrics_snapshot
//     consumers, the future ingest daemon's stats endpoint).
//
//   * prometheus_text — the Prometheus exposition format, one line per
//     sample; histograms expand into cumulative `_bucket{le=...}` samples
//     plus `_sum`/`_count`, so the output scrapes directly.
//
// engine_stats_json serializes engine::EngineStats with stable key names —
// the `selin_check --stats-json` contract (tests/selin_check_cli_test.sh
// pins the keys) — and sample_engine_stats mirrors the same counters into
// registry gauges so engine totals appear next to the obs instruments in
// every export.
#pragma once

#include <string>

#include "selin/engine/stats.hpp"
#include "selin/obs/metrics.hpp"

namespace selin::obs {

std::string snapshot_json(const MetricsSnapshot& snap);

/// Convenience: snapshot `reg` and render it.
std::string snapshot_json(const MetricsRegistry& reg);

std::string prometheus_text(const MetricsSnapshot& snap);
std::string prometheus_text(const MetricsRegistry& reg);

/// One JSON object with every EngineStats counter under a stable key
/// (events_fed, rounds_sequential, peak_frontier, dedup_probes, dedup_hits,
/// states_recycled, probe_batches, prefetch_batches,
/// filter_in_place_rounds).
std::string engine_stats_json(const engine::EngineStats& s);

/// Mirrors `s` into gauges named engine_<counter> (labels applied to each),
/// overwriting earlier samples.  Call at snapshot/export time — gauge
/// set() is controller-thread-only.
void sample_engine_stats(MetricsRegistry& reg, const engine::EngineStats& s,
                         Labels labels = {});

}  // namespace selin::obs
