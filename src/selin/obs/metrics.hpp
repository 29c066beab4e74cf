// Low-overhead metrics core of the observability subsystem.
//
// The monitors this repo builds are meant to watch long-lived concurrent
// systems, so the monitor itself must be watchable without perturbing the
// thing it measures.  Three instrument kinds cover what the engine, the
// executor, the leveled checker and the service need to expose:
//
//   * Counter — monotone event counts (slices run, tasks posted).  Writes
//     land on per-lane cache-line-padded slots indexed by a stable
//     per-thread lane, so concurrent writers never contend on one line;
//     value() aggregates the slots at read time.  Reads are racy-by-design
//     snapshots (monotone counters only ever undercount in-flight adds).
//
//   * Gauge — a last-written level (an engine_* stats sample).  add() is
//     lane-sharded like Counter; set() collapses the value into lane 0 and
//     is reserved for single-writer (controller-thread) gauges.
//
//   * Histogram — fixed-bucket log2 distribution for latencies and widths.
//     record() is two atomic increments (the sum's a release) plus a max
//     update; the bucket of value v is bit_width(v), so bucket b counts
//     values in [2^(b-1), 2^b) and no configuration or allocation is ever
//     needed.
//
// MetricsRegistry owns instruments by (name, labels) identity: the first
// caller registers, later callers get the same instrument back, and
// snapshot() walks everything into a plain-data MetricsSnapshot that the
// export layer (obs/export.hpp) renders as JSON or Prometheus text.
// Registration takes a mutex; the hot path never touches the registry —
// components resolve their instruments once at attach time and keep raw
// pointers (stable for the registry's lifetime; entries are deque-backed
// and never erased).
//
// Cost when unattached: the instrumented components hold a null hooks
// pointer (obs/hooks.hpp) and skip everything behind one branch — the
// overhead bench (bench/bench_obs_overhead.cpp) pins both that and the
// attached cost.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace selin::obs {

/// Slots a sharded instrument spreads its writers over.  A power of two so
/// the lane hash is a mask; 16 covers kAutoMaxLanes-sized pools twice over.
inline constexpr size_t kMetricLanes = 16;

/// Stable per-thread lane in [0, kMetricLanes): threads pick distinct lanes
/// round-robin on first use, so up to kMetricLanes concurrent writers never
/// share a slot (beyond that, lanes recycle).
size_t this_thread_lane();

/// One cache-line-padded counter slot (the sharding unit).
struct alignas(64) MetricCell {
  std::atomic<uint64_t> v{0};
};

class Counter {
 public:
  void add(uint64_t n) { cells_[this_thread_lane()].v.fetch_add(n, std::memory_order_relaxed); }
  void inc() { add(1); }

  uint64_t value() const {
    uint64_t total = 0;
    for (const MetricCell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  MetricCell cells_[kMetricLanes];
};

class Gauge {
 public:
  /// Lane-sharded delta (value() sums the lanes).
  void add(int64_t d) {
    cells_[this_thread_lane()].v.fetch_add(static_cast<uint64_t>(d),
                                           std::memory_order_relaxed);
  }
  /// Absolute level; single-writer gauges only (collapses into lane 0).
  void set(int64_t v) {
    cells_[0].v.store(static_cast<uint64_t>(v), std::memory_order_relaxed);
    for (size_t i = 1; i < kMetricLanes; ++i) {
      cells_[i].v.store(0, std::memory_order_relaxed);
    }
  }

  int64_t value() const {
    uint64_t total = 0;
    for (const MetricCell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return static_cast<int64_t>(total);
  }

 private:
  MetricCell cells_[kMetricLanes];
};

/// Fixed-bucket base-2 log-scale histogram.  Bucket b counts values v with
/// std::bit_width(v) == b, i.e. bucket 0 holds v == 0 and bucket b >= 1
/// holds [2^(b-1), 2^b).  64 buckets span the whole uint64_t range, so
/// nanosecond latencies and frontier widths share one shape with ~2x
/// resolution and zero configuration.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;  // bit_width(v) in [0, 64]

  void record(uint64_t v);

  uint64_t count() const;
  uint64_t sum() const { return sum_.load(std::memory_order_acquire); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket b (2^b - 1; saturates at UINT64_MAX).
  static uint64_t bucket_bound(size_t b);
  /// Upper bound of the bucket containing the q-quantile (q in [0, 1]) of
  /// the recorded values — a log-resolution estimate, not an exact rank.
  uint64_t approx_quantile(double q) const;

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Metric labels: sorted (key, value) pairs; part of the instrument's
/// identity in the registry.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

/// Plain-data copy of one instrument at snapshot time.
struct MetricValue {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter = 0;                  // kCounter
  int64_t gauge = 0;                     // kGauge
  uint64_t count = 0, sum = 0, max = 0;  // kHistogram
  /// Non-empty buckets only: (inclusive upper bound, count).
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
};

struct MetricsSnapshot {
  std::vector<MetricValue> values;

  /// First value with this name (and, if given, exact labels); nullptr when
  /// absent.  Test/diagnostic convenience.
  const MetricValue* find(std::string_view name,
                          const Labels* labels = nullptr) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-register.  The returned reference is stable for the registry's
  /// lifetime; repeated calls with the same (name, labels) return the same
  /// instrument.  Requesting an existing name with a different kind throws
  /// std::logic_error (a misconfiguration, not a runtime condition).
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  Histogram& histogram(std::string_view name, Labels labels = {});

  /// Consistent-enough copy of every instrument: each value is an atomic
  /// read; concurrent writers may land between reads of different
  /// instruments (monotone counters only ever read low).  A histogram's sum
  /// is read before its buckets, so its count covers every record the sum
  /// does.
  MetricsSnapshot snapshot() const;

  size_t size() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind;
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<Histogram> h;
  };
  Entry& find_or_make(std::string_view name, Labels&& labels,
                      MetricKind kind);

  mutable std::mutex mu_;
  std::deque<Entry> entries_;  // deque: stable addresses, never erased
};

}  // namespace selin::obs
