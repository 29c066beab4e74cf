// Lightweight trace layer: typed span events from the engine, the leveled
// checker and the service, delivered to a pluggable sink.
//
// Metrics (obs/metrics.hpp) aggregate; traces explain.  A latency histogram
// says rollback replays got slower, the trace says *which* resync replayed
// 400 levels and how wide the frontier was two rounds earlier.  Events are
// coarse — one per feed round, rollback, resync or drain round, never per
// configuration — so a mutex-protected sink is cheap relative to the work
// each event describes.
//
// Two sinks ship:
//   * RingRecorder — bounded in-memory ring, oldest events overwritten;
//     the always-on flight recorder a service can keep attached and dump
//     after an anomaly.
//   * JsonlSink — one JSON object per line to a stream/file
//     (`selin_check --trace <file>`); the machine-readable export.
//
// Every record() stamps a global sequence number, so events of one session
// (or one component) stay totally ordered however many threads emit them.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace selin::obs {

/// Typed span/point events.  The payload slots p0..p5 are per-kind (see
/// each enumerator); unused slots are zero.
enum class SpanKind : uint8_t {
  /// One engine closure round servicing a run of responses.
  /// p1 = post-run frontier width, p2 = responses in the run, p3 = total
  /// events fed so far.
  kFeedRound,
  /// One leveled-checker rollback.
  /// p0 = lowest dirty level, p1 = levels to replay, p2 = checkpoints kept.
  kRollback,
  /// One leveled-checker resync (possibly a whole rollback storm).
  /// p0 = dirty levels in the batch, p1 = lowest dirty level,
  /// p2 = levels replayed, p3 = levels fed after the resync.
  kResync,
  /// One MonitorService drain round.
  /// p0 = sessions serviced, p1 = events drained, p2 = events still pending.
  kDrainRound,
  /// One session batch inside a drain round.
  /// p0 = batch size, p1 = session events fed after the batch,
  /// p2 = status (0 ok, 1 rejected, 2 overflowed).
  kSessionBatch,
};

const char* to_string(SpanKind k);

struct TraceEvent {
  SpanKind kind = SpanKind::kFeedRound;
  uint64_t session = 0;   ///< session id (service) or 0 (single-tenant)
  uint64_t seq = 0;       ///< stamped by the sink: global record order
  uint64_t start_ns = 0;  ///< steady-clock ns since process start
  uint64_t dur_ns = 0;    ///< 0 for point events
  uint64_t p0 = 0, p1 = 0, p2 = 0, p3 = 0, p4 = 0, p5 = 0;
};

/// Steady-clock nanoseconds since the first call in this process (keeps
/// trace timestamps small and host-epoch-free).
uint64_t now_ns();

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// Thread-safe; stamps ev.seq.
  virtual void record(TraceEvent ev) = 0;
};

/// Bounded in-memory flight recorder: keeps the most recent `capacity`
/// events, counts what it had to drop.
class RingRecorder : public TraceSink {
 public:
  explicit RingRecorder(size_t capacity = 4096);

  void record(TraceEvent ev) override;

  /// Retained events, oldest first (copy; the ring keeps recording).
  std::vector<TraceEvent> events() const;
  /// Retained events, oldest first, clearing the ring.
  std::vector<TraceEvent> drain();

  uint64_t recorded() const;  ///< total record() calls
  uint64_t dropped() const;   ///< events overwritten by newer ones
  size_t capacity() const { return cap_; }

 private:
  std::vector<TraceEvent> ordered_locked() const;

  const size_t cap_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;  // grows to cap_, then wraps at head_
  size_t head_ = 0;               // next write position once full
  uint64_t seq_ = 0;
};

/// One JSON object per line, e.g.
///   {"seq":3,"kind":"feed_round","session":0,"t_ns":1201,"dur_ns":87,
///    "p0":0,"p1":4,"p2":2,"p3":10}
/// Keys are stable; p-slots are spelled out even when zero so consumers
/// need no per-kind schema.
class JsonlSink : public TraceSink {
 public:
  /// Writes to a caller-owned stream (must outlive the sink).
  explicit JsonlSink(std::ostream& out);
  /// Opens `path` for writing; ok() reports whether that worked.
  explicit JsonlSink(const std::string& path);

  bool ok() const { return out_ != nullptr && out_->good(); }

  void record(TraceEvent ev) override;
  void flush();

 private:
  std::unique_ptr<std::ofstream> owned_;
  std::ostream* out_;
  std::mutex mu_;
  uint64_t seq_ = 0;
};

}  // namespace selin::obs
