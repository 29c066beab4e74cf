#include "selin/obs/trace.hpp"

#include <chrono>

namespace selin::obs {

const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kFeedRound: return "feed_round";
    case SpanKind::kRollback: return "rollback";
    case SpanKind::kResync: return "resync";
    case SpanKind::kDrainRound: return "drain_round";
    case SpanKind::kSessionBatch: return "session_batch";
  }
  return "unknown";
}

uint64_t now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           epoch)
          .count());
}

RingRecorder::RingRecorder(size_t capacity) : cap_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(cap_);
}

void RingRecorder::record(TraceEvent ev) {
  std::lock_guard<std::mutex> lock(mu_);
  ev.seq = seq_++;
  if (ring_.size() < cap_) {
    ring_.push_back(ev);
  } else {
    ring_[head_] = ev;
    head_ = (head_ + 1) % cap_;
  }
}

std::vector<TraceEvent> RingRecorder::ordered_locked() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<TraceEvent> RingRecorder::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ordered_locked();
}

std::vector<TraceEvent> RingRecorder::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out = ordered_locked();
  ring_.clear();
  head_ = 0;
  return out;
}

uint64_t RingRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

uint64_t RingRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_ - ring_.size();
}

JsonlSink::JsonlSink(std::ostream& out) : out_(&out) {}

JsonlSink::JsonlSink(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path)), out_(owned_.get()) {}

void JsonlSink::record(TraceEvent ev) {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_ == nullptr || !out_->good()) return;
  ev.seq = seq_++;
  *out_ << "{\"seq\":" << ev.seq << ",\"kind\":\"" << to_string(ev.kind)
        << "\",\"session\":" << ev.session << ",\"t_ns\":" << ev.start_ns
        << ",\"dur_ns\":" << ev.dur_ns << ",\"p0\":" << ev.p0
        << ",\"p1\":" << ev.p1 << ",\"p2\":" << ev.p2 << ",\"p3\":" << ev.p3
        << ",\"p4\":" << ev.p4 << ",\"p5\":" << ev.p5 << "}\n";
}

void JsonlSink::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_ != nullptr) out_->flush();
}

}  // namespace selin::obs
