#include "selin/service/monitor_service.hpp"

#include <algorithm>

#include "selin/obs/export.hpp"

namespace selin::service {

Session::Session(std::string name, std::unique_ptr<SeqSpec> spec,
                 const SessionOptions& opts, uint64_t id, bool observe,
                 obs::TraceSink* trace)
    : name_(std::move(name)), spec_(std::move(spec)),
      monitor_(*spec_, opts.max_configs),
      inbox_cap_(opts.inbox_capacity == 0 ? 1 : opts.inbox_capacity),
      id_(id) {
  if (observe) {
    reg_ = std::make_unique<obs::MetricsRegistry>();
    hooks_ = obs::make_engine_hooks(*reg_, {{"session", name_}}, trace, id_);
    monitor_.attach_obs(&hooks_);
    trace_ = trace;
  }
}

obs::MetricsSnapshot Session::metrics_snapshot() {
  if (reg_ == nullptr) return {};
  obs::sample_engine_stats(*reg_, monitor_.stats(), {{"session", name_}});
  return reg_->snapshot();
}

Session::Status Session::status() const {
  if (monitor_.overflowed()) return Status::kOverflowed;
  if (!monitor_.ok()) return Status::kRejected;
  return Status::kOk;
}

bool Session::try_publish(std::span<const Event> events) {
  // A settled verdict is sticky: accept and discard, exactly like feed().
  if (settled_.load(std::memory_order_acquire)) return true;
  std::lock_guard<std::mutex> lock(inbox_mu_);
  if (inbox_.size() + events.size() > inbox_cap_) return false;
  inbox_.insert(inbox_.end(), events.begin(), events.end());
  inbox_len_.store(inbox_.size(), std::memory_order_relaxed);
  return true;
}

void Session::absorb_inbox(size_t max_buffered) {
  if (inbox_len_.load(std::memory_order_relaxed) == 0) return;
  if (settled_.load(std::memory_order_relaxed)) {
    // Input cannot change a sticky verdict; free the inbox.
    std::lock_guard<std::mutex> lock(inbox_mu_);
    inbox_.clear();
    inbox_len_.store(0, std::memory_order_relaxed);
    return;
  }
  // Memory bound: while the buffer is still deep, leave the inbox alone —
  // it fills to inbox_cap_ and publishes start bouncing (backpressure).
  if (pending() >= max_buffered) return;
  // Fewer than max_buffered events move, and the buffer then holds at most
  // max_buffered + inbox_cap_ - 1 however long the stream runs.
  drop_consumed();
  std::lock_guard<std::mutex> lock(inbox_mu_);
  buffer_.insert(buffer_.end(), inbox_.begin(), inbox_.end());
  inbox_.clear();
  inbox_len_.store(0, std::memory_order_relaxed);
}

void Session::drop_consumed() {
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<ptrdiff_t>(head_));
  head_ = 0;
}

void Session::run_one_batch(size_t limit) {
  const size_t n = std::min(limit, buffer_.size() - head_);
  if (n == 0) return;
  const uint64_t t0 = trace_ != nullptr ? obs::now_ns() : 0;
  const std::span<const Event> batch(buffer_.data() + head_, n);
  const size_t batch_start = fed_;
  try {
    monitor_.feed_batch(batch);
  } catch (const CheckerOverflow&) {
    // Sticky overflowed() on the monitor; the session reports it as a
    // status instead of letting the exception escape the drain round.
  }
  head_ += n;
  fed_ += n;
  if (!monitor_.ok() || monitor_.overflowed()) {
    if (!settled_.load(std::memory_order_relaxed)) {
      settled_.store(true, std::memory_order_release);
      // The verdict flipped somewhere inside this batch.  Events past the
      // flip (or past an overflow) were never processed — report the
      // engine's accepted count, not the batch's arrival count.
      first_bad_ = batch_start;
      fed_ = monitor_.stats().events_fed;
    }
    // Further input cannot change a sticky verdict; drop it.
    buffer_.clear();
    head_ = 0;
  } else if (head_ == buffer_.size()) {
    buffer_.clear();
    head_ = 0;
  }
  if (trace_ != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::SpanKind::kSessionBatch;
    ev.session = id_;
    ev.start_ns = t0;
    ev.dur_ns = obs::now_ns() - t0;
    ev.p0 = n;
    ev.p1 = fed_;
    ev.p2 = static_cast<uint64_t>(status());
    trace_->record(ev);
  }
}

MonitorService::MonitorService(const ServiceOptions& opts)
    : batch_limit_(opts.batch_limit == 0 ? 1 : opts.batch_limit) {
  if (opts.observe) {
    reg_ = std::make_unique<obs::MetricsRegistry>();
    trace_ = opts.trace;
    drain_sessions_ = &reg_->histogram("service_drain_sessions");
    session_lag_ = &reg_->histogram("service_session_lag");
    drain_rounds_ = &reg_->counter("service_drain_rounds_total");
    events_drained_ = &reg_->counter("service_events_drained_total");
  }
}

SessionId MonitorService::open(std::string name,
                               std::unique_ptr<SeqSpec> spec,
                               const SessionOptions& opts) {
  auto session = std::unique_ptr<Session>(
      new Session(std::move(name), std::move(spec), opts, sessions_.size(),
                  reg_ != nullptr, trace_));
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.push_back(std::move(session));
  return sessions_.size() - 1;
}

void MonitorService::close(SessionId id) {
  if (id >= sessions_.size()) return;
  // The slot is nulled under the lock so a racing find() either gets the
  // live session (the caller guarantees its producers are gone) or null;
  // the Session itself is destroyed after the lock drops.
  std::unique_ptr<Session> dead;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    dead = std::move(sessions_[id]);
  }
}

Session* MonitorService::find(SessionId id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (id >= sessions_.size()) return nullptr;
  return sessions_[id].get();
}

size_t MonitorService::live_session_count() const {
  size_t n = 0;
  for (const auto& s : sessions_) n += s != nullptr;
  return n;
}

void MonitorService::feed(SessionId id, const Event& e) {
  feed(id, std::span<const Event>(&e, 1));
}

void MonitorService::feed(SessionId id, std::span<const Event> events) {
  Session* s = sessions_[id].get();
  if (s == nullptr || s->settled_.load(std::memory_order_relaxed)) return;
  // A controller may feed faster than rounds drain, so the pending events
  // move only once the consumed prefix is as long as they are: each move is
  // paid for by a drained event, and the buffer stays within twice what is
  // pending plus the new events.
  if (s->head_ >= s->pending()) s->drop_consumed();
  s->buffer_.insert(s->buffer_.end(), events.begin(), events.end());
}

size_t MonitorService::drain_round() {
  std::vector<Session*> ready;
  ready.reserve(sessions_.size());
  const size_t n = sessions_.size();
  for (size_t k = 0; k < n; ++k) {
    Session* sp = sessions_[(rr_ + k) % n].get();
    if (sp == nullptr) continue;  // closed slot
    Session& s = *sp;
    s.absorb_inbox(batch_limit_);  // MPSC publishes join the buffered path
    if (s.pending() > 0) ready.push_back(&s);
  }
  if (ready.empty()) return 0;
  if (n > 0) rr_ = (rr_ + 1) % n;
  const uint64_t t0 = reg_ != nullptr ? obs::now_ns() : 0;
  size_t pend_before = 0;
  if (reg_ != nullptr) {
    for (Session* s : ready) {
      pend_before += s->pending();
      session_lag_->record(s->pending());  // per-session event lag at drain
    }
  }
  // Sessions are mutually independent, so each batch is fed in turn; the
  // per-session batch cap keeps the round (and thus cross-session latency)
  // bounded.
  for (Session* s : ready) s->run_one_batch(batch_limit_);
  if (reg_ != nullptr) {
    drain_rounds_->add(1);
    drain_sessions_->record(ready.size());
    // Only ready sessions held pending input, so the service-wide total is
    // their total; the delta counts settle-drops as drained (a settled
    // session's buffer is consumed either way).
    const size_t pend_after = pending();
    events_drained_->add(pend_before - pend_after);
    if (trace_ != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::SpanKind::kDrainRound;
      ev.start_ns = t0;
      ev.dur_ns = obs::now_ns() - t0;
      ev.p0 = ready.size();
      ev.p1 = pend_before - pend_after;
      ev.p2 = pend_after;
      trace_->record(ev);
    }
  }
  return ready.size();
}

void MonitorService::drain() {
  while (drain_round() > 0) {
  }
}

size_t MonitorService::pending() const {
  size_t total = 0;
  for (const auto& s : sessions_) {
    if (s != nullptr) total += s->pending();
  }
  return total;
}

obs::MetricsSnapshot MonitorService::metrics_snapshot() {
  if (reg_ == nullptr) return {};
  obs::MetricsSnapshot out = reg_->snapshot();
  for (const auto& s : sessions_) {
    if (s == nullptr) continue;
    obs::MetricsSnapshot ss = s->metrics_snapshot();
    for (auto& v : ss.values) out.values.push_back(std::move(v));
  }
  return out;
}

std::string MonitorService::metrics_json() {
  return obs::snapshot_json(metrics_snapshot());
}

}  // namespace selin::service
