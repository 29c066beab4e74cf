#include "selin/parallel/executor.hpp"

#include <algorithm>

#include "selin/obs/hooks.hpp"

namespace selin::parallel {

namespace {
// Spin iterations before an idle worker parks on the condition variable.
// Drain rounds arrive in bursts while a service has backlog, so the next
// phase usually lands within the spin window; yielding keeps oversubscribed
// hosts live.
constexpr int kSpinIters = 256;

size_t resolve_lanes(size_t requested) {
  if (requested != 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}
}  // namespace

Executor::Executor(size_t lanes) : n_(resolve_lanes(lanes)) {}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void Executor::ensure_workers_locked() {
  if (!workers_.empty() || n_ == 0) return;
  workers_.reserve(n_);
  for (size_t i = 0; i < n_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  spawned_.store(workers_.size(), std::memory_order_release);
}

void Executor::run_slice(Phase& ph, size_t slice) {
  try {
    (*ph.job)(slice);
  } catch (...) {
    std::lock_guard<std::mutex> lock(ph.err_mu);
    if (ph.error == nullptr) ph.error = std::current_exception();
  }
  ph.done.fetch_add(1, std::memory_order_release);
}

void Executor::run_phase(size_t n, const std::function<void(size_t)>& job) {
  if (n == 0) return;
  const obs::ExecutorHooks* obs = obs_.load(std::memory_order_acquire);
  const uint64_t t0 = obs != nullptr ? obs::now_ns() : 0;
  if (n == 1) {
    job(0);
    if (obs != nullptr) observe_phase(*obs, t0, 1, 1);
    return;
  }
  Phase ph;
  ph.job = &job;
  ph.n = n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ensure_workers_locked();
    phases_.push_back(&ph);
    epoch_.fetch_add(1, std::memory_order_release);
  }
  cv_.notify_all();
  run_slice(ph, 0);
  // Claim whatever the worker lanes have not picked up: work-conserving on
  // an idle executor, inline-degrading (and so deadlock-free when nested)
  // on a saturated one.
  size_t caller_run = 1;  // slice 0
  for (;;) {
    size_t i = ph.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    run_slice(ph, i);
    ++caller_run;
  }
  while (ph.done.load(std::memory_order_acquire) < n) {
    std::this_thread::yield();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find(phases_.begin(), phases_.end(), &ph);
    if (it != phases_.end()) phases_.erase(it);
  }
  // Observe before the rethrow so failed phases still show up in the trace.
  if (obs != nullptr) observe_phase(*obs, t0, n, caller_run);
  if (ph.error != nullptr) std::rethrow_exception(ph.error);
}

void Executor::observe_phase(const obs::ExecutorHooks& h, uint64_t t0,
                             size_t n, size_t caller_run) {
  const uint64_t dur = obs::now_ns() - t0;
  if (h.phase_ns != nullptr) h.phase_ns->record(dur);
  if (h.phase_slices != nullptr) h.phase_slices->record(n);
  if (h.slices_caller != nullptr) h.slices_caller->add(caller_run);
  if (h.slices_worker != nullptr) h.slices_worker->add(n - caller_run);
  if (h.trace != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::SpanKind::kExecPhase;
    ev.start_ns = t0;
    ev.dur_ns = dur;
    ev.p0 = n;
    ev.p1 = caller_run;
    ev.p2 = n - caller_run;
    h.trace->record(ev);
  }
}

bool Executor::run_some() {
  Phase* ph = nullptr;
  size_t slice = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    while (!phases_.empty()) {
      Phase* p = phases_.front();
      size_t i = p->next.fetch_add(1, std::memory_order_relaxed);
      if (i < p->n) {
        ph = p;
        slice = i;
        break;
      }
      // Exhausted: stragglers are mid-slice, the owner is spinning on
      // done — nothing left to claim here.
      phases_.pop_front();
    }
    if (ph == nullptr) return false;
  }
  run_slice(*ph, slice);
  return true;
}

void Executor::worker_loop() {
  uint64_t seen = 0;
  for (;;) {
    if (run_some()) continue;  // ran one slice; look again immediately
    uint64_t e = epoch_.load(std::memory_order_acquire);
    for (int k = 0; k < kSpinIters && e == seen; ++k) {
      std::this_thread::yield();
      e = epoch_.load(std::memory_order_acquire);
    }
    if (e == seen) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               epoch_.load(std::memory_order_relaxed) != seen;
      });
      e = epoch_.load(std::memory_order_relaxed);
      if (stop_.load(std::memory_order_relaxed) && phases_.empty()) return;
    } else if (stop_.load(std::memory_order_acquire)) {
      // Missed the epoch bump of a racing shutdown: re-check for work and
      // exit once drained.
      std::lock_guard<std::mutex> lock(mu_);
      if (phases_.empty()) return;
    }
    seen = e;
  }
}

}  // namespace selin::parallel
