// Shared worker threads of the monitoring service.
//
// A service multiplexing thousands of independent sessions cannot afford a
// thread set per session: thousands of mostly idle lanes oversubscribe the
// host long before the checkers saturate it.  Executor is the one owner of
// worker threads.  Clients *lease* lanes per phase instead of holding them:
//
//   * run_phase(n, job) — SPMD dispatch: job(i) for i in [0, n).  Slice 0
//     runs on the calling thread; slices 1..n-1 are published for the worker
//     lanes to claim.  The caller claims unstarted slices itself once its
//     own slice is done, so a saturated executor degrades to inline
//     execution instead of blocking — which also makes nested phases
//     deadlock-free by construction.  Returns when every slice has
//     finished; rethrows the first job exception.  MonitorService runs
//     each drain round as one phase, one slice per pending session.
//
// Worker lanes are spawned lazily: a phase of n slices spawns lanes until
// min(lanes(), n - 1) exist (slice 0 runs on the caller), so a wider phase
// grows the set and a lane cap alone never becomes a thread count.  Lanes
// park on a spin-then-condition-variable pickup: an executor that never
// receives work costs nothing but this object, and an idle one consumes no
// CPU.  Destruction joins the lanes — the single shutdown path.
//
// Sharing: one Executor can serve any number of MonitorServices
// concurrently; total threads stay bounded by lanes() no matter how many
// clients multiplex over it.  Phases of different clients never
// synchronize through the executor beyond FIFO pickup, so each phase keeps
// its own completion counter.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace selin::obs {
struct ExecutorHooks;  // obs/hooks.hpp — instrumentation bundle, borrowed
}  // namespace selin::obs

namespace selin::parallel {

class Executor {
 public:
  /// `lanes` = worker-thread cap; 0 resolves from the hardware.
  explicit Executor(size_t lanes = 0);
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  ~Executor();

  /// Worker-thread cap (the bound a multi-tenant deployment sizes to the
  /// host; MonitorService asserts spawned threads never exceed it).
  size_t lanes() const { return n_; }

  /// Worker threads actually created so far (0 until the first phase of
  /// two or more slices; never exceeds lanes()).
  size_t threads_spawned() const {
    return spawned_.load(std::memory_order_acquire);
  }

  /// SPMD phase: run job(i) for every i in [0, n); see the header comment
  /// for the slice-claiming protocol.  Rethrows the first job exception
  /// after every slice has finished.
  void run_phase(size_t n, const std::function<void(size_t)>& job);

  /// Attach observability instruments (obs/hooks.hpp; nullptr detaches).
  /// The bundle must outlive the executor or a later set_obs(nullptr); the
  /// pointer is read with acquire loads so attaching while worker lanes are
  /// live is safe (lanes mid-slice may still finish under the old bundle).
  /// Detached — the default — every entry point pays one pointer test.
  void set_obs(const obs::ExecutorHooks* hooks) {
    obs_.store(hooks, std::memory_order_release);
  }

 private:
  /// One in-flight run_phase, stack-allocated by its caller; lives in
  /// phases_ only while it still has unclaimed slices.
  struct Phase {
    const std::function<void(size_t)>* job = nullptr;
    size_t n = 0;
    std::atomic<size_t> next{1};  // slice 0 is the caller's
    std::atomic<size_t> done{0};  // completed slices (including 0)
    std::mutex err_mu;
    std::exception_ptr error;     // first job exception
  };

  void run_slice(Phase& ph, size_t slice);
  /// Record one finished phase into `h` (metrics + kExecPhase span).
  void observe_phase(const obs::ExecutorHooks& h, uint64_t t0, size_t n,
                     size_t caller_run);
  /// Spawn lanes until min(want, lanes()) exist.
  void ensure_workers_locked(size_t want);
  void worker_loop();
  /// Claim and run one slice; false when nothing was pending.
  bool run_some();

  size_t n_;
  std::atomic<size_t> spawned_{0};
  std::atomic<const obs::ExecutorHooks*> obs_{nullptr};

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Phase*> phases_;                 // with unclaimed slices
  std::atomic<uint64_t> epoch_{0};            // bumped per phase arrival
  std::atomic<bool> stop_{false};             // written under mu_
  std::vector<std::thread> workers_;          // spawned lazily
};

}  // namespace selin::parallel
