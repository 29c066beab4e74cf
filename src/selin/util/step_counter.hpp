// Base-object step accounting.
//
// The paper measures algorithms by *step complexity*: the maximum number of
// base-object operations a process takes to produce a response (Section 2).
// Claim 8.1 and Lemma 7.2 state O(n) step bounds for the verifier and the A*
// wrapper.  Every shared base-object operation in selin calls
// StepCounter::bump() so tests and benches can measure the realized step
// counts and check the O(n) shape empirically (bench B1/B2 in DESIGN.md).
//
// Counting is thread-local and therefore free of contention, and inline, so
// a step costs an add rather than a call; it can be toggled off globally
// for throughput benchmarks.
#pragma once

#include <atomic>
#include <cstdint>

namespace selin {

class StepCounter {
 public:
  /// Count one base-object operation (Read, Write, CAS, ...) on the calling
  /// thread.  No-op when disabled.
  static void bump() {
    if (enabled_.load(std::memory_order_relaxed)) ++local();
  }

  /// Steps taken by the calling thread since the last reset_local().
  static uint64_t local_count() { return local(); }
  static void reset_local() { local() = 0; }

  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

 private:
  static uint64_t& local() {
    thread_local uint64_t count = 0;
    return count;
  }
  static std::atomic<bool> enabled_;
};

/// RAII helper measuring the steps of a code region on this thread.
class StepProbe {
 public:
  StepProbe() : start_(StepCounter::local_count()) {}
  uint64_t steps() const { return StepCounter::local_count() - start_; }

 private:
  uint64_t start_;
};

}  // namespace selin
