// Blocking snapshot baseline: a mutex around the array.  Trivially
// linearizable but NOT wait-free — used only for differential testing and as
// the "blocking verifier" strawman the introduction argues against (a
// blocking V would weaken A's progress property).
#pragma once

#include <mutex>
#include <vector>

#include "selin/util/step_counter.hpp"
#include "selin/util/types.hpp"

namespace selin {

template <typename T>
class Snapshot;

template <typename T>
class MutexSnapshot final : public Snapshot<T> {
 public:
  MutexSnapshot(size_t n, T initial) : mem_(n, initial) {}

  void write(ProcId i, T v) override {
    std::lock_guard<std::mutex> lock(mu_);
    StepCounter::bump();
    mem_[i] = v;
  }

  void scan(ProcId /*i*/, std::vector<T>& out) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t k = 0; k < mem_.size(); ++k) StepCounter::bump();
    out.assign(mem_.begin(), mem_.end());
  }

  size_t size() const override { return mem_.size(); }
  const char* name() const override { return "mutex"; }

 private:
  std::mutex mu_;
  std::vector<T> mem_;
};

}  // namespace selin
