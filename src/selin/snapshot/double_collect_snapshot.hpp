// Lock-free double-collect snapshot.
//
// Each entry is a single-writer register naming the cell of its last write;
// scan collects all entries twice and returns when the two collects read
// the same cells.  A write makes a fresh cell and the arena reuses none
// while the snapshot lives, so a cell names one write, as the sequence
// number of the classic algorithm does, and the classic argument shows the
// returned vector was simultaneously present at every point between the
// collects, so scans are linearizable.  Writes are wait-free (one store);
// scans are lock-free but can be starved by concurrent writers, which is
// why the paper's wait-free claims are exercised with AfekSnapshot and this
// variant is offered as the fast practical alternative (cf. [99],
// "implementations whose theoretical step complexity is worse but with good
// performance in real-world systems").
#pragma once

#include <atomic>
#include <vector>

#include "selin/util/arena.hpp"
#include "selin/util/step_counter.hpp"
#include "selin/util/types.hpp"

namespace selin {

template <typename T>
class Snapshot;

template <typename T>
class DoubleCollectSnapshot final : public Snapshot<T> {
 public:
  DoubleCollectSnapshot(size_t n, T initial) : entries_(n) {
    for (auto& e : entries_) {
      e.cell.store(arena_.create<Cell>(Cell{initial}),
                   std::memory_order_relaxed);
    }
  }

  void write(ProcId i, T v) override {
    Cell* neu = arena_.create<Cell>(Cell{v});
    StepCounter::bump();
    entries_[i].cell.store(neu, std::memory_order_release);
  }

  void scan(ProcId /*i*/, std::vector<T>& out) override {
    const size_t n = entries_.size();
    Collect<const Cell*> c[2];  // the previous collect and the latest
    collect(c[0]);
    for (size_t b = 1;; b ^= 1) {
      collect(c[b]);
      const Collect<const Cell*>& a = c[b ^ 1];
      bool clean = true;
      for (size_t k = 0; k < n; ++k) {
        if (a[k] != c[b][k]) {
          clean = false;
          break;
        }
      }
      if (clean) {
        out.resize(n);
        for (size_t k = 0; k < n; ++k) out[k] = c[b][k]->value;
        return;
      }
    }
  }

  size_t size() const override { return entries_.size(); }
  const char* name() const override { return "double-collect"; }

 private:
  struct Cell {
    T value;
  };
  struct alignas(64) Entry {
    std::atomic<Cell*> cell{nullptr};
  };

  void collect(Collect<const Cell*>& out) {
    out.clear();
    for (size_t k = 0; k < entries_.size(); ++k) {
      StepCounter::bump();
      out.push_back(entries_[k].cell.load(std::memory_order_acquire));
    }
  }

  Arena arena_;
  std::vector<Entry> entries_;
};

}  // namespace selin
