// Wait-free atomic snapshot of Afek, Attiya, Dolev, Gafni, Merritt and
// Shavit [1] — the implementation the paper's Lines 02/05 (Figure 7) and
// Lines 07/08 (Figure 10) assume: linearizable, wait-free, built from
// single-writer read/write registers only (consensus number 1).
//
// Each register holds (value, seq, embedded scan).  A Write first performs an
// embedded Scan, then publishes (v, seq+1, scan).  A Scan repeatedly double
// collects; a clean double collect is returned directly, and otherwise some
// writer moved — after a writer is seen to move *twice* during one Scan, its
// embedded scan is entirely contained in the Scan's interval and is borrowed.
// At most n+1 double collects, hence O(n^2) reads per Scan and per Write.
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
class AfekSnapshot final : public Snapshot<T> {
 public:
  AfekSnapshot(size_t n, T initial) : entries_(n) {
    // The initial embedded scan is the all-initial vector.
    std::vector<T> init(n, initial);
    const T* vec = arena_.copy_range(init.data(), n);
    for (auto& e : entries_) {
      e.cell.store(arena_.create<Cell>(Cell{initial, 0, vec}),
                   std::memory_order_relaxed);
    }
  }

  void write(ProcId i, T v) override {
    std::vector<T>& embedded = entries_[i].embedded;  // only i writes entry i
    scan(i, embedded);
    Cell* old = entries_[i].cell.load(std::memory_order_relaxed);
    Cell* neu = arena_.create<Cell>(
        Cell{v, old->seq + 1, arena_.copy_range(embedded.data(),
                                                embedded.size())});
    StepCounter::bump();
    // seq_cst, as are the collects' loads: a scan that borrows writer k's
    // embedded scan relies on that scan having started after its own
    // first collect, hence after every write that returned before the
    // scan began, the scanner's own included.  A release store may still
    // sit in the writer's store buffer while its next scan runs, and k's
    // embedded scan may then miss it: the scan returns without its own
    // write (SnapshotTest.WriterScansSeeOwnWrites caught it once scans
    // stopped allocating).  In the single total order of seq_cst
    // operations the write precedes the scanner's first collect, which
    // precedes k's first observed move, which precedes k's embedded scan.
    entries_[i].cell.store(neu, std::memory_order_seq_cst);
  }

  void scan(ProcId /*i*/, std::vector<T>& out) override {
    const size_t n = entries_.size();
    Collect<const Cell*> c[2];  // the previous collect and the latest
    Collect<uint8_t> moved;
    for (size_t k = 0; k < n; ++k) moved.push_back(0);
    collect(c[0]);
    for (size_t b = 1;; b ^= 1) {
      collect(c[b]);
      const Collect<const Cell*>& a = c[b ^ 1];
      bool clean = true;
      for (size_t k = 0; k < n; ++k) {
        if (a[k]->seq != c[b][k]->seq) {
          clean = false;
          if (moved[k]) {
            // k moved twice within this scan: its embedded scan was taken
            // entirely inside our interval; borrow it.
            out.assign(c[b][k]->embedded, c[b][k]->embedded + n);
            return;
          }
          moved[k] = 1;
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
  const char* name() const override { return "afek"; }

 private:
  struct Cell {
    T value;
    uint64_t seq;
    const T* embedded;  // arena-owned array of size n
  };
  struct alignas(64) Entry {
    std::atomic<Cell*> cell{nullptr};
    std::vector<T> embedded;  // write()'s scan buffer; only the writer's
  };

  void collect(Collect<const Cell*>& out) {
    out.clear();
    for (size_t k = 0; k < entries_.size(); ++k) {
      StepCounter::bump();
      out.push_back(entries_[k].cell.load(std::memory_order_seq_cst));
    }
  }

  Arena arena_;
  std::vector<Entry> entries_;
};

}  // namespace selin
