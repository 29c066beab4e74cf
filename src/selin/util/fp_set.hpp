// Arena-backed open-addressing set of 64-bit fingerprints.
//
// This replaces unordered_set<std::string> in the checkers' dedup/memo
// paths.  Design points, all driven by the closure() hot loop:
//  * keys are already well-mixed fingerprints, so the probe index is just
//    the low bits — no re-hashing;
//  * slots carry an epoch instead of a tombstone/empty sentinel, so clear()
//    between feed() calls is O(1) and the table's capacity is retained —
//    steady-state feeds allocate nothing;
//  * tables come from the monitor's monotone Arena; a grown-out table is
//    abandoned to the arena (total waste bounded by the final table size,
//    geometric series), which keeps allocation lock-free and free() out of
//    the hot path entirely.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>

#include "selin/util/arena.hpp"

namespace selin {

class FpSet {
 public:
  /// Upper bound on one probe_batch() group — the result is a uint64_t
  /// bitmask, one bit per probed fingerprint.
  static constexpr size_t kMaxBatch = 64;
  /// The table is allocated lazily on first insert: monitors are cloned
  /// eagerly (e.g. the leveled checker's checkpoint copies every few levels)
  /// and most clones stay dormant, so an empty set must cost nothing.
  explicit FpSet(Arena& arena, size_t initial_capacity = 256)
      : arena_(&arena) {
    cap_ = 16;
    while (cap_ < initial_capacity) cap_ *= 2;
  }

  FpSet(const FpSet&) = delete;
  FpSet& operator=(const FpSet&) = delete;

  size_t size() const { return size_; }

  /// Drop all elements; O(1), keeps capacity.
  void clear() {
    ++epoch_;
    size_ = 0;
  }

  bool contains(uint64_t fp) const {
    if (slots_ == nullptr) return false;
    size_t mask = cap_ - 1;
    for (size_t i = fp & mask;; i = (i + 1) & mask) {
      if (slots_[i].epoch != epoch_) return false;
      if (slots_[i].key == fp) return true;
    }
  }

  /// True iff `fp` was not present (and is now inserted).
  bool insert(uint64_t fp) {
    if (slots_ == nullptr) slots_ = fresh_table(cap_);
    if ((size_ + 1) * 4 > cap_ * 3) grow();  // load factor 3/4
    return insert_unchecked(fp);
  }

  /// Ensure capacity for `n` live keys without a grow on any later insert
  /// below that count.  Cheap before the table exists (just raises the lazy
  /// allocation size); afterwards it performs the doubling rehashes up
  /// front, which is the point: callers pre-size from the previous round's
  /// width so no grow lands mid-closure.
  void reserve(size_t n) {
    if (slots_ == nullptr) {
      while (n * 4 > cap_ * 3) cap_ *= 2;
      return;
    }
    while (n * 4 > cap_ * 3) grow();
  }

  /// Group probe of `n <= kMaxBatch` fingerprints: one hoisted capacity
  /// check for the whole batch, one prefetch sweep over every home slot
  /// (each probe is otherwise a dependent random load), then the probes
  /// resolve in order.  Bit i of the result is set iff fps[i] was new (and
  /// is now inserted); duplicates *within* the batch resolve exactly as n
  /// sequential insert() calls would — the first occurrence inserts, later
  /// ones miss.
  uint64_t probe_batch(const uint64_t* fps, size_t n) {
    if (n == 0) return 0;
    if (slots_ == nullptr) slots_ = fresh_table(cap_);
    reserve(size_ + n);
    if (prefetch_enabled() && n >= 2) {
      const size_t mask = cap_ - 1;
      for (size_t k = 0; k < n; ++k) {
#if defined(__GNUC__) || defined(__clang__)
        __builtin_prefetch(&slots_[fps[k] & mask], 0, 1);
#endif
      }
    }
    uint64_t fresh = 0;
    for (size_t k = 0; k < n; ++k) {
      if (insert_unchecked(fps[k])) fresh |= uint64_t{1} << k;
    }
    return fresh;
  }

  /// Global prefetch toggle (A/B attribution in bench_closure_hot).  Relaxed
  /// atomic: a checking thread may observe a flip mid-run, which only
  /// changes whether prefetches are issued, never a probe result.
  static void set_prefetch(bool on) {
    prefetch_flag().store(on, std::memory_order_relaxed);
  }
  static bool prefetch_enabled() {
    return prefetch_flag().load(std::memory_order_relaxed);
  }

 private:
  static std::atomic<bool>& prefetch_flag() {
    static std::atomic<bool> on{true};
    return on;
  }

  /// insert() with the capacity check hoisted out (probe_batch's per-probe
  /// body); the caller guarantees room for one more key.
  bool insert_unchecked(uint64_t fp) {
    size_t mask = cap_ - 1;
    size_t i = fp & mask;
    while (slots_[i].epoch == epoch_) {
      if (slots_[i].key == fp) return false;
      i = (i + 1) & mask;
    }
    slots_[i].key = fp;
    slots_[i].epoch = epoch_;
    ++size_;
    return true;
  }

  struct Slot {
    uint64_t key;
    uint64_t epoch;  // live iff epoch == FpSet::epoch_ (0 = never used)
  };

  Slot* fresh_table(size_t cap) {
    auto* t = static_cast<Slot*>(
        arena_->allocate(cap * sizeof(Slot), alignof(Slot)));
    std::memset(t, 0, cap * sizeof(Slot));
    return t;
  }

  void grow() {
    Slot* old = slots_;
    size_t old_cap = cap_;
    cap_ *= 2;
    slots_ = fresh_table(cap_);  // old table is abandoned to the arena
    size_t mask = cap_ - 1;
    for (size_t j = 0; j < old_cap; ++j) {
      if (old[j].epoch != epoch_) continue;
      size_t i = old[j].key & mask;
      while (slots_[i].epoch == epoch_) i = (i + 1) & mask;
      slots_[i] = old[j];
    }
  }

  Arena* arena_;
  Slot* slots_ = nullptr;
  size_t cap_;
  size_t size_ = 0;
  uint64_t epoch_ = 1;
};

}  // namespace selin
