// The snapshot object (Definition 7.3): a shared array MEM with n entries,
// Write(v) to the caller's entry and Snapshot() returning the whole array
// atomically.  All of the paper's algorithms (Figures 7, 10, 11, 12)
// communicate exclusively through linearizable snapshot objects, which are
// wait-free implementable from read/write registers [1, 63] — that is why
// the constructions need no consensus.
//
// T must be trivially copyable (in selin it is always a pointer to an
// immutable linked-list node, per the bounded-register scheme of Section
// 9.1).  Every base-register access calls StepCounter::bump() so step
// complexity is measurable (Claim 8.1).
#pragma once

#include <memory>
#include <vector>

#include "selin/util/small_vec.hpp"
#include "selin/util/step_counter.hpp"
#include "selin/util/types.hpp"

namespace selin {

/// One collect of a scan: on the stack for up to 64 entries, so a scan of
/// an object with at most 64 processes allocates nothing.
template <typename C>
using Collect = SmallVec<C, 64>;

template <typename T>
class Snapshot {
 public:
  virtual ~Snapshot() = default;

  /// Write v into entry i (i = index of the calling process).
  virtual void write(ProcId i, T v) = 0;

  /// Atomically read all n entries into `out`, which is resized to n: a
  /// caller that keeps `out` across scans reuses its buffer.
  virtual void scan(ProcId i, std::vector<T>& out) = 0;

  virtual size_t size() const = 0;
  virtual const char* name() const = 0;
};

enum class SnapshotKind {
  kMutex,          ///< blocking baseline (differential testing only)
  kDoubleCollect,  ///< lock-free double collect; fast, scans may retry
  kAfek,           ///< wait-free with helping (Afek et al. [1]), O(n^2) steps
};

const char* snapshot_kind_name(SnapshotKind k);

template <typename T>
std::unique_ptr<Snapshot<T>> make_snapshot(SnapshotKind kind, size_t n,
                                           T initial);

}  // namespace selin

#include "selin/snapshot/afek_snapshot.hpp"
#include "selin/snapshot/double_collect_snapshot.hpp"
#include "selin/snapshot/mutex_snapshot.hpp"

namespace selin {

template <typename T>
std::unique_ptr<Snapshot<T>> make_snapshot(SnapshotKind kind, size_t n,
                                           T initial) {
  switch (kind) {
    case SnapshotKind::kMutex:
      return std::make_unique<MutexSnapshot<T>>(n, initial);
    case SnapshotKind::kDoubleCollect:
      return std::make_unique<DoubleCollectSnapshot<T>>(n, initial);
    case SnapshotKind::kAfek:
      return std::make_unique<AfekSnapshot<T>>(n, initial);
  }
  return nullptr;
}

}  // namespace selin
