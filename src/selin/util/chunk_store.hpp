// Append-only chunked storage for elements that live as long as their
// owner: XBuilder's level nodes and level contents, and each producer's
// λ-records in MonitorCore.  Elements come from chunks of kChunk (larger
// for a larger request), so taking one makes no heap allocation per
// element, and an element never moves, so pointers to it stay valid until
// the store dies.  One owner takes from a store: no atomics, no lock.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace selin {

template <typename T>
class ChunkStore {
 public:
  static constexpr size_t kChunk = 64;

  /// `n` default-constructed elements, contiguous, never handed out before.
  std::span<T> take(size_t n) {
    if (n > left_) {
      const size_t cap = std::max(n, kChunk);
      chunks_.push_back(std::make_unique<T[]>(cap));
      next_ = chunks_.back().get();
      left_ = cap;
    }
    const std::span<T> out(next_, n);
    next_ += n;
    left_ -= n;
    return out;
  }

  /// One fresh element.
  T& take_one() { return take(1).front(); }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;  // allocated on first take
  T* next_ = nullptr;
  size_t left_ = 0;
};

}  // namespace selin
