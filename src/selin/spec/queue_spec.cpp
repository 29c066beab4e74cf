// FIFO queue sequential specification (Figure 4 and Theorem 5.1 object).
// Enqueue(v) -> true; Dequeue() -> head value, or `empty`.
#include <sstream>
#include <vector>

#include "selin/spec/spec.hpp"
#include "selin/util/hash.hpp"

namespace selin {
namespace {

// The queue is items_[head_..]: a flat vector whose dequeued prefix is
// dropped when the queue empties or the prefix passes half the vector, so a
// copy takes one allocation and a long-lived state stays O(live length).
// Copies, encode() and fingerprint() see only the live range.
class QueueState final : public SeqState {
 public:
  std::unique_ptr<SeqState> clone() const override {
    auto c = std::make_unique<QueueState>();
    c->items_.assign(items_.begin() + static_cast<long>(head_), items_.end());
    return c;
  }

  Value step(Method m, Value arg) override {
    switch (m) {
      case Method::kEnqueue:
        items_.push_back(arg);
        return kTrue;
      case Method::kDequeue: {
        if (head_ == items_.size()) return kEmpty;
        Value v = items_[head_++];
        if (head_ == items_.size()) {
          items_.clear();
          head_ = 0;
        } else if (head_ > items_.size() / 2) {
          items_.erase(items_.begin(),
                       items_.begin() + static_cast<long>(head_));
          head_ = 0;
        }
        return v;
      }
      default:
        return kError;  // foreign method: never matches an observed response
    }
  }

  std::string encode() const override {
    std::ostringstream os;
    os << "Q";
    for (size_t i = head_; i < items_.size(); ++i) os << ":" << items_[i];
    return os.str();
  }

  uint64_t fingerprint() const override {
    fph::Hasher h('Q');
    for (size_t i = head_; i < items_.size(); ++i) h.i64(items_[i]);
    return h.done();
  }

  bool assign_from(const SeqState& src) override {
    auto* o = dynamic_cast<const QueueState*>(&src);
    if (o == nullptr) return false;
    if (o == this) return true;
    items_.assign(o->items_.begin() + static_cast<long>(o->head_),
                  o->items_.end());
    head_ = 0;
    return true;
  }

 private:
  std::vector<Value> items_;
  size_t head_ = 0;
};

class QueueSpec final : public SeqSpec {
 public:
  const char* name() const override { return "queue"; }
  std::unique_ptr<SeqState> initial() const override {
    return std::make_unique<QueueState>();
  }
};

}  // namespace

std::unique_ptr<SeqSpec> make_queue_spec() {
  return std::make_unique<QueueSpec>();
}

}  // namespace selin
