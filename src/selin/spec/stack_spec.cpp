// LIFO stack sequential specification (Figures 1 and 3 of the paper).
// Push(v) -> true; Pop() -> top value, or `empty`.
#include <sstream>
#include <vector>

#include "selin/spec/spec.hpp"
#include "selin/util/hash.hpp"

namespace selin {
namespace {

class StackState final : public SeqState {
 public:
  std::unique_ptr<SeqState> clone() const override {
    return std::make_unique<StackState>(*this);
  }

  Value step(Method m, Value arg) override {
    switch (m) {
      case Method::kPush:
        items_.push_back(arg);
        h_.i64(arg);
        return kTrue;
      case Method::kPop: {
        if (items_.empty()) return kEmpty;
        Value v = items_.back();
        items_.pop_back();
        h_.undo_i64(v);
        return v;
      }
      default:
        return kError;
    }
  }

  std::string encode() const override {
    std::ostringstream os;
    os << "S";
    for (Value v : items_) os << ":" << v;
    return os.str();
  }

  /// The Hasher('S') fold over items_ bottom to top, kept current by step().
  uint64_t fingerprint() const override { return h_.done(); }

  bool assign_from(const SeqState& src) override {
    auto* o = dynamic_cast<const StackState*>(&src);
    if (o == nullptr) return false;
    items_ = o->items_;
    h_ = o->h_;
    return true;
  }

 private:
  std::vector<Value> items_;
  fph::Hasher h_{'S'};  // push folds the value, pop undoes it (hash.hpp)
};

class StackSpec final : public SeqSpec {
 public:
  const char* name() const override { return "stack"; }
  std::unique_ptr<SeqState> initial() const override {
    return std::make_unique<StackState>();
  }
};

}  // namespace

std::unique_ptr<SeqSpec> make_stack_spec() {
  return std::make_unique<StackSpec>();
}

}  // namespace selin
