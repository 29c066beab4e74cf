// Integer set sequential specification (Theorem 5.1 object).
// Insert(v) -> true iff v was absent; Remove(v) -> true iff v was present;
// Contains(v) -> membership.
#include <algorithm>
#include <sstream>
#include <vector>

#include "selin/spec/spec.hpp"
#include "selin/util/hash.hpp"

namespace selin {
namespace {

class SetState final : public SeqState {
 public:
  std::unique_ptr<SeqState> clone() const override {
    return std::make_unique<SetState>(*this);
  }

  Value step(Method m, Value arg) override {
    const auto it = std::lower_bound(items_.begin(), items_.end(), arg);
    const bool present = it != items_.end() && *it == arg;
    switch (m) {
      case Method::kInsert:
        if (present) return kFalse;
        items_.insert(it, arg);
        return kTrue;
      case Method::kRemove:
        if (!present) return kFalse;
        items_.erase(it);
        return kTrue;
      case Method::kContains:
        return present ? kTrue : kFalse;
      default:
        return kError;
    }
  }

  std::string encode() const override {
    std::ostringstream os;
    os << "T";
    for (Value v : items_) os << ":" << v;
    return os.str();
  }

  uint64_t fingerprint() const override {
    fph::Hasher h('T');
    for (Value v : items_) h.i64(v);
    return h.done();
  }

  bool assign_from(const SeqState& src) override {
    auto* o = dynamic_cast<const SetState*>(&src);
    if (o == nullptr) return false;
    items_ = o->items_;  // reuses items_'s capacity
    return true;
  }

 private:
  std::vector<Value> items_;  // ascending, no duplicates
};

class SetSpec final : public SeqSpec {
 public:
  const char* name() const override { return "set"; }
  std::unique_ptr<SeqState> initial() const override {
    return std::make_unique<SetState>();
  }
};

}  // namespace

std::unique_ptr<SeqSpec> make_set_spec() { return std::make_unique<SetSpec>(); }

}  // namespace selin
