// Min priority queue sequential specification (Theorem 5.1 object).
// PqInsert(v) -> true; PqExtractMin() -> smallest value, or `empty`.
#include <algorithm>
#include <sstream>
#include <vector>

#include "selin/spec/spec.hpp"
#include "selin/util/hash.hpp"

namespace selin {
namespace {

class PqState final : public SeqState {
 public:
  std::unique_ptr<SeqState> clone() const override {
    return std::make_unique<PqState>(*this);
  }

  Value step(Method m, Value arg) override {
    switch (m) {
      case Method::kPqInsert:
        items_.insert(std::upper_bound(items_.begin(), items_.end(), arg),
                      arg);
        return kTrue;
      case Method::kPqExtractMin: {
        if (items_.empty()) return kEmpty;
        const Value v = items_.front();
        items_.erase(items_.begin());
        return v;
      }
      default:
        return kError;
    }
  }

  std::string encode() const override {
    std::ostringstream os;
    os << "P";
    for (Value v : items_) os << ":" << v;
    return os.str();
  }

  uint64_t fingerprint() const override {
    fph::Hasher h('P');
    for (Value v : items_) h.i64(v);
    return h.done();
  }

  bool assign_from(const SeqState& src) override {
    auto* o = dynamic_cast<const PqState*>(&src);
    if (o == nullptr) return false;
    items_ = o->items_;  // reuses items_'s capacity
    return true;
  }

 private:
  std::vector<Value> items_;  // ascending, duplicates kept
};

class PqSpec final : public SeqSpec {
 public:
  const char* name() const override { return "pqueue"; }
  std::unique_ptr<SeqState> initial() const override {
    return std::make_unique<PqState>();
  }
};

}  // namespace

std::unique_ptr<SeqSpec> make_pqueue_spec() {
  return std::make_unique<PqSpec>();
}

}  // namespace selin
