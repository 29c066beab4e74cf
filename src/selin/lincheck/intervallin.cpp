#include "selin/lincheck/intervallin.hpp"

#include <sstream>

#include "selin/engine/frontier_engine.hpp"
#include "selin/engine/policies.hpp"

namespace selin {

// IntervalLinMonitor is a facade over the generic frontier engine with the
// interval policy (engine/policies.hpp): the closure has two moves —
// machine-invoke a subset of history-open ops, machine-respond a
// machine-open op — over engine::IConfig configurations.

struct IntervalLinMonitor::Impl {
  engine::FrontierEngine<engine::IntervalPolicy> eng;

  Impl(const IntervalSeqSpec& s, size_t cap)
      : eng(engine::IntervalPolicy{&s}, cap) {}
};

IntervalLinMonitor::IntervalLinMonitor(const IntervalSeqSpec& spec,
                                       size_t max_configs)
    : impl_(std::make_unique<Impl>(spec, max_configs)) {}

IntervalLinMonitor::IntervalLinMonitor(const IntervalLinMonitor& other)
    : impl_(std::make_unique<Impl>(*other.impl_)) {}

IntervalLinMonitor::~IntervalLinMonitor() = default;

void IntervalLinMonitor::feed(const Event& e) { impl_->eng.feed(e); }
void IntervalLinMonitor::feed_batch(std::span<const Event> events) {
  impl_->eng.feed_batch(events);
}
bool IntervalLinMonitor::ok() const { return impl_->eng.ok(); }
void IntervalLinMonitor::attach_obs(const obs::EngineHooks* hooks) {
  impl_->eng.set_obs(hooks);
}
bool IntervalLinMonitor::overflowed() const {
  return impl_->eng.overflowed();
}
size_t IntervalLinMonitor::frontier_size() const {
  return impl_->eng.frontier_size();
}
engine::EngineStats IntervalLinMonitor::stats() const {
  return impl_->eng.stats();
}
uint64_t IntervalLinMonitor::frontier_digest() const {
  return impl_->eng.frontier_digest();
}
engine::FrontierFootprint IntervalLinMonitor::footprint() const {
  return impl_->eng.footprint();
}

std::unique_ptr<MembershipMonitor> IntervalLinMonitor::clone() const {
  return std::make_unique<IntervalLinMonitor>(*this);
}

bool IntervalLinMonitor::assign_from(const MembershipMonitor& src) {
  const auto* o = dynamic_cast<const IntervalLinMonitor*>(&src);
  if (o == nullptr) return false;
  impl_->eng.assign_from(o->impl_->eng);
  return true;
}

bool IntervalLinMonitor::swap_state(MembershipMonitor& other) {
  auto* o = dynamic_cast<IntervalLinMonitor*>(&other);
  if (o == nullptr) return false;
  impl_->eng.swap_state(o->impl_->eng);
  return true;
}

bool interval_linearizable(const IntervalSeqSpec& spec, const History& h,
                           size_t max_configs) {
  IntervalLinMonitor m(spec, max_configs);
  for (const Event& e : h) {
    m.feed(e);
    if (!m.ok()) return false;
  }
  return m.ok();
}

namespace {

class IntervalLinObject final : public GenLinObject {
 public:
  IntervalLinObject(std::unique_ptr<IntervalSeqSpec> spec, size_t max_configs)
      : spec_(std::move(spec)), max_configs_(max_configs) {}
  const char* name() const override { return spec_->name(); }
  std::unique_ptr<MembershipMonitor> monitor() const override {
    return std::make_unique<IntervalLinMonitor>(*spec_, max_configs_);
  }

 private:
  std::unique_ptr<IntervalSeqSpec> spec_;
  size_t max_configs_;
};

// ---- Write-snapshot as an interval-sequential machine ----------------------

class WsState final : public SeqState {
 public:
  std::unique_ptr<SeqState> clone() const override {
    return std::make_unique<WsState>(*this);
  }
  Value step(Method, Value) override { return kError; }  // interval-only
  std::string encode() const override {
    std::ostringstream os;
    os << "W:" << mask_ << ":" << done_;
    return os.str();
  }
  uint64_t fingerprint() const override {
    return fph::Hasher('W').u64(mask_).u64(done_).done();
  }
  bool assign_from(const SeqState& src) override {
    auto* o = dynamic_cast<const WsState*>(&src);
    if (o == nullptr) return false;
    mask_ = o->mask_;
    done_ = o->done_;
    return true;
  }

  uint64_t mask_ = 0;  ///< processes whose write has entered the machine
  uint64_t done_ = 0;  ///< processes that already responded (one-shot)
};

class WsIntervalSpec final : public IntervalSeqSpec {
 public:
  const char* name() const override { return "write-snapshot-interval"; }
  std::unique_ptr<SeqState> initial() const override {
    return std::make_unique<WsState>();
  }

  bool invoke_set(SeqState& state, std::span<const OpDesc> batch)
      const override {
    auto& ws = static_cast<WsState&>(state);
    for (const OpDesc& od : batch) {
      if (od.method != Method::kWriteSnap || od.id.pid >= 64) return false;
      uint64_t bit = 1ULL << od.id.pid;
      if (ws.mask_ & bit) return false;  // one-shot
      ws.mask_ |= bit;
    }
    return true;
  }

  Value respond(SeqState& state, const OpDesc& op) const override {
    auto& ws = static_cast<WsState&>(state);
    ws.done_ |= 1ULL << op.id.pid;
    // The snapshot a process returns is the set of writes that have entered
    // the machine by its response step — self-inclusion holds because its
    // own write entered at its I-step; comparability holds because masks
    // only grow.
    return static_cast<Value>(ws.mask_);
  }
};

}  // namespace

std::unique_ptr<GenLinObject> make_interval_linearizable_object(
    std::unique_ptr<IntervalSeqSpec> spec, size_t max_configs) {
  return std::make_unique<IntervalLinObject>(std::move(spec), max_configs);
}

std::unique_ptr<IntervalSeqSpec> make_write_snapshot_interval_spec() {
  return std::make_unique<WsIntervalSpec>();
}

}  // namespace selin
