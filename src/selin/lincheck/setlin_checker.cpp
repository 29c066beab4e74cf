#include "selin/lincheck/setlin_checker.hpp"

#include "selin/engine/frontier_engine.hpp"
#include "selin/engine/policies.hpp"

namespace selin {

// SetLinMonitor is a facade over the generic frontier engine with the
// set-linearizability policy (engine/policies.hpp): a closure move
// linearizes a non-empty *batch* of open operations simultaneously.

struct SetLinMonitor::Impl {
  engine::FrontierEngine<engine::SetLinPolicy> eng;

  Impl(const SetSeqSpec& s, size_t cap, size_t threads,
       std::shared_ptr<parallel::Executor> exec)
      : eng(engine::SetLinPolicy{&s}, cap, threads, std::move(exec)) {}
};

SetLinMonitor::SetLinMonitor(const SetSeqSpec& spec, size_t max_configs,
                             size_t threads,
                             std::shared_ptr<parallel::Executor> executor)
    : impl_(std::make_unique<Impl>(spec, max_configs, threads,
                                   std::move(executor))) {}

SetLinMonitor::SetLinMonitor(const SetLinMonitor& other)
    : impl_(std::make_unique<Impl>(*other.impl_)) {}

SetLinMonitor::~SetLinMonitor() = default;

void SetLinMonitor::feed(const Event& e) { impl_->eng.feed(e); }
void SetLinMonitor::feed_batch(std::span<const Event> events) {
  impl_->eng.feed_batch(events);
}
bool SetLinMonitor::ok() const { return impl_->eng.ok(); }
void SetLinMonitor::attach_obs(const obs::EngineHooks* hooks) {
  impl_->eng.set_obs(hooks);
}
bool SetLinMonitor::overflowed() const { return impl_->eng.overflowed(); }
size_t SetLinMonitor::frontier_size() const {
  return impl_->eng.frontier_size();
}
engine::EngineStats SetLinMonitor::stats() const { return impl_->eng.stats(); }
uint64_t SetLinMonitor::frontier_digest() const {
  return impl_->eng.frontier_digest();
}
engine::FrontierFootprint SetLinMonitor::footprint() const {
  return impl_->eng.footprint();
}

std::unique_ptr<MembershipMonitor> SetLinMonitor::clone() const {
  return std::make_unique<SetLinMonitor>(*this);
}

bool SetLinMonitor::assign_from(const MembershipMonitor& src) {
  const auto* o = dynamic_cast<const SetLinMonitor*>(&src);
  return o != nullptr && impl_->eng.assign_from(o->impl_->eng);
}

bool set_linearizable(const SetSeqSpec& spec, const History& h,
                      size_t max_configs, size_t threads) {
  SetLinMonitor m(spec, max_configs, threads);
  for (const Event& e : h) {
    m.feed(e);
    if (!m.ok()) return false;
  }
  return m.ok();
}

}  // namespace selin
