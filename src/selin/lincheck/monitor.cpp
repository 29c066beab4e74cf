#include "selin/lincheck/monitor.hpp"

#include "selin/lincheck/checker.hpp"
#include "selin/lincheck/setlin_checker.hpp"

namespace selin {
namespace {

class LinearizableObject final : public GenLinObject {
 public:
  LinearizableObject(std::unique_ptr<SeqSpec> spec, size_t max_configs)
      : spec_(std::move(spec)), max_configs_(max_configs) {}

  const char* name() const override { return spec_->name(); }

  std::unique_ptr<MembershipMonitor> monitor() const override {
    return std::make_unique<LinMonitor>(*spec_, max_configs_);
  }

 private:
  std::unique_ptr<SeqSpec> spec_;
  size_t max_configs_;
};

class SetLinearizableObject final : public GenLinObject {
 public:
  SetLinearizableObject(std::unique_ptr<SetSeqSpec> spec, size_t max_configs)
      : spec_(std::move(spec)), max_configs_(max_configs) {}

  const char* name() const override { return spec_->name(); }

  std::unique_ptr<MembershipMonitor> monitor() const override {
    return std::make_unique<SetLinMonitor>(*spec_, max_configs_);
  }

 private:
  std::unique_ptr<SetSeqSpec> spec_;
  size_t max_configs_;
};

}  // namespace

std::unique_ptr<GenLinObject> make_linearizable_object(
    std::unique_ptr<SeqSpec> spec, size_t max_configs) {
  return std::make_unique<LinearizableObject>(std::move(spec), max_configs);
}

std::unique_ptr<GenLinObject> make_set_linearizable_object(
    std::unique_ptr<SetSeqSpec> spec, size_t max_configs) {
  return std::make_unique<SetLinearizableObject>(std::move(spec),
                                                 max_configs);
}

}  // namespace selin
