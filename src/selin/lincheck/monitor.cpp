#include "selin/lincheck/monitor.hpp"

#include "selin/lincheck/checker.hpp"
#include "selin/lincheck/setlin_checker.hpp"
#include "selin/parallel/executor.hpp"

namespace selin {
namespace {

class LinearizableObject final : public GenLinObject {
 public:
  LinearizableObject(std::unique_ptr<SeqSpec> spec, size_t max_configs,
                     size_t threads, std::shared_ptr<parallel::Executor> exec)
      : spec_(std::move(spec)), max_configs_(max_configs), threads_(threads),
        exec_(std::move(exec)) {}

  const char* name() const override { return spec_->name(); }

  std::unique_ptr<MembershipMonitor> monitor() const override {
    return monitor(threads_);
  }

  std::unique_ptr<MembershipMonitor> monitor(size_t threads) const override {
    return std::make_unique<LinMonitor>(*spec_, max_configs_,
                                        threads == 0 ? threads_ : threads,
                                        exec_);
  }

 private:
  std::unique_ptr<SeqSpec> spec_;
  size_t max_configs_;
  size_t threads_;
  std::shared_ptr<parallel::Executor> exec_;
};

class SetLinearizableObject final : public GenLinObject {
 public:
  SetLinearizableObject(std::unique_ptr<SetSeqSpec> spec, size_t max_configs,
                        size_t threads,
                        std::shared_ptr<parallel::Executor> exec)
      : spec_(std::move(spec)), max_configs_(max_configs), threads_(threads),
        exec_(std::move(exec)) {}

  const char* name() const override { return spec_->name(); }

  std::unique_ptr<MembershipMonitor> monitor() const override {
    return monitor(threads_);
  }

  std::unique_ptr<MembershipMonitor> monitor(size_t threads) const override {
    return std::make_unique<SetLinMonitor>(*spec_, max_configs_,
                                           threads == 0 ? threads_ : threads,
                                           exec_);
  }

 private:
  std::unique_ptr<SetSeqSpec> spec_;
  size_t max_configs_;
  size_t threads_;
  std::shared_ptr<parallel::Executor> exec_;
};

}  // namespace

std::unique_ptr<GenLinObject> make_linearizable_object(
    std::unique_ptr<SeqSpec> spec, size_t max_configs, size_t threads,
    std::shared_ptr<parallel::Executor> executor) {
  return std::make_unique<LinearizableObject>(std::move(spec), max_configs,
                                              threads, std::move(executor));
}

std::unique_ptr<GenLinObject> make_set_linearizable_object(
    std::unique_ptr<SetSeqSpec> spec, size_t max_configs, size_t threads,
    std::shared_ptr<parallel::Executor> executor) {
  return std::make_unique<SetLinearizableObject>(std::move(spec), max_configs,
                                                 threads, std::move(executor));
}

}  // namespace selin
