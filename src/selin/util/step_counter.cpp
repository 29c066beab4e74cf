#include "selin/util/step_counter.hpp"

namespace selin {

std::atomic<bool> StepCounter::enabled_{true};

}  // namespace selin
