// Wide-frontier stress for the frontier engine.
//
// Maximal open-op concurrency keeps thousands of configurations alive, so
// every feed runs a wide closure and a wide response filter.  The two
// histories below have a known shape, so the engine must keep the verdict
// and the exact frontier width they imply, round after round.  CI also runs
// them in its ThreadSanitizer and sanitizer legs.
#include <gtest/gtest.h>

#include <vector>

#include "test_util.hpp"

namespace selin {
namespace {

using test::OpFactory;

// Maximal open-op concurrency: bursts of 7 concurrent enqueues (a ~13k-config
// closure per response) drained in FIFO order, repeatedly, on one monitor.
TEST(ParallelStress, WideOpenOpBursts) {
  auto spec = make_queue_spec();
  LinMonitor m(*spec, /*max_configs=*/1 << 20);
  OpFactory f;
  Value v = 1;
  for (int round = 0; round < 4; ++round) {
    std::vector<OpDesc> es;
    for (ProcId p = 0; p < 7; ++p) {
      es.push_back(f.op(p, Method::kEnqueue, v + p));
      m.feed(Event::inv(es.back()));
    }
    for (const OpDesc& e : es) m.feed(Event::res(e, kTrue));
    // Drain in invocation order — a valid linearization, so ok() holds.
    for (ProcId p = 0; p < 7; ++p) {
      OpDesc d = f.op(p, Method::kDequeue);
      m.feed(Event::inv(d));
      m.feed(Event::res(d, v + p));
    }
    ASSERT_TRUE(m.ok());
    ASSERT_EQ(m.frontier_size(), 1u);
    v += 7;
  }
}

// Sustained width: k never-popped overlapping push pairs keep 2^k
// configurations alive, so every later feed re-expands a wide frontier.
TEST(ParallelStress, SustainedWideFrontier) {
  auto spec = make_stack_spec();
  LinMonitor m(*spec, /*max_configs=*/1 << 20);
  OpFactory f;
  Value v = 100;
  for (int k = 0; k < 9; ++k) {
    OpDesc a = f.op(0, Method::kPush, v++);
    OpDesc b = f.op(1, Method::kPush, v++);
    m.feed(Event::inv(a));
    m.feed(Event::inv(b));
    m.feed(Event::res(a, kTrue));
    m.feed(Event::res(b, kTrue));
  }
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m.frontier_size(), size_t{1} << 9);
  // Overlapping push/pop traffic on top of the ambiguous base.
  for (int i = 0; i < 8; ++i) {
    OpDesc push = f.op(2, Method::kPush, v);
    OpDesc pop = f.op(3, Method::kPop);
    m.feed(Event::inv(push));
    m.feed(Event::inv(pop));
    m.feed(Event::res(push, kTrue));
    m.feed(Event::res(pop, v));
    ASSERT_TRUE(m.ok());
    ASSERT_EQ(m.frontier_size(), size_t{1} << 9);
    ++v;
  }
}

}  // namespace
}  // namespace selin
