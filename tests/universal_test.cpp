// Herlihy's universal construction: sequential semantics for every spec and
// multithreaded linearizability, validated both by the ground-truth recorder
// + offline checker and by running it under the self-enforced wrapper.
#include <gtest/gtest.h>

#include <thread>

#include "test_util.hpp"

namespace selin {
namespace {

class UniversalSweep : public ::testing::TestWithParam<ObjectKind> {};

TEST_P(UniversalSweep, SequentialSemanticsMatchSpec) {
  ObjectKind kind = GetParam();
  auto u = make_universal(make_spec(kind));
  auto reference = make_spec(kind)->initial();
  Rng rng(99);
  for (uint32_t i = 0; i < 200; ++i) {
    auto [m, arg] = random_op(kind, rng);
    OpDesc op{OpId{0, i}, m, arg};
    EXPECT_EQ(u->apply(0, op), reference->step(m, arg)) << i;
  }
}

TEST_P(UniversalSweep, ConcurrentHistoryLinearizable) {
  ObjectKind kind = GetParam();
  constexpr size_t kProcs = 4;
  auto u = make_universal(make_spec(kind));
  RecordingConcurrent recorded(*u, 4096);

  SpinBarrier barrier(kProcs);
  test::RoundGate rounds(kProcs);
  std::vector<std::thread> threads;
  for (ProcId p = 0; p < kProcs; ++p) {
    threads.emplace_back([&, p, kind] {
      Rng rng(p * 59 + 29);
      barrier.arrive_and_wait();
      for (uint32_t i = 0; i < 60; ++i) {
        auto [m, arg] = random_op(kind, rng);
        rounds.enter(p, i);
        recorded.apply(p, OpDesc{OpId{p, i}, m, arg});
        rounds.leave(p, i);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_FALSE(recorded.overflowed());
  auto spec = make_spec(kind);
  EXPECT_TRUE(linearizable(*spec, recorded.history()));
}

INSTANTIATE_TEST_SUITE_P(
    Objects, UniversalSweep,
    ::testing::Values(ObjectKind::kQueue, ObjectKind::kStack, ObjectKind::kSet,
                      ObjectKind::kPqueue, ObjectKind::kCounter,
                      ObjectKind::kRegister, ObjectKind::kConsensus),
    [](const auto& info) {
      return std::string(object_kind_name(info.param));
    });

TEST(Universal, UnderSelfEnforcementNeverErrors) {
  constexpr size_t kProcs = 3;
  auto u = make_universal(make_stack_spec());
  auto obj = make_linearizable_object(make_stack_spec());
  SelfEnforced se(kProcs, *u, *obj);
  SpinBarrier barrier(kProcs);
  std::vector<std::thread> threads;
  for (ProcId p = 0; p < kProcs; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(p + 71);
      barrier.arrive_and_wait();
      for (int i = 0; i < 100; ++i) {
        auto [m, arg] = random_op(ObjectKind::kStack, rng);
        se.apply(p, m, arg);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(se.error_count(), 0u);
}

}  // namespace
}  // namespace selin
