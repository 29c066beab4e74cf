// Message-passing substrate (Section 9.4): ABD registers, crash tolerance
// below a majority, the ABD-backed snapshot, and the full selin stack
// (A* + self-enforcement) running over simulated message passing.
#include <gtest/gtest.h>

#include <thread>

#include "test_util.hpp"

namespace selin {
namespace {

TEST(AbdService, SequentialReadWrite) {
  auto svc = std::make_shared<AbdService>(3, /*seed=*/1, /*max_delay_us=*/0);
  EXPECT_EQ(svc->read(7).value, 0u);  // unwritten key reads the default
  svc->write(7, 42, /*wid=*/1);
  EXPECT_EQ(svc->read(7).value, 42u);
  svc->write(7, 43, 1);
  auto v = svc->read(7);
  EXPECT_EQ(v.value, 43u);
  EXPECT_EQ(v.ts, 2u);
  EXPECT_EQ(svc->quorum(), 2u);
}

TEST(AbdService, IndependentKeys) {
  auto svc = std::make_shared<AbdService>(3, 1, 0);
  svc->write(1, 11, 1);
  svc->write(2, 22, 1);
  EXPECT_EQ(svc->read(1).value, 11u);
  EXPECT_EQ(svc->read(2).value, 22u);
}

TEST(AbdService, SurvivesMinorityCrash) {
  auto svc = std::make_shared<AbdService>(5, 2, 5);
  svc->write(9, 1, 1);
  svc->crash(0);
  svc->crash(3);
  EXPECT_EQ(svc->alive(), 3u);
  // A majority (3 of 5) is alive: operations still complete.
  svc->write(9, 2, 1);
  EXPECT_EQ(svc->read(9).value, 2u);
  uint64_t before = svc->messages_processed();
  for (int i = 0; i < 20; ++i) {
    svc->write(9, 100 + static_cast<uint64_t>(i), 1);
    EXPECT_EQ(svc->read(9).value, 100 + static_cast<uint64_t>(i));
  }
  EXPECT_GT(svc->messages_processed(), before);
}

TEST(AbdRegister, LinearizableUnderConcurrency) {
  auto svc = std::make_shared<AbdService>(3, 3, 10);
  auto reg = make_abd_register(svc);
  RecordingConcurrent recorded(*reg, 1024);

  constexpr size_t kProcs = 3;
  SpinBarrier barrier(kProcs);
  std::vector<std::thread> threads;
  for (ProcId p = 0; p < kProcs; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(p * 5 + 11);
      barrier.arrive_and_wait();
      for (uint32_t i = 0; i < 40; ++i) {
        auto [m, arg] = random_op(ObjectKind::kRegister, rng);
        recorded.apply(p, OpDesc{OpId{p, i}, m, arg});
      }
    });
  }
  for (auto& t : threads) t.join();
  auto spec = make_register_spec();
  EXPECT_TRUE(linearizable(*spec, recorded.history()));
}

TEST(AbdRegister, LinearizableWithCrashesMidRun) {
  auto svc = std::make_shared<AbdService>(5, 4, 10);
  auto reg = make_abd_register(svc);
  RecordingConcurrent recorded(*reg, 1024);

  constexpr size_t kProcs = 3;
  SpinBarrier barrier(kProcs);
  std::vector<std::thread> threads;
  for (ProcId p = 0; p < kProcs; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(p * 7 + 13);
      barrier.arrive_and_wait();
      for (uint32_t i = 0; i < 40; ++i) {
        if (p == 0 && i == 10) svc->crash(1);
        if (p == 1 && i == 20) svc->crash(4);
        auto [m, arg] = random_op(ObjectKind::kRegister, rng);
        recorded.apply(p, OpDesc{OpId{p, i}, m, arg});
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(svc->alive(), 3u);
  auto spec = make_register_spec();
  EXPECT_TRUE(linearizable(*spec, recorded.history()));
}

TEST(AbdSnapshot, BasicWriteScan) {
  auto svc = std::make_shared<AbdService>(3, 5, 0);
  AbdSnapshot<uint64_t> snap(svc, 3, 0);
  snap.write(0, 10);
  snap.write(2, 30);
  std::vector<uint64_t> v;
  snap.scan(0, v);
  EXPECT_EQ(v, (std::vector<uint64_t>{10, 0, 30}));
  EXPECT_STREQ(snap.name(), "abd");
}

TEST(AbdSnapshot, ConcurrentScansComparable) {
  auto svc = std::make_shared<AbdService>(3, 6, 5);
  constexpr size_t kWriters = 2;
  AbdSnapshot<uint64_t> snap(svc, kWriters, 0);
  std::vector<std::vector<std::vector<uint64_t>>> scans(2);
  SpinBarrier barrier(kWriters + 2);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      barrier.arrive_and_wait();
      for (uint64_t i = 1; i <= 50; ++i) {
        snap.write(static_cast<ProcId>(w), i);
      }
    });
  }
  for (size_t s = 0; s < 2; ++s) {
    threads.emplace_back([&, s] {
      barrier.arrive_and_wait();
      for (int i = 0; i < 25; ++i) {
        snap.scan(0, scans[s].emplace_back());
      }
    });
  }
  for (auto& t : threads) t.join();
  // Coordinatewise comparability across all scans (grow-only writers).
  std::vector<const std::vector<uint64_t>*> all;
  for (auto& seq : scans) {
    for (auto& v : seq) all.push_back(&v);
  }
  std::sort(all.begin(), all.end(), [](auto* a, auto* b) {
    return (*a)[0] + (*a)[1] < (*b)[0] + (*b)[1];
  });
  for (size_t i = 1; i < all.size(); ++i) {
    for (size_t k = 0; k < kWriters; ++k) {
      EXPECT_LE((*all[i - 1])[k], (*all[i])[k]);
    }
  }
}

// The paper's Section 9.4 claim end to end: the complete self-enforcement
// stack — announcements N, records M, both over ABD message passing —
// verifying a distributed register, with replicas crashing mid-run.
TEST(MsgPassStack, SelfEnforcedOverAbdWithCrashes) {
  auto svc = std::make_shared<AbdService>(5, 7, 5);
  constexpr size_t kProcs = 3;
  auto reg = make_abd_register(svc, /*key=*/900'000);
  auto obj = make_linearizable_object(make_register_spec());
  SelfEnforced se(
      kProcs, *reg, *obj,
      std::make_unique<AbdSnapshot<const SetNode*>>(svc, kProcs, nullptr,
                                                    /*key_base=*/100),
      std::make_unique<AbdSnapshot<const RecNode*>>(svc, kProcs, nullptr,
                                                    /*key_base=*/200));

  SpinBarrier barrier(kProcs);
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (ProcId p = 0; p < kProcs; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(p * 3 + 29);
      barrier.arrive_and_wait();
      for (int i = 0; i < 25; ++i) {
        if (p == 0 && i == 8) svc->crash(2);   // one replica dies mid-run
        auto [m, arg] = random_op(ObjectKind::kRegister, rng);
        if (se.apply(p, m, arg).error) errors.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_TRUE(obj->contains(se.certificate(0)));
}

// A faulty implementation is still caught when the monitoring plumbing runs
// over message passing.
TEST(MsgPassStack, FaultDetectionOverAbd) {
  auto svc = std::make_shared<AbdService>(3, 8, 0);
  auto bad = make_thm51_queue(0);
  auto obj = make_linearizable_object(make_queue_spec());
  SelfEnforced se(
      2, *bad, *obj,
      std::make_unique<AbdSnapshot<const SetNode*>>(svc, 2, nullptr, 100),
      std::make_unique<AbdSnapshot<const RecNode*>>(svc, 2, nullptr, 200));
  auto out = se.apply(0, Method::kDequeue);  // the lie
  EXPECT_TRUE(out.error);
  EXPECT_FALSE(obj->contains(se.certificate(0)));
}

}  // namespace
}  // namespace selin
