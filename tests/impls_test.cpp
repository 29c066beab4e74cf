// Concurrent implementations: sequential semantics, multithreaded
// linearizability of the correct ones (recorder + offline checker), and the
// advertised misbehavior of every faulty one.
#include <gtest/gtest.h>

#include <thread>

#include "test_util.hpp"

namespace selin {
namespace {

OpDesc mk(ProcId p, uint32_t seq, Method m, Value arg = kNoArg) {
  return OpDesc{OpId{p, seq}, m, arg};
}

TEST(MsQueue, SequentialFifo) {
  auto q = make_ms_queue();
  EXPECT_EQ(q->apply(0, mk(0, 0, Method::kDequeue)), kEmpty);
  EXPECT_EQ(q->apply(0, mk(0, 1, Method::kEnqueue, 1)), kTrue);
  EXPECT_EQ(q->apply(0, mk(0, 2, Method::kEnqueue, 2)), kTrue);
  EXPECT_EQ(q->apply(0, mk(0, 3, Method::kDequeue)), 1);
  EXPECT_EQ(q->apply(0, mk(0, 4, Method::kDequeue)), 2);
  EXPECT_EQ(q->apply(0, mk(0, 5, Method::kDequeue)), kEmpty);
}

TEST(TreiberStack, SequentialLifo) {
  auto s = make_treiber_stack();
  EXPECT_EQ(s->apply(0, mk(0, 0, Method::kPop)), kEmpty);
  EXPECT_EQ(s->apply(0, mk(0, 1, Method::kPush, 1)), kTrue);
  EXPECT_EQ(s->apply(0, mk(0, 2, Method::kPush, 2)), kTrue);
  EXPECT_EQ(s->apply(0, mk(0, 3, Method::kPop)), 2);
  EXPECT_EQ(s->apply(0, mk(0, 4, Method::kPop)), 1);
}

TEST(AtomicCounter, SequentialSemantics) {
  auto c = make_atomic_counter();
  EXPECT_EQ(c->apply(0, mk(0, 0, Method::kCounterRead)), 0);
  EXPECT_EQ(c->apply(0, mk(0, 1, Method::kInc)), 1);
  EXPECT_EQ(c->apply(0, mk(0, 2, Method::kInc)), 2);
  EXPECT_EQ(c->apply(0, mk(0, 3, Method::kCounterRead)), 2);
}

TEST(CasConsensus, FirstDecideWinsAcrossThreads) {
  auto c = make_cas_consensus();
  constexpr size_t kProcs = 8;
  std::vector<Value> decisions(kProcs);
  SpinBarrier barrier(kProcs);
  std::vector<std::thread> threads;
  for (ProcId p = 0; p < kProcs; ++p) {
    threads.emplace_back([&, p] {
      barrier.arrive_and_wait();
      decisions[p] = c->apply(p, mk(p, 0, Method::kDecide, 1000 + p));
    });
  }
  for (auto& t : threads) t.join();
  for (size_t p = 1; p < kProcs; ++p) EXPECT_EQ(decisions[p], decisions[0]);
  EXPECT_GE(decisions[0], 1000);
  EXPECT_LT(decisions[0], 1000 + static_cast<Value>(kProcs));
}

struct ImplCase {
  const char* label;
  std::function<std::unique_ptr<IConcurrent>()> make;
  ObjectKind kind;
};

class CorrectImplStress : public ::testing::TestWithParam<ImplCase> {};

TEST_P(CorrectImplStress, ConcurrentHistoryLinearizable) {
  const ImplCase& c = GetParam();
  constexpr size_t kProcs = 4;
  auto impl = c.make();
  RecordingConcurrent recorded(*impl, 4096);
  SpinBarrier barrier(kProcs);
  test::RoundGate rounds(kProcs);
  std::vector<std::thread> threads;
  for (ProcId p = 0; p < kProcs; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(p * 83 + 19);
      barrier.arrive_and_wait();
      for (uint32_t i = 0; i < 100; ++i) {
        auto [m, arg] = random_op(c.kind, rng);
        rounds.enter(p, i);
        recorded.apply(p, OpDesc{OpId{p, i}, m, arg});
        rounds.leave(p, i);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_FALSE(recorded.overflowed());
  auto spec = make_spec(c.kind);
  EXPECT_TRUE(linearizable(*spec, recorded.history())) << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    Impls, CorrectImplStress,
    ::testing::Values(
        ImplCase{"ms_queue", make_ms_queue, ObjectKind::kQueue},
        ImplCase{"treiber", make_treiber_stack, ObjectKind::kStack},
        ImplCase{"counter", make_atomic_counter, ObjectKind::kCounter},
        ImplCase{"register", [] { return make_cas_register(0); },
                 ObjectKind::kRegister},
        ImplCase{"consensus", make_cas_consensus, ObjectKind::kConsensus},
        ImplCase{"coarse_queue", make_coarse_queue, ObjectKind::kQueue},
        ImplCase{"coarse_stack", make_coarse_stack, ObjectKind::kStack}),
    [](const auto& info) { return std::string(info.param.label); });

// ---- Faulty implementations misbehave as advertised ------------------------

TEST(Thm51Queue, LiesExactlyOnce) {
  auto q = make_thm51_queue(1);
  EXPECT_EQ(q->apply(0, mk(0, 0, Method::kDequeue)), kEmpty);
  EXPECT_EQ(q->apply(1, mk(1, 0, Method::kDequeue)), 1);      // the lie
  EXPECT_EQ(q->apply(1, mk(1, 1, Method::kDequeue)), kEmpty);  // only once
  EXPECT_EQ(q->apply(0, mk(0, 1, Method::kEnqueue, 9)), kTrue);
  EXPECT_EQ(q->apply(0, mk(0, 2, Method::kDequeue)), kEmpty);  // swallowed
}

TEST(LossyQueue, DropsSomeEnqueues) {
  auto q = make_lossy_queue(1, 2, 5);
  int lost = 0;
  for (uint32_t i = 0; i < 64; ++i) {
    q->apply(0, mk(0, i, Method::kEnqueue, i + 1));
  }
  for (uint32_t i = 64; i < 192; ++i) {
    if (q->apply(0, mk(0, i, Method::kDequeue)) == kEmpty) ++lost;
  }
  EXPECT_GT(lost, 0);  // with p=1/2 over 64 enqueues this is certain-ish
}

TEST(DupQueue, RedeliversValues) {
  auto q = make_dup_queue(1, 2, 6);
  for (uint32_t i = 0; i < 32; ++i) {
    q->apply(0, mk(0, i, Method::kEnqueue, i + 1));
  }
  std::set<Value> seen;
  int dups = 0;
  for (uint32_t i = 32; i < 96; ++i) {
    Value v = q->apply(0, mk(0, i, Method::kDequeue));
    if (v == kEmpty) break;
    if (!seen.insert(v).second) ++dups;
  }
  EXPECT_GT(dups, 0);
}

TEST(StaleCounter, LosesIncrements) {
  auto c = make_stale_counter(1, 2, 7);
  Value last = 0;
  int stuck = 0;
  for (uint32_t i = 0; i < 64; ++i) {
    Value v = c->apply(0, mk(0, i, Method::kInc));
    if (v == last) ++stuck;
    last = v;
  }
  EXPECT_GT(stuck, 0);
}

TEST(StaleRegister, ReturnsOverwrittenValues) {
  auto r = make_stale_register(1, 1, 8);  // always stale
  r->apply(0, mk(0, 0, Method::kWrite, 5));
  EXPECT_NE(r->apply(0, mk(0, 1, Method::kRead)), 5);
}

TEST(InvalidConsensus, ViolatesValidity) {
  auto c = make_invalid_consensus(0x40);
  Value d = c->apply(0, mk(0, 0, Method::kDecide, 3));
  EXPECT_NE(d, 3);  // nobody proposed this value
  // Later deciders still agree with the corrupted decision.
  EXPECT_EQ(c->apply(1, mk(1, 0, Method::kDecide, 9)), d);
}

}  // namespace
}  // namespace selin
