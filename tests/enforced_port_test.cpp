// Tests for the enforcement/distributed port onto the modern engine:
// SelfEnforced flags exactly the faulty implementation, a batched Decoupled
// verifier reaches the same decisions as one that verifies after every
// apply, and ABD-backed enforcement stays error-free under lossy/reordered
// links.  Plus the port's failure-mode contracts: sticky exploration-budget
// overflow at the MonitorCore and SelfEnforced levels.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "selin/msgpass/abd_cluster.hpp"
#include "test_util.hpp"

namespace selin {
namespace {

struct OutcomeRec {
  Value value;
  bool error;
  bool overflow;
};

// One deterministic single-driver SelfEnforced run: `ops` operations round-
// robin over `procs` process slots, impl chosen by `faulty`.
std::vector<OutcomeRec> run_self_enforced(bool faulty, size_t procs, int ops,
                                          uint64_t seed) {
  auto q = faulty ? make_thm51_queue() : make_ms_queue();
  auto obj = make_linearizable_object(make_queue_spec());
  SelfEnforced se(procs, *q, *obj);
  Rng rng(seed);
  std::vector<OutcomeRec> out;
  out.reserve(ops);
  for (int i = 0; i < ops; ++i) {
    ProcId p = static_cast<ProcId>(i % procs);
    auto [m, arg] = random_op(ObjectKind::kQueue, rng);
    auto o = se.apply(p, m, arg);
    out.push_back(OutcomeRec{o.value, o.error, o.overflow});
  }
  return out;
}

TEST(EnforcedPort, SelfEnforcedFlagsOnlyTheFaultyImpl) {
  for (bool faulty : {false, true}) {
    auto baseline = run_self_enforced(faulty, 3, 120, 42);
    if (faulty) {
      // thm51's first dequeue lies; once detected, every later op of the
      // detecting process returns ERROR (Theorem 8.2's sticky prefix).
      size_t errors = 0;
      for (const auto& o : baseline) errors += o.error;
      ASSERT_GT(errors, 0u);
    } else {
      for (const auto& o : baseline) ASSERT_FALSE(o.error);
    }
  }
}

TEST(EnforcedPort, DecoupledBatchedVerifierMatchesSeedEraVerdicts) {
  // Seed-era shape: verify after every apply.  Ported shape: one batched
  // verifier pass per 32 applies (the amortization the facet measures).
  // Detection granularity differs by design; the *decisions* must agree:
  // correct A never trips either, faulty A trips both.
  for (bool faulty : {false, true}) {
    auto drive = [&](Decoupled& d, size_t batch) {
      Rng rng(7);
      std::vector<bool> verdicts;
      for (int i = 0; i < 192; ++i) {
        auto [m, arg] = random_op(ObjectKind::kQueue, rng);
        d.apply(static_cast<ProcId>(i % d.producers()), m, arg);
        if ((i + 1) % batch == 0) verdicts.push_back(d.verify_once(0));
      }
      verdicts.push_back(d.verify_once(0));
      return verdicts;
    };

    auto q_seed = faulty ? make_thm51_queue() : make_ms_queue();
    auto obj_seed = make_linearizable_object(make_queue_spec());
    Decoupled seed_era(4, 1, *q_seed, *obj_seed);
    auto seed_verdicts = drive(seed_era, 1);

    auto q = faulty ? make_thm51_queue() : make_ms_queue();
    auto obj = make_linearizable_object(make_queue_spec());
    Decoupled ported(4, 1, *q, *obj);
    auto ported_verdicts = drive(ported, 32);

    bool seed_tripped = false;
    for (bool v : seed_verdicts) seed_tripped |= !v;
    bool ported_tripped = false;
    for (bool v : ported_verdicts) ported_tripped |= !v;
    EXPECT_EQ(seed_tripped, faulty);
    EXPECT_EQ(ported_tripped, faulty);
    EXPECT_EQ(seed_verdicts.back(), ported_verdicts.back());
  }
}

TEST(EnforcedPort, AbdOutcomesErrorFreeUnderLossyReorderedLinks) {
  // The whole stack over message passing (Section 9.4) with the adversarial
  // network on: lossy links with retransmission plus reordered delivery.
  // A single sequential driver over a linearizable register must see no
  // errors.
  AbdService::Options net;
  net.replicas = 3;
  net.seed = 11;
  net.max_delay_us = 2;
  net.drop_permille = 80;
  net.reorder = true;
  auto svc = std::make_shared<AbdService>(net);
  auto announce =
      std::make_unique<AbdSnapshot<const SetNode*>>(svc, 2, nullptr, 100);
  auto records =
      std::make_unique<AbdSnapshot<const RecNode*>>(svc, 2, nullptr, 200);
  auto reg = make_abd_register(svc, 1'000'000, 0);
  auto obj = make_linearizable_object(make_register_spec(0));
  SelfEnforced se(2, *reg, *obj, std::move(announce), std::move(records));
  for (int i = 0; i < 12; ++i) {
    ProcId p = static_cast<ProcId>(i % 2);
    if (i % 3 == 0) {
      se.apply(p, Method::kWrite, i);
    } else {
      se.apply(p, Method::kRead);
    }
  }
  EXPECT_EQ(se.error_count(), 0u);
}

TEST(EnforcedPort, AbdClusterMultiClientLossyScheduleVerifiesOk) {
  // Hundreds of logical clients over a few driver threads, lossy/reordered
  // network, every register session must verify kOk — the bench scenario as
  // a correctness test (scaled down).
  AbdClusterOptions opts;
  opts.replicas = 3;
  opts.keys = 2;
  opts.seed = 5;
  opts.max_delay_us = 0;
  opts.drop_permille = 50;
  opts.reorder = true;
  AbdCluster cluster(opts);
  cluster.start_drainer();

  constexpr size_t kThreads = 4;
  constexpr size_t kClientsPerThread = 64;
  constexpr int kOpsPerClient = 4;
  SpinBarrier barrier(kThreads);
  std::vector<std::thread> drivers;
  for (size_t t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&, t] {
      Rng rng(100 + t);
      barrier.arrive_and_wait();
      for (int round = 0; round < kOpsPerClient; ++round) {
        for (size_t c = 0; c < kClientsPerThread; ++c) {
          ProcId client = static_cast<ProcId>(t * kClientsPerThread + c);
          uint64_t key = rng.below(opts.keys);
          if (rng.below(2) == 0) {
            cluster.write(client, key, static_cast<Value>(rng.below(1000)));
          } else {
            cluster.read(client, key);
          }
        }
      }
    });
  }
  for (auto& d : drivers) d.join();
  cluster.stop_drainer();

  EXPECT_EQ(cluster.ops(), kThreads * kClientsPerThread * kOpsPerClient);
  EXPECT_TRUE(cluster.all_ok());
  for (uint64_t k = 0; k < opts.keys; ++k) {
    EXPECT_EQ(cluster.session(k).backlog(), 0u);
  }
  EXPECT_GT(cluster.network().messages_dropped(), 0u);
  EXPECT_GT(cluster.stats().events_fed, 0u);
}

TEST(EnforcedPort, AbdClusterDetectsForgedResponse) {
  AbdClusterOptions opts;
  opts.keys = 1;
  AbdCluster cluster(opts);
  ProcId client = 0;
  cluster.write(client, 0, 7);
  EXPECT_EQ(cluster.read(client, 0), 7);
  // Forge a read of a value nobody ever wrote — the observed history is no
  // longer linearizable and the session must settle kRejected.
  OpDesc forged{OpId{1, 1 << 20}, Method::kRead, kNoArg};
  Event events[2] = {Event::inv(forged), Event::res(forged, 424242)};
  cluster.publish_raw(0, events);
  cluster.drain();
  EXPECT_EQ(cluster.verdict(0), service::Session::Status::kRejected);
  EXPECT_FALSE(cluster.all_ok());
  // Sticky: later correct traffic does not resurrect the verdict.
  cluster.write(client, 0, 8);
  cluster.drain();
  EXPECT_EQ(cluster.verdict(0), service::Session::Status::kRejected);
}

TEST(EnforcedPort, OverflowIsStickyAtMonitorCoreLevel) {
  // 20 announced-but-pending enqueues make the closure of any completed
  // op's sketch blow a tiny exploration budget; the overflow must settle
  // the checker sticky-kOverflowed instead of escaping as an exception.
  auto q = make_ms_queue();
  auto obj = make_linearizable_object(make_queue_spec(), /*max_configs=*/256);
  constexpr size_t kProcs = 20;
  AStar astar(kProcs, *q);
  SteppedAStar step(astar);
  MonitorCore core(kProcs, 2, *obj);

  for (ProcId p = 1; p < kProcs; ++p) {
    step.announce(p, Method::kEnqueue, p);
  }
  step.announce(0, Method::kEnqueue, 100);
  step.invoke(0);
  auto r = step.complete(0);
  core.publish(0, r.op, r.y, std::move(r.view));

  EXPECT_FALSE(core.check(0));
  EXPECT_EQ(core.check_status(0), MonitorCore::CheckStatus::kOverflowed);
  EXPECT_TRUE(core.overflowed(0));
  // Sticky and silent: further checks keep returning false without
  // re-merging or throwing.
  EXPECT_FALSE(core.check(0));
  EXPECT_TRUE(core.overflowed(0));
  // An independent checker overflows on its own merge of the same records.
  EXPECT_FALSE(core.check(1));
  EXPECT_TRUE(core.overflowed(1));
}

TEST(EnforcedPort, OverflowSurfacesAsStickyErrorInSelfEnforced) {
  auto q = make_ms_queue();
  auto obj = make_linearizable_object(make_queue_spec(), /*max_configs=*/256);
  constexpr size_t kProcs = 20;
  SelfEnforced se(kProcs, *q, *obj);
  SteppedAStar step(se.astar());
  for (ProcId p = 1; p < kProcs; ++p) {
    step.announce(p, Method::kEnqueue, p);
  }
  auto o1 = se.apply(0, Method::kEnqueue, 100);
  EXPECT_TRUE(o1.error);
  EXPECT_TRUE(o1.overflow);
  EXPECT_EQ(o1.value, kError);
  EXPECT_TRUE(se.overflowed(0));
  auto o2 = se.apply(0, Method::kEnqueue, 101);
  EXPECT_TRUE(o2.error);
  EXPECT_TRUE(o2.overflow);
  EXPECT_EQ(se.error_count(), 2u);
}

}  // namespace
}  // namespace selin
