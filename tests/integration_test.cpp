// Cross-module integration: the full accountability story of Section 8.3 —
// a client C consuming a self-enforced object, mixed correct/faulty
// substrates, certificates audited offline, and the task-verification path
// of Section 9.3 through real snapshot executions.
#include <gtest/gtest.h>

#include <thread>

#include "test_util.hpp"

namespace selin {
namespace {

// A miniature "client C": a work-distribution pipeline where producers
// enqueue jobs and consumers dequeue them, counting what they see.  With the
// self-enforced queue, C is guaranteed every consumed job is linearizable-
// consistent or flagged.
TEST(Integration, ClientPipelineOverSelfEnforcedQueue) {
  constexpr size_t kProcs = 4;
  auto q = make_ms_queue();
  auto obj = make_linearizable_object(make_queue_spec());
  SelfEnforced se(kProcs, *q, *obj);

  std::atomic<int> produced{0}, consumed{0}, errors{0};
  SpinBarrier barrier(kProcs);
  std::vector<std::thread> threads;
  for (ProcId p = 0; p < kProcs; ++p) {
    threads.emplace_back([&, p] {
      barrier.arrive_and_wait();
      if (p % 2 == 0) {
        for (int i = 0; i < 120; ++i) {
          auto out = se.apply(p, Method::kEnqueue, p * 1000 + i);
          if (out.error) errors.fetch_add(1);
          else produced.fetch_add(1);
        }
      } else {
        // Keep polling past the quota until something was consumed: on a
        // single-core host the consumers can exhaust a fixed attempt budget
        // before any producer is scheduled, and the assertion below needs at
        // least one successful dequeue.  The cap keeps a genuine bug finite.
        for (int i = 0; i < 150 || (consumed.load() == 0 && i < 200000); ++i) {
          auto out = se.apply(p, Method::kDequeue);
          if (out.error) errors.fetch_add(1);
          else if (out.value != kEmpty) consumed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_LE(consumed.load(), produced.load());
  EXPECT_GT(consumed.load(), 0);
}

// Section 8.3: several objects in one system, each self-enforced; the faulty
// one is accounted, the correct one untouched — the client can attribute
// blame per object.
TEST(Integration, PerObjectAccountability) {
  auto good_q = make_ms_queue();
  auto bad_c = make_stale_counter(1, 2, 321);
  auto qobj = make_linearizable_object(make_queue_spec());
  auto cobj = make_linearizable_object(make_counter_spec());
  SelfEnforced q(2, *good_q, *qobj);
  SelfEnforced c(2, *bad_c, *cobj);

  Rng rng(5);
  bool counter_flagged = false;
  for (int i = 0; i < 200; ++i) {
    auto [qm, qarg] = random_op(ObjectKind::kQueue, rng);
    EXPECT_FALSE(q.apply(i % 2, qm, qarg).error);
    auto out = c.apply(i % 2, Method::kInc);
    if (out.error) {
      counter_flagged = true;
      break;
    }
  }
  EXPECT_TRUE(counter_flagged);
  EXPECT_EQ(q.error_count(), 0u);
  // Forensics: the counter's certificate convicts it offline.
  History cert = c.certificate(0).empty() ? c.certificate(1) : c.certificate(0);
  EXPECT_FALSE(cobj->contains(cert));
  // ...and the queue's certificate exonerates it.
  EXPECT_TRUE(qobj->contains(q.certificate(0)));
}

// Section 9.3 via the real machinery: write-snapshot implemented directly on
// an atomic snapshot object, verified through the task's GenLin object.
TEST(Integration, WriteSnapshotTaskThroughRealSnapshots) {
  constexpr size_t kProcs = 4;
  auto snap = make_snapshot<uint64_t>(SnapshotKind::kAfek, kProcs, 0);
  auto obj = make_write_snapshot_object(kProcs);

  // Correct write-snapshot: write your flag, scan, output the mask of flags.
  auto task_impl = [&](ProcId p) -> Value {
    snap->write(p, 1);
    std::vector<uint64_t> v;
    snap->scan(p, v);
    uint64_t mask = 0;
    for (size_t j = 0; j < kProcs; ++j) {
      if (v[j] != 0) mask |= 1ULL << j;
    }
    return static_cast<Value>(mask);
  };

  std::vector<Value> outs(kProcs);
  SpinBarrier barrier(kProcs);
  std::vector<std::thread> threads;
  for (ProcId p = 0; p < kProcs; ++p) {
    threads.emplace_back([&, p] {
      barrier.arrive_and_wait();
      outs[p] = task_impl(p);
    });
  }
  for (auto& t : threads) t.join();

  // All ops concurrent: the task history with all invs first.
  History h;
  for (ProcId p = 0; p < kProcs; ++p) {
    h.push_back(Event::inv(OpDesc{OpId{p, 0}, Method::kWriteSnap, 1}));
  }
  for (ProcId p = 0; p < kProcs; ++p) {
    h.push_back(Event::res(OpDesc{OpId{p, 0}, Method::kWriteSnap, 1}, outs[p]));
  }
  EXPECT_TRUE(obj->contains(h)) << format_history(h);
}

// The same task with a *collect* (non-atomic double read) instead of a
// snapshot can violate comparability; the object then rejects.  We simulate
// the classic bad interleaving deterministically.
TEST(Integration, NonAtomicCollectViolatesTask) {
  auto obj = make_write_snapshot_object(2);
  // p0 sees only itself; p1 sees only itself — classic split-brain outputs
  // impossible under atomic snapshots.
  History h{
      Event::inv(OpDesc{OpId{0, 0}, Method::kWriteSnap, 1}),
      Event::inv(OpDesc{OpId{1, 0}, Method::kWriteSnap, 1}),
      Event::res(OpDesc{OpId{0, 0}, Method::kWriteSnap, 1}, 0b01),
      Event::res(OpDesc{OpId{1, 0}, Method::kWriteSnap, 1}, 0b10),
  };
  EXPECT_FALSE(obj->contains(h));
}

// GenLin beyond linearizability end to end: the exchanger as the enforced
// object, driven through the verifier with hand-scheduled A* operations.
TEST(Integration, ExchangerUnderSetLinearizability) {
  auto obj = make_set_linearizable_object(make_exchanger_spec());

  // A fake exchanger implementation that pairs the two concurrent calls.
  class PairingExchanger final : public IConcurrent {
   public:
    const char* name() const override { return "pairing-exchanger"; }
    Value apply(ProcId, const OpDesc& op) override {
      // First caller parks its value; second caller swaps.
      Value parked = slot_.exchange(op.arg, std::memory_order_acq_rel);
      if (parked == kNoArg) {
        // Wait briefly for a partner (bounded, then try to give up).
        for (int i = 0; i < 1000; ++i) {
          Value taken = taken_.exchange(kNoArg, std::memory_order_acq_rel);
          if (taken != kNoArg) return taken;
          std::this_thread::yield();
        }
        // Withdraw the offer atomically; if the CAS fails a partner already
        // took it, so the swap MUST complete — wait for the counter-value.
        Value mine = op.arg;
        if (slot_.compare_exchange_strong(mine, kNoArg,
                                          std::memory_order_acq_rel)) {
          return kEmpty;
        }
        for (;;) {
          Value taken = taken_.exchange(kNoArg, std::memory_order_acq_rel);
          if (taken != kNoArg) return taken;
          std::this_thread::yield();
        }
      }
      taken_.store(op.arg, std::memory_order_release);
      return parked;
    }

   private:
    std::atomic<Value> slot_{kNoArg};
    std::atomic<Value> taken_{kNoArg};
  };

  PairingExchanger ex;
  AStar astar(2, ex);
  Verifier v(astar, *obj);
  std::thread t1([&] { v.step(0, Method::kExchange, 10); });
  std::thread t2([&] { v.step(1, Method::kExchange, 20); });
  t1.join();
  t2.join();
  EXPECT_EQ(v.error_count(), 0u);
}

}  // namespace
}  // namespace selin
