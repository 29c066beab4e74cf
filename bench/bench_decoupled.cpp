// B4 — Section 9.2: decoupling production from verification.
//
// Producer-side comparison: V_{O,A} (every process checks after every
// operation, Figure 11) versus D_{O,A} (producers only publish; verifier
// threads check, Figure 12).  Expected shape: decoupled producer latency
// approaches the bare A* cost, while the coupled version pays the membership
// test inline.
#include <benchmark/benchmark.h>

#include <thread>

#include "selin/selin.hpp"

namespace {

using namespace selin;

void BM_CoupledProducer(benchmark::State& state) {
  static std::unique_ptr<IConcurrent> impl;
  static std::unique_ptr<GenLinObject> obj;
  static std::unique_ptr<SelfEnforced> se;
  if (state.thread_index() == 0) {
    StepCounter::set_enabled(false);
    impl = make_ms_queue();
    obj = make_linearizable_object(make_queue_spec());
    se = std::make_unique<SelfEnforced>(
        static_cast<size_t>(state.threads()), *impl, *obj);
  }
  auto p = static_cast<ProcId>(state.thread_index());
  Rng rng(p * 5 + 7);
  for (auto _ : state) {
    auto [m, arg] = random_op(ObjectKind::kQueue, rng);
    benchmark::DoNotOptimize(se->apply(p, m, arg));
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_CoupledProducer)
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->Iterations(10000);

void BM_DecoupledProducer(benchmark::State& state) {
  static std::unique_ptr<IConcurrent> impl;
  static std::unique_ptr<GenLinObject> obj;
  static std::unique_ptr<Decoupled> d;
  static std::atomic<bool> stop;
  static std::thread verifier;
  if (state.thread_index() == 0) {
    StepCounter::set_enabled(false);
    impl = make_ms_queue();
    obj = make_linearizable_object(make_queue_spec());
    d = std::make_unique<Decoupled>(static_cast<size_t>(state.threads()),
                                    /*n_verifiers=*/1, *impl, *obj);
    stop.store(false);
    verifier = std::thread([] {
      while (!stop.load(std::memory_order_acquire)) d->verify_once(0);
    });
  }
  auto p = static_cast<ProcId>(state.thread_index());
  Rng rng(p * 5 + 7);
  for (auto _ : state) {
    auto [m, arg] = random_op(ObjectKind::kQueue, rng);
    benchmark::DoNotOptimize(d->apply(p, m, arg));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    stop.store(true, std::memory_order_release);
    verifier.join();
    state.counters["errors"] =
        benchmark::Counter(static_cast<double>(d->error_count()));
  }
}

BENCHMARK(BM_DecoupledProducer)
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->Iterations(10000);

// Verifier-side: cost of one verify_once pass as the backlog of unseen
// records grows (detection-lag pricing).
void BM_VerifierPassVsBacklog(benchmark::State& state) {
  StepCounter::set_enabled(false);
  int64_t backlog = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    auto impl = make_ms_queue();
    auto obj = make_linearizable_object(make_queue_spec());
    Decoupled d(2, 1, *impl, *obj);
    Rng rng(11);
    for (int64_t i = 0; i < backlog; ++i) {
      auto [m, arg] = random_op(ObjectKind::kQueue, rng);
      d.apply(static_cast<ProcId>(i % 2), m, arg);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(d.verify_once(0));
  }
  state.SetLabel("backlog=" + std::to_string(backlog));
}

BENCHMARK(BM_VerifierPassVsBacklog)->Arg(10)->Arg(100)->Arg(1000);

// Batch amortization of the verifier pass: total cost of producing
// AND verifying a fixed op stream when the verifier passes every k applies
// (k=1 is the coupled-equivalent cadence; larger k approaches one level
// fed per op — the shape the `enforced` facet records as its decoupled
// arm).
void BM_VerifierBatchAmortization(benchmark::State& state) {
  StepCounter::set_enabled(false);
  const int64_t k = state.range(0);
  constexpr int64_t kOps = 2048;
  for (auto _ : state) {
    state.PauseTiming();
    auto impl = make_ms_queue();
    auto obj = make_linearizable_object(make_queue_spec());
    Decoupled d(8, 1, *impl, *obj);
    Rng rng(13);
    state.ResumeTiming();
    for (int64_t i = 0; i < kOps; ++i) {
      auto [m, arg] = random_op(ObjectKind::kQueue, rng);
      benchmark::DoNotOptimize(d.apply(static_cast<ProcId>(i % 8), m, arg));
      if ((i + 1) % k == 0) benchmark::DoNotOptimize(d.verify_once(0));
    }
    if (kOps % k != 0) d.verify_once(0);
  }
  state.SetItemsProcessed(state.iterations() * kOps);
  state.SetLabel("verify_every=" + std::to_string(k));
}

BENCHMARK(BM_VerifierBatchAmortization)->Arg(1)->Arg(64)->Arg(512);

}  // namespace
