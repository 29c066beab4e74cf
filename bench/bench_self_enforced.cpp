// B3 — Theorem 8.2(1): self-enforced throughput/latency versus the raw
// implementation across thread counts and object families.  The enforcement
// tax = A* overhead + publish + incremental membership check.  Expected
// shape: a constant-factor slowdown that grows mildly with threads (bigger
// sketches per check), never a progress loss.
#include <benchmark/benchmark.h>

#include "selin/selin.hpp"

namespace {

using namespace selin;

ObjectKind kind_of(int64_t i) {
  switch (i) {
    case 0: return ObjectKind::kQueue;
    case 1: return ObjectKind::kStack;
    case 2: return ObjectKind::kCounter;
    default: return ObjectKind::kRegister;
  }
}

void BM_RawObject(benchmark::State& state) {
  static std::unique_ptr<IConcurrent> impl;
  ObjectKind kind = kind_of(state.range(0));
  if (state.thread_index() == 0) {
    StepCounter::set_enabled(false);
    impl = make_correct_impl(kind);
  }
  auto p = static_cast<ProcId>(state.thread_index());
  Rng rng(p * 11 + 3);
  uint32_t seq = 0;
  for (auto _ : state) {
    auto [m, arg] = random_op(kind, rng);
    benchmark::DoNotOptimize(impl->apply(p, OpDesc{OpId{p, seq++}, m, arg}));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) state.SetLabel(object_kind_name(kind));
}

BENCHMARK(BM_RawObject)->Arg(0)->Arg(2)->ThreadRange(1, 8)->UseRealTime();

void BM_SelfEnforcedObject(benchmark::State& state) {
  static std::unique_ptr<IConcurrent> impl;
  static std::unique_ptr<GenLinObject> obj;
  static std::unique_ptr<SelfEnforced> se;
  ObjectKind kind = kind_of(state.range(0));
  if (state.thread_index() == 0) {
    StepCounter::set_enabled(false);
    impl = make_correct_impl(kind);
    obj = make_linearizable_object(make_spec(kind));
    se = std::make_unique<SelfEnforced>(
        static_cast<size_t>(state.threads()), *impl, *obj);
  }
  auto p = static_cast<ProcId>(state.thread_index());
  Rng rng(p * 11 + 3);
  for (auto _ : state) {
    auto [m, arg] = random_op(kind, rng);
    benchmark::DoNotOptimize(se->apply(p, m, arg));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.SetLabel(object_kind_name(kind));
    state.counters["errors"] =
        benchmark::Counter(static_cast<double>(se->error_count()));
  }
}

BENCHMARK(BM_SelfEnforcedObject)
    ->Arg(0)
    ->Arg(2)
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->Iterations(20000);

// Certificate extraction cost versus accumulated history size (Theorem
// 8.2(3) is "on demand" — this prices the demand).
void BM_CertificateCost(benchmark::State& state) {
  StepCounter::set_enabled(false);
  auto impl = make_ms_queue();
  auto obj = make_linearizable_object(make_queue_spec());
  SelfEnforced se(2, *impl, *obj);
  Rng rng(5);
  int64_t ops = state.range(0);
  for (int64_t i = 0; i < ops; ++i) {
    auto [m, arg] = random_op(ObjectKind::kQueue, rng);
    se.apply(static_cast<ProcId>(i % 2), m, arg);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(se.certificate(0));
  }
  state.SetLabel("history=" + std::to_string(ops));
}

BENCHMARK(BM_CertificateCost)->Arg(100)->Arg(1000)->Arg(10000);

// The `enforced` facet's A/B: verified-op throughput of the coupled and the
// decoupled enforcement deployments, same host, same single-driver schedule
// over kProcs process slots.
//
//   mode 0  coupled    SelfEnforced (Figure 11): every apply pays an inline
//                      membership pass whose merge spans everything
//                      published since that process slot last checked
//                      (~kProcs records), fed as one dirty batch.
//   mode 1  decoupled  Decoupled with one shared verifier pass per kBatch
//                      applies (Figure 12's deployment): the pass merges
//                      the whole backlog as one dirty batch, ~1 level fed
//                      per op.  Iterations is a multiple of kBatch, so the
//                      last pass lands on the final iteration and every op
//                      is verified inside the timed region.
//
// items/s = verified operations per second in both modes; the facet's
// speedup row in BENCH_lincheck.json is decoupled / coupled.
void BM_EnforcedVerifiedOps(benchmark::State& state) {
  StepCounter::set_enabled(false);
  const int64_t mode = state.range(0);
  constexpr size_t kProcs = 16;
  constexpr int64_t kBatch = 256;
  auto impl = make_ms_queue();
  auto obj = make_linearizable_object(make_queue_spec());
  std::unique_ptr<SelfEnforced> se;
  std::unique_ptr<Decoupled> dec;
  if (mode == 1) {
    dec = std::make_unique<Decoupled>(kProcs, 1, *impl, *obj);
  } else {
    se = std::make_unique<SelfEnforced>(kProcs, *impl, *obj);
  }
  Rng rng(9);
  uint64_t errors = 0;
  int64_t i = 0;
  for (auto _ : state) {
    auto [m, arg] = random_op(ObjectKind::kQueue, rng);
    auto p = static_cast<ProcId>(i % kProcs);
    if (mode == 1) {
      benchmark::DoNotOptimize(dec->apply(p, m, arg));
      if (++i % kBatch == 0) benchmark::DoNotOptimize(dec->verify_once(0));
    } else {
      benchmark::DoNotOptimize(se->apply(p, m, arg));
      ++i;
    }
  }
  if (mode == 1) {
    if (i % kBatch != 0) dec->verify_once(0);  // cover a partial tail
    errors = dec->error_count();
  } else {
    errors = se->error_count();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["errors"] = benchmark::Counter(static_cast<double>(errors));
  state.SetLabel(mode == 0 ? "coupled" : "decoupled");
}

BENCHMARK(BM_EnforcedVerifiedOps)->Arg(0)->Arg(1)->Iterations(8192);

}  // namespace
