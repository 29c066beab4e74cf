// B-E9 — end-to-end verifier throughput (Figure 10) across object families
// and snapshot implementations: what a client pays per verified operation,
// all layers included (A* + publish + snapshot of M + incremental X(τ)
// membership test).
#include <benchmark/benchmark.h>

#include "selin/selin.hpp"

namespace {

using namespace selin;

ObjectKind kind_of(int64_t i) {
  switch (i) {
    case 0: return ObjectKind::kQueue;
    case 1: return ObjectKind::kStack;
    case 2: return ObjectKind::kSet;
    case 3: return ObjectKind::kCounter;
    case 4: return ObjectKind::kRegister;
    default: return ObjectKind::kConsensus;
  }
}

void BM_VerifierThroughput(benchmark::State& state) {
  static std::unique_ptr<IConcurrent> impl;
  static std::unique_ptr<GenLinObject> obj;
  static std::unique_ptr<AStar> astar;
  static std::unique_ptr<Verifier> verifier;
  ObjectKind kind = kind_of(state.range(0));
  if (state.thread_index() == 0) {
    StepCounter::set_enabled(false);
    impl = make_correct_impl(kind);
    obj = make_linearizable_object(make_spec(kind));
    astar = std::make_unique<AStar>(static_cast<size_t>(state.threads()),
                                    *impl);
    verifier = std::make_unique<Verifier>(*astar, *obj);
  }
  auto p = static_cast<ProcId>(state.thread_index());
  Rng rng(p * 13 + 17);
  for (auto _ : state) {
    auto [m, arg] = random_op(kind, rng);
    benchmark::DoNotOptimize(verifier->step(p, m, arg));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.SetLabel(object_kind_name(kind));
    state.counters["errors"] =
        benchmark::Counter(static_cast<double>(verifier->error_count()));
  }
}

BENCHMARK(BM_VerifierThroughput)
    ->DenseRange(0, 5)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime()
    ->Iterations(10000);

// Snapshot choice sensitivity for the full verifier loop.
void BM_VerifierSnapshotChoice(benchmark::State& state) {
  static std::unique_ptr<IConcurrent> impl;
  static std::unique_ptr<GenLinObject> obj;
  static std::unique_ptr<AStar> astar;
  static std::unique_ptr<Verifier> verifier;
  SnapshotKind snap = state.range(0) == 0 ? SnapshotKind::kDoubleCollect
                                          : SnapshotKind::kAfek;
  if (state.thread_index() == 0) {
    StepCounter::set_enabled(false);
    impl = make_ms_queue();
    obj = make_linearizable_object(make_queue_spec());
    astar = std::make_unique<AStar>(static_cast<size_t>(state.threads()),
                                    *impl, snap);
    verifier = std::make_unique<Verifier>(*astar, *obj, Verifier::ErrorReport{},
                                          snap);
  }
  auto p = static_cast<ProcId>(state.thread_index());
  Rng rng(p + 23);
  for (auto _ : state) {
    auto [m, arg] = random_op(ObjectKind::kQueue, rng);
    benchmark::DoNotOptimize(verifier->step(p, m, arg));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.SetLabel(snapshot_kind_name(snap));
  }
}

BENCHMARK(BM_VerifierSnapshotChoice)
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Iterations(10000);

}  // namespace
