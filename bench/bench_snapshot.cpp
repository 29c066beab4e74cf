// B6 — snapshot substrate scaling.
//
// Measures Write and Scan throughput of the three snapshot implementations
// as the number of concurrent processes grows.  Expected shape: the mutex
// baseline collapses under contention; double-collect scans degrade with
// writers (retries); Afek stays wait-free with an O(n^2) constant.
#include <benchmark/benchmark.h>

#include <thread>

#include "selin/selin.hpp"

namespace {

using namespace selin;

SnapshotKind kind_of(int64_t i) {
  switch (i) {
    case 0: return SnapshotKind::kMutex;
    case 1: return SnapshotKind::kDoubleCollect;
    default: return SnapshotKind::kAfek;
  }
}

void BM_SnapshotWriteScan(benchmark::State& state) {
  static std::unique_ptr<Snapshot<uint64_t>> snap;
  if (state.thread_index() == 0) {
    StepCounter::set_enabled(false);
    snap = make_snapshot<uint64_t>(kind_of(state.range(0)),
                                   static_cast<size_t>(state.threads()), 0);
  }
  auto p = static_cast<ProcId>(state.thread_index());
  uint64_t v = 0;
  std::vector<uint64_t> out;
  for (auto _ : state) {
    snap->write(p, ++v);
    snap->scan(p, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.SetLabel(snapshot_kind_name(kind_of(state.range(0))));
  }
}

BENCHMARK(BM_SnapshotWriteScan)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ThreadRange(1, 8)
    ->UseRealTime();

void BM_SnapshotScanOnly(benchmark::State& state) {
  static std::unique_ptr<Snapshot<uint64_t>> snap;
  static std::atomic<bool> stop;
  static std::thread writer;
  if (state.thread_index() == 0) {
    StepCounter::set_enabled(false);
    size_t n = static_cast<size_t>(state.threads()) + 1;
    snap = make_snapshot<uint64_t>(kind_of(state.range(0)), n, 0);
    stop.store(false);
    // One background writer supplies continuous interference.
    writer = std::thread([n] {
      uint64_t v = 0;
      while (!stop.load(std::memory_order_acquire)) {
        snap->write(static_cast<ProcId>(n - 1), ++v);
      }
    });
  }
  auto p = static_cast<ProcId>(state.thread_index());
  std::vector<uint64_t> out;
  for (auto _ : state) {
    snap->scan(p, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  if (state.thread_index() == 0) {
    stop.store(true, std::memory_order_release);
    writer.join();
    state.SetLabel(snapshot_kind_name(kind_of(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_SnapshotScanOnly)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ThreadRange(1, 4)
    ->UseRealTime();

// Step complexity of one Write+Scan pair versus n (solo run): the O(n) vs
// O(n^2) separation between double-collect and Afek.
void BM_SnapshotStepsVsN(benchmark::State& state) {
  StepCounter::set_enabled(true);
  size_t n = static_cast<size_t>(state.range(1));
  auto snap = make_snapshot<uint64_t>(kind_of(state.range(0)), n, 0);
  uint64_t v = 0;
  uint64_t total_steps = 0, ops = 0;
  std::vector<uint64_t> out;
  for (auto _ : state) {
    StepProbe probe;
    snap->write(0, ++v);
    snap->scan(0, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    total_steps += probe.steps();
    ++ops;
  }
  state.counters["steps_per_op"] =
      benchmark::Counter(static_cast<double>(total_steps) /
                         static_cast<double>(ops));
  state.SetLabel(std::string(snapshot_kind_name(kind_of(state.range(0)))) +
                 "/n=" + std::to_string(n));
  StepCounter::set_enabled(false);
}

BENCHMARK(BM_SnapshotStepsVsN)
    ->ArgsProduct({{1, 2}, {2, 4, 8, 16, 32}});

}  // namespace
