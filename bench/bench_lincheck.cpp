// B7 — cost of the local membership test P_O (Section 8.2's closing remark:
// the X(τ) construction is polynomial; the membership test dominates).
//
// Three facets:
//  * offline full-history check versus history length, per object family,
//  * the *incremental* monitor's amortized per-event cost (what Figures
//    10/11 actually pay per operation),
//  * sensitivity to the concurrency degree (open operations widen the
//    frontier — the NP-hardness lever).
#include <benchmark/benchmark.h>

#include "selin/selin.hpp"

namespace {

using namespace selin;

ObjectKind kind_of(int64_t i) {
  switch (i) {
    case 0: return ObjectKind::kQueue;
    case 1: return ObjectKind::kStack;
    case 2: return ObjectKind::kCounter;
    case 3: return ObjectKind::kRegister;
    default: return ObjectKind::kSet;
  }
}

// Linearizable-by-construction random history of the requested length.
// The concurrency window is capped at 2 simultaneously open operations:
// membership checking is NP-hard in the window width, and *sustained* wide
// windows over hundreds of operations (which no wait-free execution
// produces — operations complete promptly) make the frontier exponential.
// BM_FrontierVsConcurrency below prices the window width in isolation.
History make_history(ObjectKind kind, size_t n_procs, size_t ops,
                     uint64_t seed) {
  Rng rng(seed);
  auto spec = make_spec(kind);
  auto state = spec->initial();
  History h;
  struct Pend {
    OpDesc op;
    Value result;
  };
  std::vector<std::optional<Pend>> pend(n_procs);
  std::vector<uint32_t> seq(n_procs, 0);
  size_t invoked = 0;
  size_t open = 0;
  while (invoked < ops || open > 0) {
    ProcId p = static_cast<ProcId>(rng.below(n_procs));
    if (!pend[p].has_value()) {
      if (invoked >= ops || open >= 2) continue;
      auto [m, arg] = random_op(kind, rng);
      OpDesc d{OpId{p, seq[p]++}, m, arg};
      h.push_back(Event::inv(d));
      pend[p] = Pend{d, state->step(m, arg)};
      ++invoked;
      ++open;
    } else if (rng.chance(2, 3)) {
      h.push_back(Event::res(pend[p]->op, pend[p]->result));
      pend[p].reset();
      --open;
    }
  }
  return h;
}

void BM_OfflineCheckVsLength(benchmark::State& state) {
  ObjectKind kind = kind_of(state.range(0));
  size_t ops = static_cast<size_t>(state.range(1));
  auto spec = make_spec(kind);
  History h = make_history(kind, 3, ops, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linearizable(*spec, h));
  }
  state.SetLabel(std::string(object_kind_name(kind)) + "/ops=" +
                 std::to_string(ops));
  state.SetItemsProcessed(state.iterations() * ops);
}

BENCHMARK(BM_OfflineCheckVsLength)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {16, 64, 256, 1024}});

// Note the 512-op histories: a single monitor instance accumulates genuine
// linearization ambiguity over time for LIFO objects — two overlapping
// pushes whose elements are never popped stay permutable forever, so the
// frontier doubles per unresolved pair (measured: >10^5 configurations by
// ~7k events on a drifting stack).  Queues self-heal (FIFO flow eventually
// dequeues every ambiguous element).  This is a property of the *problem*,
// not the checker; the verifier in production restarts from sketch levels,
// and real workloads drain.  EXPERIMENTS.md discusses it.
void BM_IncrementalMonitorPerEvent(benchmark::State& state) {
  ObjectKind kind = kind_of(state.range(0));
  auto spec = make_spec(kind);
  History h = make_history(kind, 4, 512, 7);
  size_t i = 0;
  auto m = std::make_unique<LinMonitor>(*spec);
  uint64_t events = 0;
  for (auto _ : state) {
    if (i == h.size()) {  // restart on a fresh monitor
      state.PauseTiming();
      m = std::make_unique<LinMonitor>(*spec);
      i = 0;
      state.ResumeTiming();
    }
    m->feed(h[i++]);
    ++events;
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.SetLabel(object_kind_name(kind));
}

BENCHMARK(BM_IncrementalMonitorPerEvent)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// Frontier blow-up with the number of concurrently open operations: n
// overlapping enqueues admit up to n! linearization orders until dequeues
// disambiguate.
void BM_FrontierVsConcurrency(benchmark::State& state) {
  size_t width = static_cast<size_t>(state.range(0));
  auto spec = make_queue_spec();
  History h;
  for (size_t p = 0; p < width; ++p) {
    h.push_back(
        Event::inv(OpDesc{OpId{static_cast<ProcId>(p), 0}, Method::kEnqueue,
                          static_cast<Value>(p + 1)}));
  }
  for (size_t p = 0; p < width; ++p) {
    h.push_back(
        Event::res(OpDesc{OpId{static_cast<ProcId>(p), 0}, Method::kEnqueue,
                          static_cast<Value>(p + 1)},
                   kTrue));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(linearizable(*spec, h, /*max_configs=*/1 << 22));
  }
  state.SetLabel("open_ops=" + std::to_string(width));
}

BENCHMARK(BM_FrontierVsConcurrency)->DenseRange(1, 7);

}  // namespace
