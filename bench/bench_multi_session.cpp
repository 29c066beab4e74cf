// Multi-tenant service throughput (the `multi_session` facet of
// BENCH_lincheck.json): aggregate verified events/sec of N independent
// sessions, each owning its monitor, dedup arenas and frontier, drained in
// turn by one MonitorService on the calling thread.  The sweep shows how
// the aggregate rate moves as sessions are added to one drain loop.
//
// BM_BatchedFeedAmortization isolates the other half of the service's
// pipeline: the same event stream fed per-event versus in service-sized
// batches through one monitor — the batch path runs one closure per run of
// consecutive responses instead of one per response.
#include <benchmark/benchmark.h>

#include "selin/selin.hpp"

namespace {

using namespace selin;

// Linearizable-by-construction random history, concurrency window capped at
// 2 (the realistic wait-free shape; bench_lincheck documents the cap).
History make_session_history(ObjectKind kind, size_t n_procs, size_t ops,
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

constexpr ObjectKind kSessionKinds[] = {
    ObjectKind::kQueue, ObjectKind::kCounter, ObjectKind::kRegister,
    ObjectKind::kSet,
};

void BM_MultiSessionThroughput(benchmark::State& state) {
  const size_t sessions = static_cast<size_t>(state.range(0));
  constexpr size_t kOpsPerSession = 256;

  std::vector<History> histories;
  histories.reserve(sessions);
  for (size_t i = 0; i < sessions; ++i) {
    histories.push_back(make_session_history(
        kSessionKinds[i % std::size(kSessionKinds)], 3, kOpsPerSession,
        42 + i * 13));
  }

  uint64_t events = 0;
  for (auto _ : state) {
    service::ServiceOptions opts;
    opts.batch_limit = 256;
    service::MonitorService svc(opts);
    for (size_t i = 0; i < sessions; ++i) {
      svc.open("s" + std::to_string(i),
               make_spec(kSessionKinds[i % std::size(kSessionKinds)]));
      svc.feed(i, std::span<const Event>(histories[i].data(),
                                         histories[i].size()));
    }
    svc.drain();
    for (size_t i = 0; i < sessions; ++i) {
      benchmark::DoNotOptimize(svc.session(i).ok());
      events += svc.session(i).events_fed();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.SetLabel("sessions=" + std::to_string(sessions));
}

BENCHMARK(BM_MultiSessionThroughput)
    ->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Per-event versus batched feeding of one stream through one sequential
// monitor: arg 0 = per-event, arg N = feed_batch in N-event chunks.
void BM_BatchedFeedAmortization(benchmark::State& state) {
  const size_t chunk = static_cast<size_t>(state.range(0));
  auto spec = make_queue_spec();
  History h = make_session_history(ObjectKind::kQueue, 4, 1024, 7);
  uint64_t events = 0;
  for (auto _ : state) {
    LinMonitor m(*spec);
    if (chunk == 0) {
      for (const Event& e : h) m.feed(e);
    } else {
      for (size_t i = 0; i < h.size(); i += chunk) {
        m.feed_batch({h.data() + i, std::min(chunk, h.size() - i)});
      }
    }
    benchmark::DoNotOptimize(m.ok());
    events += h.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.SetLabel(chunk == 0 ? "per-event"
                            : "batch=" + std::to_string(chunk));
}

BENCHMARK(BM_BatchedFeedAmortization)->Arg(0)->Arg(64)->Arg(256);

}  // namespace
