// The `abd_cluster` facet: a monitored ABD cluster under load — hundreds to
// thousands of logical clients riding a few driver threads, every operation
// runtime-verified through per-register MonitorService sessions on the
// batched frontier engine, over reliable and lossy/reordered simulated
// links.
//
// items/s = completed *verified* client operations (the drainer keeps the
// sessions caught up during the run; teardown drains the tail and asserts
// every verdict stayed kOk).  Counters: ABD protocol messages per op,
// messages dropped by the lossy links, client retransmissions, and events
// fed to the monitors.
#include <benchmark/benchmark.h>

#include "selin/msgpass/abd_cluster.hpp"
#include "selin/selin.hpp"

namespace {

using namespace selin;

// args: {logical clients, drop permille (reorder rides along when > 0)}
void BM_AbdClusterVerifiedOps(benchmark::State& state) {
  static std::unique_ptr<AbdCluster> cluster;
  const size_t clients = static_cast<size_t>(state.range(0));
  const uint32_t drop = static_cast<uint32_t>(state.range(1));
  const size_t threads = static_cast<size_t>(state.threads());
  if (state.thread_index() == 0) {
    StepCounter::set_enabled(false);
    AbdClusterOptions opts;
    opts.replicas = 3;
    opts.keys = 4;
    opts.seed = 21;
    opts.max_delay_us = 0;
    opts.drop_permille = drop;
    opts.reorder = drop > 0;
    cluster = std::make_unique<AbdCluster>(opts);
    cluster->start_drainer();
  }
  // Each driver thread owns a disjoint slice of the logical client
  // population and cycles through it, so every client stays sequential
  // while the cluster sees `threads` concurrent ops.
  const size_t slice = clients / threads;
  const size_t base = static_cast<size_t>(state.thread_index()) * slice;
  Rng rng(base + 77);
  size_t next = 0;
  for (auto _ : state) {
    ProcId client = static_cast<ProcId>(base + next);
    next = (next + 1) % slice;
    uint64_t key = rng.below(4);
    if (rng.below(2) == 0) {
      cluster->write(client, key, static_cast<Value>(rng.below(1000)));
    } else {
      benchmark::DoNotOptimize(cluster->read(client, key));
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    cluster->stop_drainer();
    const double ops = static_cast<double>(cluster->ops());
    state.counters["msgs_per_op"] = benchmark::Counter(
        static_cast<double>(cluster->network().messages_processed()) /
        (ops > 0 ? ops : 1));
    state.counters["dropped"] = benchmark::Counter(
        static_cast<double>(cluster->network().messages_dropped()));
    state.counters["retransmits"] = benchmark::Counter(
        static_cast<double>(cluster->network().retransmissions()));
    state.counters["events_fed"] =
        benchmark::Counter(static_cast<double>(cluster->stats().events_fed));
    state.counters["all_ok"] =
        benchmark::Counter(cluster->all_ok() ? 1.0 : 0.0);
    state.SetLabel("clients=" + std::to_string(clients) +
                   (drop > 0 ? " lossy+reordered" : " reliable"));
    cluster.reset();
  }
}

BENCHMARK(BM_AbdClusterVerifiedOps)
    ->Args({256, 0})
    ->Args({256, 20})
    ->Args({2048, 0})
    ->Args({2048, 20})
    ->Threads(4)
    ->UseRealTime()
    ->Iterations(1024);

}  // namespace
