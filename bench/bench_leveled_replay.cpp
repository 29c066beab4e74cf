// Checkpoint replay in the leveled checker.
//
//  BM_LeveledRollbackStorm — a prompt spine of levels carrying a set of
//      pending invocations that keeps the replayed frontier ~2^10 wide,
//      followed by a storm of straggler records that each land
//      mid-history and force a rollback+replay.  Checkpoints are cloned
//      inline at the default stride.
#include <benchmark/benchmark.h>

#include "selin/selin.hpp"

namespace {

using namespace selin;

// λ-records for a spine of `spine_ops` prompt operations by process 0 with
// `stragglers` other processes that each announce one operation early (their
// pending invocations ride every later view) and publish its record only
// after the spine has drained — the rollback storm.  Priority-queue inserts
// with distinct arguments keep the open-op subsets distinct while the
// resulting states stay order-insensitive (a multiset, unlike a queue whose
// open-op *orderings* would explode), so the frontier holds ~2^stragglers
// configurations while the stragglers are missing.
struct StormWorkload {
  std::vector<std::unique_ptr<SetNode>> nodes;
  std::vector<LambdaRecord> spine;      // publish first, in order
  std::vector<LambdaRecord> stragglers;  // publish last, oldest first
};

StormWorkload make_storm(size_t spine_ops, size_t stragglers) {
  StormWorkload w;
  const size_t procs = 1 + stragglers;
  std::vector<const SetNode*> heads(procs, nullptr);
  auto spec = make_pqueue_spec();
  auto state = spec->initial();
  auto announce = [&](ProcId p, uint32_t seq, Method m, Value arg) {
    OpDesc op{OpId{p, seq}, m, arg};
    w.nodes.push_back(std::make_unique<SetNode>(SetNode{
        op, heads[p], heads[p] == nullptr ? 1u : heads[p]->len + 1}));
    heads[p] = w.nodes.back().get();
    return LambdaRecord{op, state->step(m, arg), View(heads)};
  };
  for (uint32_t i = 0; i < spine_ops; ++i) {
    if (i >= 8 && i < 8 + stragglers) {
      // One early op per straggler process, an insert with a distinct value.
      w.stragglers.push_back(announce(static_cast<ProcId>(i - 8 + 1), 0,
                                      Method::kPqInsert,
                                      1000 + static_cast<Value>(i)));
    }
    w.spine.push_back(
        announce(0, i, Method::kPqInsert, 1 + static_cast<Value>(i)));
  }
  return w;
}

void run_checker(const StormWorkload& w, const GenLinObject& obj) {
  XBuilder builder;
  LeveledChecker checker(obj);
  for (const LambdaRecord& r : w.spine) {
    benchmark::DoNotOptimize(checker.resync(builder, builder.add(&r)));
  }
  for (const LambdaRecord& r : w.stragglers) {
    benchmark::DoNotOptimize(checker.resync(builder, builder.add(&r)));
  }
}

void BM_LeveledRollbackStorm(benchmark::State& state) {
  StormWorkload w = make_storm(/*spine_ops=*/88, /*stragglers=*/10);
  auto obj = make_linearizable_object(make_pqueue_spec(), /*max_configs=*/
                                      1 << 18);
  for (auto _ : state) {
    run_checker(w, *obj);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() *
                           (w.spine.size() + w.stragglers.size())));
}

BENCHMARK(BM_LeveledRollbackStorm)->Unit(benchmark::kMillisecond);

}  // namespace
