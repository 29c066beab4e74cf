// Checkpoint replay for the leveled checker:
//
//   * verdicts across checkpoint strides on storm-shaped publish orders,
//     checked against the one-shot membership test after every record;
//   * batched resyncs against per-record ones;
//   * eager checkpoint release on rollback — live-monitor accounting
//     through a counting wrapper object, plus checkpoint_count();
//   * engine counters that keep the events a rollback replays.
#include <gtest/gtest.h>

#include <memory>

#include "test_util.hpp"

namespace selin {
namespace {

// Hand-rolled chain builder for deterministic view construction (the same
// shape views_test uses).
class ChainBuilder {
 public:
  explicit ChainBuilder(size_t n) : heads_(n, nullptr) {}

  const SetNode* announce(const OpDesc& op) {
    ProcId p = op.id.pid;
    nodes_.push_back(std::make_unique<SetNode>(SetNode{
        op, heads_[p], heads_[p] == nullptr ? 1u : heads_[p]->len + 1}));
    heads_[p] = nodes_.back().get();
    return heads_[p];
  }

  View snap() const { return View(heads_); }

 private:
  std::vector<const SetNode*> heads_;
  std::vector<std::unique_ptr<SetNode>> nodes_;
};

// A batch of λ-records together with a storm-shaped publish order: process
// 0's records are published promptly while every other process trails the
// announcement order by a few positions (its records stay unread in M for a
// while, the Lemma 8.1 slack), so stragglers land mid-history and force
// rollbacks while the number of simultaneously missing records — and hence
// the pending-invocation load on the membership frontier — stays bounded.
struct StormBatch {
  ChainBuilder chain{1};
  std::vector<LambdaRecord> records;   // in announcement order
  std::vector<size_t> publish_order;
};

StormBatch make_storm(ObjectKind kind, size_t procs, size_t ops,
                      uint64_t seed, size_t delay = 6) {
  StormBatch b;
  b.chain = ChainBuilder(procs);
  test::OpFactory f;
  Rng rng(seed);
  auto spec = make_spec(kind);
  auto state = spec->initial();
  std::vector<std::pair<size_t, size_t>> timed;  // (publish time, record)
  for (size_t i = 0; i < ops; ++i) {
    ProcId p = static_cast<ProcId>(i % procs);
    auto [m, arg] = random_op(kind, rng);
    OpDesc op = f.op(p, m, arg);
    b.chain.announce(op);
    b.records.push_back({op, state->step(m, arg), b.chain.snap()});
    timed.push_back({p == 0 ? i : i + delay + p, i});
  }
  std::stable_sort(timed.begin(), timed.end());
  for (const auto& [t, i] : timed) b.publish_order.push_back(i);
  return b;
}

TEST(LeveledParallel, VerdictMatchesOneShotAcrossStrides) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    StormBatch storm = make_storm(ObjectKind::kQueue, 3, 36, seed);
    auto obj = make_linearizable_object(make_queue_spec());
    for (size_t stride : {size_t{1}, size_t{4}, size_t{16}}) {
      XBuilder seq_b;
      LeveledChecker seq(*obj, stride);
      for (size_t i : storm.publish_order) {
        size_t lvl_s = seq_b.add(&storm.records[i]);
        bool vs = seq.resync(seq_b, lvl_s);
        ASSERT_EQ(vs, obj->contains(seq_b.flatten()))
            << "seed " << seed << " stride " << stride;
      }
      EXPECT_GT(seq.rollbacks(), 0u);
    }
  }
}

TEST(LeveledParallel, BatchedResyncMatchesPerRecordResync) {
  StormBatch storm = make_storm(ObjectKind::kQueue, 3, 36, 7);
  auto obj = make_linearizable_object(make_queue_spec());
  XBuilder ref_b, bat_b;
  LeveledChecker ref(*obj, 4);
  LeveledChecker bat(*obj, 4);
  const size_t group = 5;
  for (size_t at = 0; at < storm.publish_order.size(); at += group) {
    bool v_ref = true;
    std::vector<size_t> dirty;
    for (size_t j = at; j < std::min(at + group, storm.publish_order.size());
         ++j) {
      size_t i = storm.publish_order[j];
      v_ref = ref.resync(ref_b, ref_b.add(&storm.records[i]));
      dirty.push_back(bat_b.add(&storm.records[i]));
    }
    bool v_bat = bat.resync(bat_b, dirty);
    ASSERT_EQ(v_bat, v_ref) << "group at " << at;
  }
  // A batch of stragglers costs one restore, not one per record, and the
  // checker sees the storm's shape (per-record feeding never does).
  EXPECT_LT(bat.rollbacks(), ref.rollbacks());
  EXPECT_GT(bat.peak_storm_records(), 1u);
  EXPECT_EQ(ref.peak_storm_records(), 0u);
}

// ---- eager checkpoint release ---------------------------------------------

using test::CountingObject;

TEST(LeveledParallel, RollbackReleasesCheckpointsEagerly) {
  // 60 prompt levels from process 0 plus one straggler from process 1 that
  // lands at level 20.  With stride 4 the checker holds 15 checkpoints; the
  // rollback must keep exactly the 5 below the straggler and release the 10
  // above *before* replaying, not leave them to be overwritten by later
  // feeds.  The counting wrapper bounds the live-monitor peak accordingly.
  test::OpFactory f;
  ChainBuilder cb(2);
  auto spec = make_counter_spec();
  auto state = spec->initial();
  std::vector<LambdaRecord> records;
  LambdaRecord straggler;
  for (int i = 0; i < 60; ++i) {
    if (i == 20) {
      OpDesc late = f.op(1, Method::kInc);
      cb.announce(late);
      straggler = LambdaRecord{late, state->step(Method::kInc, kNoArg),
                               cb.snap()};
    }
    OpDesc op = f.op(0, Method::kInc);
    cb.announce(op);
    records.push_back({op, state->step(Method::kInc, kNoArg), cb.snap()});
  }

  CountingObject obj(make_linearizable_object(make_counter_spec()));
  XBuilder b;
  LeveledChecker checker(obj, 4);
  for (LambdaRecord& r : records) {
    ASSERT_TRUE(checker.resync(b, b.add(&r)));
  }
  ASSERT_EQ(checker.levels_fed(), 60u);
  ASSERT_EQ(checker.checkpoint_count(), 15u);
  ASSERT_EQ(obj.live(), 16);  // live monitor + 15 checkpoints

  obj.reset_peak();
  ASSERT_TRUE(checker.resync(b, b.add(&straggler)));
  EXPECT_EQ(checker.levels_fed(), 61u);
  EXPECT_EQ(checker.checkpoint_count(), 15u);  // 61 / 4, rebuilt on replay
  EXPECT_EQ(obj.live(), 16);
  // Peak live monitors during the rollback+replay: the live monitor, the 5
  // surviving checkpoints, the 10 rebuilt ones, and one transient restore
  // clone.  Without eager release the 10 stale clones double up (>= 26).
  EXPECT_LE(obj.peak(), 17);
  EXPECT_GT(checker.rollbacks(), 0u);
}

TEST(LeveledParallel, StatsCountReplayedEvents) {
  // RollbackReleasesCheckpointsEagerly's shape on a plain counter object:
  // the straggler restores the checkpoint at level 20 and replays from
  // there.  A restore copies the checkpoint's state but not its counters,
  // so events_fed keeps the 121 events fed before (60 responses, 61
  // invocations) and adds the 82 of levels [20, 61) fed again, where a
  // checkpoint clone would report only its own lineage (40 + 82).
  test::OpFactory f;
  ChainBuilder cb(2);
  auto spec = make_counter_spec();
  auto state = spec->initial();
  std::vector<LambdaRecord> records;
  LambdaRecord straggler;
  for (int i = 0; i < 60; ++i) {
    if (i == 20) {
      OpDesc late = f.op(1, Method::kInc);
      cb.announce(late);
      straggler = LambdaRecord{late, state->step(Method::kInc, kNoArg),
                               cb.snap()};
    }
    OpDesc op = f.op(0, Method::kInc);
    cb.announce(op);
    records.push_back({op, state->step(Method::kInc, kNoArg), cb.snap()});
  }

  auto obj = make_linearizable_object(make_counter_spec());
  XBuilder b;
  LeveledChecker checker(*obj, 4);
  for (LambdaRecord& r : records) {
    ASSERT_TRUE(checker.resync(b, b.add(&r)));
  }
  const auto events_in = [&b](size_t lo, size_t hi) {
    uint64_t n = 0;
    for (size_t i = lo; i < hi; ++i) {
      n += b.levels()[i].invs.size() + b.levels()[i].ress.size();
    }
    return n;
  };
  const uint64_t before = checker.stats().events_fed;
  ASSERT_EQ(before, events_in(0, 60));
  ASSERT_EQ(before, 121u);

  const size_t at = b.add(&straggler);
  ASSERT_EQ(at, 20u);
  ASSERT_TRUE(checker.resync(b, at));
  EXPECT_EQ(checker.replayed_levels(), 40u);
  EXPECT_EQ(events_in(20, 61), 82u);
  EXPECT_EQ(checker.stats().events_fed, before + events_in(20, 61));
}

}  // namespace
}  // namespace selin
