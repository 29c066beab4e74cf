// Views, λ-records and the X(λ) construction (Section 7.3.3), including the
// worked example of Figure 9, Remark 7.2 validation, and the incremental
// XBuilder against the batch construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "test_util.hpp"

namespace selin {
namespace {

// Hand-rolled chain builder for deterministic view construction in tests.
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

  /// A view of the current heads (a snapshot taken "now").
  View snap() const { return View(heads_); }

 private:
  std::vector<const SetNode*> heads_;
  std::vector<std::unique_ptr<SetNode>> nodes_;
};

TEST(View, SizeAndContains) {
  test::OpFactory f;
  ChainBuilder cb(2);
  OpDesc a = f.op(0, Method::kEnqueue, 1);
  OpDesc b = f.op(1, Method::kDequeue);
  cb.announce(a);
  View v1 = cb.snap();
  cb.announce(b);
  View v2 = cb.snap();
  EXPECT_EQ(v1.size(), 1u);
  EXPECT_EQ(v2.size(), 2u);
  EXPECT_TRUE(v1.contains(a.id));
  EXPECT_FALSE(v1.contains(b.id));
  EXPECT_TRUE(v2.contains(b.id));
  EXPECT_TRUE(View::subset_of(v1, v2));
  EXPECT_FALSE(View::subset_of(v2, v1));
  auto mat = v2.materialize();
  ASSERT_EQ(mat.size(), 2u);
  EXPECT_TRUE(mat[0].id == a.id);
}

// Figure 9: p1 runs op1 then op1'; p2 runs op2; p3 runs op3.  Views:
//   view  = {(p1,op1)}                              for op1
//   view' = {(p1,op1),(p1,op1'),(p2,op2)}           for op1'
//   view''= all four                                for op3
// op2 has NO record (pending in the verifier's τ).  X must place inv(op2) at
// the level of view' and leave it pending.
TEST(XOfLambda, Figure9Example) {
  test::OpFactory f;
  ChainBuilder cb(3);
  OpDesc op1 = f.op(0, Method::kRead, kNoArg);
  OpDesc op1p = f.op(0, Method::kRead, kNoArg);
  OpDesc op2 = f.op(1, Method::kRead, kNoArg);
  OpDesc op3 = f.op(2, Method::kRead, kNoArg);

  cb.announce(op1);
  View view = cb.snap();  // {op1}
  cb.announce(op1p);
  cb.announce(op2);
  View viewp = cb.snap();  // {op1, op1', op2}
  cb.announce(op3);
  View viewpp = cb.snap();  // all four

  std::vector<LambdaRecord> records{
      {op1, /*y=*/100, view},
      {op1p, /*y=*/101, viewp},
      {op3, /*y=*/103, viewpp},
  };
  EXPECT_EQ(validate_views(records), std::nullopt);

  History x = x_of_lambda(records);
  ASSERT_TRUE(well_formed(x));
  // Level 1: inv(op1), res(op1); level 2: inv(op1'), inv(op2), res(op1');
  // level 3: inv(op3), res(op3).  op2 stays pending.
  History expected{
      Event::inv(op1),  Event::res(op1, 100),  Event::inv(op1p),
      Event::inv(op2),  Event::res(op1p, 101), Event::inv(op3),
      Event::res(op3, 103),
  };
  ASSERT_EQ(x.size(), expected.size());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_TRUE(x[i] == expected[i]) << i << ": " << to_string(x[i]);
  }
  // ≺ structure: op1 precedes op1', op2, op3; op1' precedes op3 only.
  HistoryIndex idx(x);
  EXPECT_TRUE(idx.precedes(op1.id, op1p.id));
  EXPECT_TRUE(idx.precedes(op1.id, op2.id));
  EXPECT_TRUE(idx.precedes(op1.id, op3.id));
  EXPECT_TRUE(idx.precedes(op1p.id, op3.id));
  EXPECT_FALSE(idx.precedes(op1p.id, op2.id));
  EXPECT_FALSE(idx.precedes(op2.id, op3.id));  // op2 pending: never precedes
}

TEST(ValidateViews, DetectsSelfInclusionViolation) {
  test::OpFactory f;
  ChainBuilder cb(2);
  OpDesc a = f.op(0, Method::kRead);
  View empty = cb.snap();  // taken before announcing a
  cb.announce(a);
  std::vector<LambdaRecord> records{{a, 1, empty}};
  auto violation = validate_views(records);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("self-inclusion"), std::string::npos);
}

TEST(ValidateViews, DetectsIncomparableViews) {
  test::OpFactory f;
  // Two independent chain universes produce incomparable views.
  ChainBuilder cb1(2), cb2(2);
  OpDesc a = f.op(0, Method::kRead);
  OpDesc b = f.op(1, Method::kRead);
  cb1.announce(a);
  cb2.announce(b);
  std::vector<LambdaRecord> records{{a, 1, cb1.snap()}, {b, 2, cb2.snap()}};
  auto violation = validate_views(records);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("comparability"), std::string::npos);
}

TEST(ValidateViews, DetectsProcessSequentialityViolation) {
  test::OpFactory f;
  ChainBuilder cb(1);
  OpDesc a = f.op(0, Method::kRead);
  OpDesc b = f.op(0, Method::kRead);
  cb.announce(a);
  cb.announce(b);
  View both = cb.snap();
  // Both ops of p0 claim to see each other — impossible for a sequential
  // process.
  std::vector<LambdaRecord> records{{a, 1, both}, {b, 2, both}};
  auto violation = validate_views(records);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("sequentiality"), std::string::npos);
}

// The incremental builder must agree with the batch construction for every
// insertion order of the records, including late middle-level arrivals.
TEST(XBuilder, AgreesWithBatchUnderPermutations) {
  test::OpFactory f;
  ChainBuilder cb(3);
  std::vector<LambdaRecord> records;
  std::vector<OpDesc> ops;
  for (int round = 0; round < 3; ++round) {
    for (ProcId p = 0; p < 3; ++p) {
      OpDesc op = f.op(p, Method::kInc);
      cb.announce(op);
      records.push_back({op, 100 + round * 3 + p, cb.snap()});
    }
  }
  History batch = x_of_lambda(records);

  // Try several permutations (seeded shuffles).
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    std::vector<size_t> order(records.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    Rng rng(seed);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    XBuilder builder;
    for (size_t i : order) builder.add(&records[i]);
    History inc = builder.flatten();
    ASSERT_EQ(inc.size(), batch.size()) << "seed " << seed;
    for (size_t i = 0; i < inc.size(); ++i) {
      EXPECT_TRUE(inc[i] == batch[i]) << "seed " << seed << " pos " << i;
    }
  }
}

TEST(XBuilder, ReportsLowestChangedLevel) {
  test::OpFactory f;
  ChainBuilder cb(2);
  OpDesc a = f.op(0, Method::kInc);
  cb.announce(a);
  LambdaRecord ra{a, 1, cb.snap()};
  OpDesc b = f.op(1, Method::kInc);
  cb.announce(b);
  LambdaRecord rb{b, 2, cb.snap()};
  OpDesc c = f.op(0, Method::kInc);
  cb.announce(c);
  LambdaRecord rc{c, 3, cb.snap()};

  XBuilder builder;
  EXPECT_EQ(builder.add(&ra), 0u);  // first level
  EXPECT_EQ(builder.add(&rc), 1u);  // appended after
  // rb arrives late, landing between the two existing levels.
  EXPECT_EQ(builder.add(&rb), 1u);
  ASSERT_EQ(builder.levels().size(), 3u);
  EXPECT_EQ(builder.levels()[0].key, 1u);
  EXPECT_EQ(builder.levels()[1].key, 2u);
  EXPECT_EQ(builder.levels()[2].key, 3u);
  // The late level claimed inv(b); the last level kept only inv(c).
  ASSERT_EQ(builder.levels()[1].invs.size(), 1u);
  EXPECT_TRUE(builder.levels()[1].invs[0].id == b.id);
  ASSERT_EQ(builder.levels()[2].invs.size(), 1u);
  EXPECT_TRUE(builder.levels()[2].invs[0].id == c.id);
}

// MonitorCore merges a check's fresh records in view-size order rather than
// producer by producer; the levels must depend only on the set of records.
// A 16-slot run with up to three ops open gives late records that land in
// the middle of the levels, as in enforcement.
TEST(XBuilder, LevelsIndependentOfMergeOrder) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    test::SteppedQueueRun run = test::stepped_queue_run(16, 400, 3, seed);
    const std::vector<LambdaRecord>& recs = run.records;
    std::vector<size_t> publish(recs.size());
    for (size_t i = 0; i < publish.size(); ++i) publish[i] = i;
    std::vector<size_t> per_producer = publish;
    std::stable_sort(per_producer.begin(), per_producer.end(),
                     [&](size_t a, size_t b) {
                       return recs[a].op.id.pid < recs[b].op.id.pid;
                     });
    std::vector<size_t> by_size = publish;
    std::stable_sort(by_size.begin(), by_size.end(), [&](size_t a, size_t b) {
      return recs[a].view.size() < recs[b].view.size();
    });
    std::vector<std::vector<size_t>> orders{per_producer, by_size};
    for (uint64_t s = 1; s <= 3; ++s) {
      std::vector<size_t> order = publish;
      Rng rng(seed * 100 + s);
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.below(i)]);
      }
      orders.push_back(order);
    }

    XBuilder ref;
    size_t mid_inserts = 0;
    for (size_t i : publish) {
      const size_t before = ref.levels().size();
      if (ref.add(&recs[i]) + 1 < before) ++mid_inserts;
    }
    ASSERT_GT(mid_inserts, 0u) << "seed " << seed << ": no late records";
    const History flat = ref.flatten();
    ASSERT_TRUE(flat == x_of_lambda(recs)) << "seed " << seed;
    for (size_t o = 0; o < orders.size(); ++o) {
      XBuilder b;
      for (size_t i : orders[o]) b.add(&recs[i]);
      ASSERT_EQ(b.levels().size(), ref.levels().size())
          << "seed " << seed << " order " << o;
      for (size_t l = 0; l < ref.levels().size(); ++l) {
        const Level& want = ref.levels()[l];
        const Level& got = b.levels()[l];
        ASSERT_EQ(got.key, want.key) << "seed " << seed << " order " << o;
        ASSERT_TRUE(got.invs == want.invs)
            << "seed " << seed << " order " << o << " level " << l;
        ASSERT_TRUE(got.ress == want.ress)
            << "seed " << seed << " order " << o << " level " << l;
      }
      ASSERT_TRUE(b.flatten() == flat) << "seed " << seed << " order " << o;
    }
  }
}

// Builders share sealed levels: a builder that takes another's sealed chain
// and then adds late records copies the levels it changes, so the sealed
// chain keeps its content, and both builders flatten to the X(λ) of their
// own records.  Unsealed levels are rewritten in place: sealing again and
// adding more leaves the first chain untouched too.
TEST(XBuilder, SealedLevelsAreCopiedNotRewritten) {
  test::SteppedQueueRun run = test::stepped_queue_run(16, 400, 3, 5);
  const std::vector<LambdaRecord>& recs = run.records;
  // Hold back every 7th record; the rest form the shared chain.
  std::vector<LambdaRecord> base;
  std::vector<const LambdaRecord*> late;
  XBuilder a;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (i % 7 == 3) {
      late.push_back(&recs[i]);
    } else {
      a.add(&recs[i]);
      base.push_back(recs[i]);
    }
  }
  a.seal();
  const History a_flat = a.flatten();
  ASSERT_TRUE(a_flat == x_of_lambda(base));
  XBuilder b;
  b.reset(a.top());
  size_t mid_inserts = 0;
  for (size_t k = 0; k < late.size(); ++k) {
    if (b.add(late[k]) + 1 < b.depth()) ++mid_inserts;
    if (k == late.size() / 2) b.seal();
  }
  EXPECT_GT(mid_inserts, 0u);
  EXPECT_TRUE(b.flatten() == x_of_lambda(recs));
  EXPECT_TRUE(a.flatten() == a_flat);
  EXPECT_EQ(a.depth(), LevelIndex(a.top()).size());
}

TEST(LeveledChecker, AllStridesAgreeWithFromScratchUnderPermutations) {
  // Random record batches inserted in shuffled order: every checkpoint
  // stride must produce the same verdict sequence as an offline re-check.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    test::OpFactory f;
    ChainBuilder cb(2);
    std::vector<LambdaRecord> records;
    Rng vals(seed);
    auto spec_state = make_queue_spec()->initial();
    for (int i = 0; i < 24; ++i) {
      ProcId p = static_cast<ProcId>(i % 2);
      auto [m, arg] = random_op(ObjectKind::kQueue, vals);
      OpDesc op = f.op(p, m, arg);
      cb.announce(op);
      records.push_back({op, spec_state->step(m, arg), cb.snap()});
    }
    // Publish order: a random merge of the two per-process streams.  Real
    // chains deliver a process's records oldest-first (Figure 10 publishes
    // the cumulative set after every op), so at most one record per process
    // is ever missing from a τ (Lemma 8.1); arbitrary shuffles would build
    // sketches no execution produces.
    std::vector<std::vector<size_t>> streams(2);
    for (size_t i = 0; i < records.size(); ++i) {
      streams[records[i].op.id.pid].push_back(i);
    }
    std::vector<size_t> order;
    Rng shuffle(seed * 17);
    size_t cursor[2] = {0, 0};
    while (order.size() < records.size()) {
      size_t p = shuffle.below(2);
      if (cursor[p] == streams[p].size()) p = 1 - p;
      order.push_back(streams[p][cursor[p]++]);
    }
    auto obj = make_linearizable_object(make_queue_spec());
    for (size_t stride : {size_t{1}, size_t{3}, size_t{16}, size_t{100}}) {
      XBuilder builder;
      LeveledChecker checker(*obj, stride);
      for (size_t i : order) {
        size_t lvl = builder.add(&records[i]);
        bool inc = checker.resync(builder, lvl);
        bool offline = obj->contains(builder.flatten());
        ASSERT_EQ(inc, offline)
            << "seed " << seed << " stride " << stride;
      }
    }
  }
}

// settle(b) releases only checkpoints no rollback can restore once no
// record with a view below b is still to come.  Two checkers over one
// builder, fed a 16-slot run whose records are held back by 1–40 records
// (each process's in order, so they land in the middle of the levels):
// one settles after every resync on the smallest view among the records
// not yet added, the exact bound a standalone caller knows.  Both report
// the same verdict, levels, rollbacks and replayed levels after every add,
// and the settling one holds a few checkpoints where the other holds one
// per stride of the history.
TEST(LeveledChecker, SettleNeverChangesAReplay) {
  constexpr size_t kProcs = 16;
  constexpr size_t kCheckpoints = 4;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (bool corrupt : {false, true}) {
      test::SteppedQueueRun run = test::stepped_queue_run(kProcs, 800, 2, seed);
      std::vector<LambdaRecord>& recs = run.records;
      if (corrupt) {
        for (size_t i = recs.size() / 2; i < recs.size(); ++i) {
          if (recs[i].op.method == Method::kDequeue) {
            recs[i].y = -1;
            break;
          }
        }
      }
      Rng rng(seed + 100);
      std::vector<std::pair<size_t, size_t>> timed;  // (add time, record)
      std::vector<size_t> last(kProcs, 0);
      for (size_t i = 0; i < recs.size(); ++i) {
        size_t t = i;
        if (rng.chance(1, 16)) t += 1 + rng.below(40);
        const ProcId p = recs[i].op.id.pid;
        t = std::max(t, last[p]);
        last[p] = t;
        timed.push_back({t, i});
      }
      std::sort(timed.begin(), timed.end());
      // bound[i]: the smallest view among the records added after the i-th.
      std::vector<uint64_t> bound(timed.size() + 1, UINT64_MAX);
      for (size_t i = timed.size(); i-- > 0;) {
        bound[i] = std::min(bound[i + 1], recs[timed[i].second].view.size());
      }

      auto obj = make_linearizable_object(make_queue_spec());
      XBuilder builder;
      LeveledChecker kept(*obj);
      LeveledChecker settled(*obj);
      size_t most = 0;
      for (size_t i = 0; i < timed.size(); ++i) {
        const size_t dirty = builder.add(&recs[timed[i].second]);
        const bool ok = kept.resync(builder, dirty);
        ASSERT_EQ(settled.resync(builder, dirty), ok)
            << "seed " << seed << " add " << i;
        settled.settle(bound[i + 1]);
        ASSERT_EQ(settled.levels_fed(), kept.levels_fed());
        ASSERT_EQ(settled.rollbacks(), kept.rollbacks());
        ASSERT_EQ(settled.replayed_levels(), kept.replayed_levels())
            << "seed " << seed << " add " << i;
        most = std::max(most, settled.checkpoint_count());
      }
      EXPECT_EQ(kept.ok(), !corrupt) << "seed " << seed;
      EXPECT_GT(kept.rollbacks(), 0u) << "seed " << seed;
      EXPECT_LE(most, kCheckpoints) << "seed " << seed;
      EXPECT_GT(kept.checkpoint_count(), 4 * kCheckpoints) << "seed " << seed;
    }
  }
}

// Two checkers that each merge the same straggler by a miss build copies of
// the levels above it, so a checker's settled checkpoint need not lie on a
// chain it adopts later.  adopt() keeps the lowest checkpoint when the
// adopted chain holds the same levels, and a later miss above it replays
// from there, within a stride, not from level 0.
TEST(LeveledChecker, AdoptKeepsTheSettledCheckpointOnACopy) {
  constexpr size_t kStride = LeveledChecker::kDefaultStride;
  // Process 0 completes 100 increments; process 1 runs one before the 90th,
  // and its record comes last.
  test::OpFactory f;
  ChainBuilder cb(2);
  auto state = make_counter_spec()->initial();
  std::vector<LambdaRecord> prompt;
  LambdaRecord late;
  for (int i = 0; i < 100; ++i) {
    if (i == 90) {
      OpDesc op = f.op(1, Method::kInc);
      cb.announce(op);
      late = {op, state->step(Method::kInc, kNoArg), cb.snap()};
    }
    OpDesc op = f.op(0, Method::kInc);
    cb.announce(op);
    prompt.push_back({op, state->step(Method::kInc, kNoArg), cb.snap()});
  }
  auto obj = make_linearizable_object(make_counter_spec());
  // The checker feeds its own levels and settles below level 85: only the
  // checkpoints at 80 and 96 stay.
  XBuilder own;
  LeveledChecker checker(*obj);
  for (const LambdaRecord& r : prompt) {
    ASSERT_TRUE(checker.resync(own, own.add(&r)));
  }
  checker.settle(own.levels()[85].key);
  ASSERT_EQ(checker.checkpoint_count(), 2u);
  // Another checker fed a copy of the same levels, in nodes of its own.
  XBuilder copy;
  LeveledChecker other(*obj);
  for (const LambdaRecord& r : prompt) {
    ASSERT_TRUE(other.resync(copy, copy.add(&r)));
  }
  copy.seal();
  own.reset(copy.top());
  // The checkpoint at 80 stays; the one at 96 goes, and the adoption, more
  // than a stride above 80, takes one at 100.
  checker.adopt(other.monitor(), copy.top());
  EXPECT_EQ(checker.checkpoint_count(), 2u);
  // The straggler lands at level 90 of the adopted chain.
  const size_t dirty = own.add(&late);
  ASSERT_EQ(dirty, 90u);
  const uint64_t replayed = checker.replayed_levels();
  ASSERT_TRUE(checker.resync(own, dirty));
  EXPECT_EQ(checker.rollbacks(), 1u);
  EXPECT_LT((checker.replayed_levels() - replayed) - (100 - dirty), kStride);
  EXPECT_TRUE(obj->contains(own.flatten()));
}

TEST(LeveledChecker, IncrementalMatchesFromScratch) {
  // Queue records: enqueue then dequeue of the same value, valid history.
  test::OpFactory f;
  ChainBuilder cb(2);
  OpDesc e = f.op(0, Method::kEnqueue, 7);
  cb.announce(e);
  LambdaRecord re{e, kTrue, cb.snap()};
  OpDesc d = f.op(1, Method::kDequeue);
  cb.announce(d);
  LambdaRecord rd{d, 7, cb.snap()};

  auto obj = make_linearizable_object(make_queue_spec());
  XBuilder builder;
  LeveledChecker checker(*obj);
  EXPECT_TRUE(checker.resync(builder, builder.add(&re)));
  EXPECT_TRUE(checker.resync(builder, builder.add(&rd)));
  EXPECT_TRUE(obj->contains(builder.flatten()));

  // A second dequeue of the same value breaks it; incremental and batch
  // verdicts must agree.
  OpDesc d2 = f.op(1, Method::kDequeue);
  cb.announce(d2);
  LambdaRecord rd2{d2, 7, cb.snap()};
  EXPECT_FALSE(checker.resync(builder, builder.add(&rd2)));
  EXPECT_FALSE(obj->contains(builder.flatten()));
}

}  // namespace
}  // namespace selin
