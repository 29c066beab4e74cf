// Unit tests for every sequential specification (Definition 4.1) and the
// sequential-history validator.
#include <gtest/gtest.h>

#include <deque>
#include <string>

#include "selin/util/hash.hpp"
#include "test_util.hpp"

namespace selin {
namespace {

TEST(QueueSpec, Fifo) {
  auto s = make_queue_spec()->initial();
  EXPECT_EQ(s->step(Method::kEnqueue, 1), kTrue);
  EXPECT_EQ(s->step(Method::kEnqueue, 2), kTrue);
  EXPECT_EQ(s->step(Method::kDequeue, kNoArg), 1);
  EXPECT_EQ(s->step(Method::kDequeue, kNoArg), 2);
  EXPECT_EQ(s->step(Method::kDequeue, kNoArg), kEmpty);
}

TEST(QueueSpec, CloneIsIndependent) {
  auto s = make_queue_spec()->initial();
  s->step(Method::kEnqueue, 1);
  auto c = s->clone();
  EXPECT_EQ(c->step(Method::kDequeue, kNoArg), 1);
  EXPECT_NE(s->encode(), c->encode());  // clone drained, original not
  EXPECT_EQ(s->step(Method::kDequeue, kNoArg), 1);  // original unaffected
  EXPECT_EQ(s->encode(), c->encode());  // both empty now
}

TEST(QueueSpec, EncodeDistinguishesOrder) {
  auto a = make_queue_spec()->initial();
  auto b = make_queue_spec()->initial();
  a->step(Method::kEnqueue, 1);
  a->step(Method::kEnqueue, 2);
  b->step(Method::kEnqueue, 2);
  b->step(Method::kEnqueue, 1);
  EXPECT_NE(a->encode(), b->encode());
}

// The queue state is a flat vector with a head index whose dequeued prefix
// is dropped as it goes; a std::deque of the live items is the reference.
// encode() and fingerprint() must be those of the live items alone, so no
// frontier or dedup decision changes with the representation.
std::string deque_encode(const std::deque<Value>& q) {
  std::string s = "Q";
  for (Value v : q) s += ":" + std::to_string(v);
  return s;
}

uint64_t deque_fingerprint(const std::deque<Value>& q) {
  fph::Hasher h('Q');
  for (Value v : q) h.i64(v);
  return h.done();
}

/// One enqueue (with probability num/den) or dequeue on both `s` and the
/// reference; returns false if their responses differ.
bool step_both(SeqState& s, std::deque<Value>& model, Rng& rng, uint64_t num,
               uint64_t den) {
  if (rng.chance(num, den)) {
    const Value v = rng.range(1, 1000);
    model.push_back(v);
    return s.step(Method::kEnqueue, v) == kTrue;
  }
  Value want = kEmpty;
  if (!model.empty()) {
    want = model.front();
    model.pop_front();
  }
  return s.step(Method::kDequeue, kNoArg) == want;
}

void expect_state(const SeqState& s, const std::deque<Value>& model) {
  EXPECT_EQ(s.encode(), deque_encode(model));
  EXPECT_EQ(s.fingerprint(), deque_fingerprint(model));
}

TEST(QueueSpec, FlatStateMatchesDequeModel) {
  auto spec = make_queue_spec();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    auto s = spec->initial();
    std::deque<Value> model;
    // Phases of 200 steps alternately grow and drain the queue, so it both
    // runs empty and holds long runs with a large dequeued prefix.
    for (int i = 0; i < 2000; ++i) {
      const bool grow = (i / 200) % 2 == 0;
      ASSERT_TRUE(step_both(*s, model, rng, grow ? 3 : 1, 4))
          << "seed " << seed << " step " << i;
      ASSERT_EQ(s->encode(), deque_encode(model))
          << "seed " << seed << " step " << i;
      ASSERT_EQ(s->fingerprint(), deque_fingerprint(model))
          << "seed " << seed << " step " << i;
    }
  }
}

TEST(QueueSpec, CopiesMatchSourceAndDivergeWhenStepped) {
  auto spec = make_queue_spec();
  Rng rng(7);
  auto s = spec->initial();
  std::deque<Value> model;
  // The assign_from target is reused across copies and starts non-empty,
  // as a recycled state from the checkers' pool does.
  auto pooled = spec->initial();
  pooled->step(Method::kEnqueue, 99);
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(step_both(*s, model, rng, (i / 100) % 2 == 0 ? 3 : 1, 4));
    if (i % 10 != 0) continue;
    auto cloned = s->clone();
    ASSERT_TRUE(pooled->assign_from(*s));
    for (const SeqState* copy : {cloned.get(), pooled.get()}) {
      EXPECT_EQ(copy->encode(), s->encode()) << "step " << i;
      EXPECT_EQ(copy->fingerprint(), s->fingerprint()) << "step " << i;
    }
    // Step the copies apart: each follows its own reference, and the
    // source is untouched.
    std::deque<Value> cloned_model = model, pooled_model = model;
    Rng fork(100 + static_cast<uint64_t>(i));
    for (int k = 0; k < 5; ++k) {
      ASSERT_TRUE(step_both(*cloned, cloned_model, fork, 1, 4));
      ASSERT_TRUE(step_both(*pooled, pooled_model, fork, 3, 4));
    }
    expect_state(*cloned, cloned_model);
    expect_state(*pooled, pooled_model);
    expect_state(*s, model);
  }
  auto stack = make_stack_spec()->initial();
  EXPECT_FALSE(pooled->assign_from(*stack));
}

// 100,000 operations on a queue that never holds more than eight items and,
// after the first few, never runs empty: only the drop of the dequeued
// prefix at half the vector keeps the state short.
TEST(QueueSpec, LongRunWithShortLiveQueue) {
  auto s = make_queue_spec()->initial();
  std::deque<Value> model;
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) {
    // Enqueue below four items, dequeue at eight, a coin flip between.
    const uint64_t num = model.size() < 4 ? 2 : (model.size() < 8 ? 1 : 0);
    ASSERT_TRUE(step_both(*s, model, rng, num, 2)) << "step " << i;
    if (i % 997 == 0) {
      ASSERT_EQ(s->encode(), deque_encode(model)) << "step " << i;
      ASSERT_EQ(s->fingerprint(), deque_fingerprint(model)) << "step " << i;
    }
  }
  expect_state(*s, model);
  expect_state(*s->clone(), model);
}

TEST(StackSpec, Lifo) {
  auto s = make_stack_spec()->initial();
  EXPECT_EQ(s->step(Method::kPush, 1), kTrue);
  EXPECT_EQ(s->step(Method::kPush, 2), kTrue);
  EXPECT_EQ(s->step(Method::kPop, kNoArg), 2);
  EXPECT_EQ(s->step(Method::kPop, kNoArg), 1);
  EXPECT_EQ(s->step(Method::kPop, kNoArg), kEmpty);
}

TEST(SetSpec, InsertRemoveContains) {
  auto s = make_set_spec()->initial();
  EXPECT_EQ(s->step(Method::kContains, 5), kFalse);
  EXPECT_EQ(s->step(Method::kInsert, 5), kTrue);
  EXPECT_EQ(s->step(Method::kInsert, 5), kFalse);  // already present
  EXPECT_EQ(s->step(Method::kContains, 5), kTrue);
  EXPECT_EQ(s->step(Method::kRemove, 5), kTrue);
  EXPECT_EQ(s->step(Method::kRemove, 5), kFalse);
  EXPECT_EQ(s->step(Method::kContains, 5), kFalse);
}

TEST(PqueueSpec, ExtractsMinWithDuplicates) {
  auto s = make_pqueue_spec()->initial();
  s->step(Method::kPqInsert, 5);
  s->step(Method::kPqInsert, 3);
  s->step(Method::kPqInsert, 5);
  EXPECT_EQ(s->step(Method::kPqExtractMin, kNoArg), 3);
  EXPECT_EQ(s->step(Method::kPqExtractMin, kNoArg), 5);
  EXPECT_EQ(s->step(Method::kPqExtractMin, kNoArg), 5);
  EXPECT_EQ(s->step(Method::kPqExtractMin, kNoArg), kEmpty);
}

TEST(CounterSpec, IncReturnsNewValue) {
  auto s = make_counter_spec()->initial();
  EXPECT_EQ(s->step(Method::kCounterRead, kNoArg), 0);
  EXPECT_EQ(s->step(Method::kInc, kNoArg), 1);
  EXPECT_EQ(s->step(Method::kInc, kNoArg), 2);
  EXPECT_EQ(s->step(Method::kCounterRead, kNoArg), 2);
}

TEST(RegisterSpec, ReadsLastWrite) {
  auto s = make_register_spec(42)->initial();
  EXPECT_EQ(s->step(Method::kRead, kNoArg), 42);
  EXPECT_EQ(s->step(Method::kWrite, 7), kOk);
  EXPECT_EQ(s->step(Method::kRead, kNoArg), 7);
}

TEST(ConsensusSpec, FirstDecideWins) {
  auto s = make_consensus_spec()->initial();
  EXPECT_EQ(s->step(Method::kDecide, 9), 9);
  EXPECT_EQ(s->step(Method::kDecide, 4), 9);  // decision already fixed
  EXPECT_EQ(s->step(Method::kDecide, 9), 9);
}

TEST(Specs, ForeignMethodNeverMatches) {
  // Feeding a queue method to a stack state yields kError, which no observed
  // response equals — the checker then rejects mixed-object histories.
  auto s = make_stack_spec()->initial();
  EXPECT_EQ(s->step(Method::kEnqueue, 1), kError);
}

TEST(SeqHistoryValid, AcceptsAndRejects) {
  test::OpFactory f;
  auto spec = make_queue_spec();
  History good;
  test::seq_op(good, f, 0, Method::kEnqueue, 1, kTrue);
  test::seq_op(good, f, 1, Method::kDequeue, kNoArg, 1);
  EXPECT_TRUE(seq_history_valid(*spec, good));

  test::OpFactory f2;
  History bad;
  test::seq_op(bad, f2, 0, Method::kDequeue, kNoArg, 1);  // nothing enqueued
  EXPECT_FALSE(seq_history_valid(*spec, bad));

  // Non-sequential histories are rejected outright.
  OpDesc a = f2.op(0, Method::kEnqueue, 1);
  OpDesc b = f2.op(1, Method::kEnqueue, 2);
  History concurrent{Event::inv(a), Event::inv(b), Event::res(a, kTrue),
                     Event::res(b, kTrue)};
  EXPECT_FALSE(seq_history_valid(*spec, concurrent));
}

TEST(GenLinObject, ContainsMatchesMonitor) {
  auto obj = make_linearizable_object(make_queue_spec());
  EXPECT_STREQ(obj->name(), "queue");
  test::OpFactory f;
  History h;
  test::seq_op(h, f, 0, Method::kEnqueue, 3, kTrue);
  test::seq_op(h, f, 1, Method::kDequeue, kNoArg, 3);
  EXPECT_TRUE(obj->contains(h));
  test::seq_op(h, f, 1, Method::kDequeue, kNoArg, 3);  // dequeue twice
  EXPECT_FALSE(obj->contains(h));
}

}  // namespace
}  // namespace selin
