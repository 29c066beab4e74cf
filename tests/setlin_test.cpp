// Set-linearizability (Section 7.1 generalization): the exchanger object and
// the SetLinMonitor.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace selin {
namespace {

using test::OpFactory;

History paired_exchange(OpFactory& f, Value va, Value vb) {
  OpDesc a = f.op(0, Method::kExchange, va);
  OpDesc b = f.op(1, Method::kExchange, vb);
  return History{Event::inv(a), Event::inv(b), Event::res(a, vb),
                 Event::res(b, va)};
}

TEST(Exchanger, PairedExchangeIsSetLinearizable) {
  auto spec = make_exchanger_spec();
  OpFactory f;
  History h = paired_exchange(f, 10, 20);
  EXPECT_TRUE(set_linearizable(*spec, h));
}

TEST(Exchanger, SoloExchangeReturnsEmpty) {
  auto spec = make_exchanger_spec();
  OpFactory f;
  OpDesc a = f.op(0, Method::kExchange, 10);
  History h{Event::inv(a), Event::res(a, kEmpty)};
  EXPECT_TRUE(set_linearizable(*spec, h));
}

TEST(Exchanger, SoloExchangeCannotReceiveValue) {
  auto spec = make_exchanger_spec();
  OpFactory f;
  // Two exchanges that do NOT overlap: they cannot be set-linearized
  // together, so neither can return the other's value.
  OpDesc a = f.op(0, Method::kExchange, 10);
  OpDesc b = f.op(1, Method::kExchange, 20);
  History h{Event::inv(a), Event::res(a, 20), Event::inv(b),
            Event::res(b, 10)};
  EXPECT_FALSE(set_linearizable(*spec, h));
}

TEST(Exchanger, MismatchedPairRejected) {
  auto spec = make_exchanger_spec();
  OpFactory f;
  OpDesc a = f.op(0, Method::kExchange, 10);
  OpDesc b = f.op(1, Method::kExchange, 20);
  // a receives b's value but b claims empty: inconsistent.
  History h{Event::inv(a), Event::inv(b), Event::res(a, 20),
            Event::res(b, kEmpty)};
  EXPECT_FALSE(set_linearizable(*spec, h));
}

TEST(Exchanger, SequentialPairsThenSolo) {
  auto spec = make_exchanger_spec();
  OpFactory f;
  History h = paired_exchange(f, 1, 2);
  History h2 = paired_exchange(f, 3, 4);
  h.insert(h.end(), h2.begin(), h2.end());
  OpDesc solo = f.op(2, Method::kExchange, 5);
  h.push_back(Event::inv(solo));
  h.push_back(Event::res(solo, kEmpty));
  EXPECT_TRUE(set_linearizable(*spec, h));
}

TEST(Exchanger, ThreeWayOverlapPairsTwo) {
  auto spec = make_exchanger_spec();
  OpFactory f;
  OpDesc a = f.op(0, Method::kExchange, 1);
  OpDesc b = f.op(1, Method::kExchange, 2);
  OpDesc c = f.op(2, Method::kExchange, 3);
  // All three overlap; a and c pair, b misses out.
  History h{Event::inv(a),      Event::inv(b),      Event::inv(c),
            Event::res(a, 3),   Event::res(b, kEmpty), Event::res(c, 1)};
  EXPECT_TRUE(set_linearizable(*spec, h));
  // ...but all three pairing mutually is impossible.
  History bad{Event::inv(a),    Event::inv(b),    Event::inv(c),
              Event::res(a, 2), Event::res(b, 3), Event::res(c, 1)};
  EXPECT_FALSE(set_linearizable(*spec, bad));
}

// random_exchanger_history pairs exchanges only mutually, so each clean
// history is set-linearizable; every 4th seed carries one corrupted
// response, which must be rejected.
TEST(Exchanger, RandomHistoriesAcceptCleanRejectCorrupted) {
  auto spec = make_exchanger_spec();
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    History h = test::random_exchanger_history(5, 40, seed);
    SetLinMonitor m(*spec);
    for (const Event& e : h) m.feed(e);
    EXPECT_FALSE(m.overflowed()) << "seed " << seed;
    EXPECT_EQ(m.ok(), seed % 4 != 0) << "seed " << seed;
  }
}

TEST(Exchanger, MonitorCloneForks) {
  auto spec = make_exchanger_spec();
  SetLinMonitor m(*spec);
  OpFactory f;
  OpDesc a = f.op(0, Method::kExchange, 1);
  m.feed(Event::inv(a));
  auto fork = m.clone();
  fork->feed(Event::res(a, 99));  // impossible value
  EXPECT_FALSE(fork->ok());
  m.feed(Event::res(a, kEmpty));
  EXPECT_TRUE(m.ok());
}

TEST(Exchanger, AsGenLinObject) {
  auto obj = make_set_linearizable_object(make_exchanger_spec());
  OpFactory f;
  History h = paired_exchange(f, 10, 20);
  EXPECT_TRUE(obj->contains(h));
  OpDesc solo = f.op(2, Method::kExchange, 5);
  h.push_back(Event::inv(solo));
  h.push_back(Event::res(solo, 10));  // stale partner value
  EXPECT_FALSE(obj->contains(h));
}

}  // namespace
}  // namespace selin
