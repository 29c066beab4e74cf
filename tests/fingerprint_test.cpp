// Differential validation of the fingerprinted configuration engine: the
// fingerprint-dedup checkers must agree verdict-for-verdict with (a) a
// reference reimplementation of the old string-keyed frontier and (b) the
// brute-force oracle, on randomized histories across object families.  Plus
// unit coverage for the debug collision guard, FpSet and SmallVec.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "selin/lincheck/config.hpp"
#include "selin/obs/export.hpp"
#include "selin/util/fp_set.hpp"
#include "selin/util/hash.hpp"
#include "selin/util/rng.hpp"
#include "selin/util/small_vec.hpp"
#include "test_util.hpp"

namespace selin {
namespace {

using test::OpFactory;

// ---------------------------------------------------------------------------
// Reference checker: the pre-fingerprint string-keyed frontier algorithm,
// kept verbatim as the differential baseline.
// ---------------------------------------------------------------------------

struct RefOp {
  OpId id;
  Value assigned;
};

struct RefConfig {
  std::unique_ptr<SeqState> state;
  std::vector<RefOp> lin;  // sorted by OpId

  RefConfig clone() const {
    RefConfig c;
    c.state = state->clone();
    c.lin = lin;
    return c;
  }

  std::string key() const {
    std::ostringstream os;
    os << state->encode() << "|";
    for (const RefOp& l : lin) {
      os << l.id.pid << "." << l.id.seq << "=" << l.assigned << ";";
    }
    return os.str();
  }

  const RefOp* find(OpId id) const {
    for (const RefOp& l : lin) {
      if (l.id == id) return &l;
    }
    return nullptr;
  }

  void add(OpId id, Value assigned) {
    auto it = std::lower_bound(
        lin.begin(), lin.end(), id,
        [](const RefOp& a, OpId b) { return a.id < b; });
    lin.insert(it, RefOp{id, assigned});
  }

  void remove(OpId id) {
    for (size_t i = 0; i < lin.size(); ++i) {
      if (lin[i].id == id) {
        lin.erase(lin.begin() + static_cast<long>(i));
        return;
      }
    }
  }
};

bool ref_linearizable(const SeqSpec& spec, const History& h,
                      size_t max_configs = 1 << 18) {
  std::vector<RefConfig> frontier;
  std::vector<OpDesc> open;
  {
    RefConfig c;
    c.state = spec.initial();
    frontier.push_back(std::move(c));
  }
  for (const Event& e : h) {
    if (e.is_inv()) {
      open.push_back(e.op);
      continue;
    }
    // Closure under linearizing open ops.
    std::vector<RefConfig> result;
    std::unordered_set<std::string> seen;
    for (const RefConfig& c : frontier) {
      if (seen.insert(c.key()).second) result.push_back(c.clone());
    }
    for (size_t i = 0; i < result.size(); ++i) {
      for (const OpDesc& od : open) {
        if (result[i].find(od.id) != nullptr) continue;
        RefConfig next = result[i].clone();
        Value assigned = next.state->step(od.method, od.arg);
        next.add(od.id, assigned);
        if (seen.insert(next.key()).second) {
          if (result.size() >= max_configs) throw CheckerOverflow{};
          result.push_back(std::move(next));
        }
      }
    }
    // Filter by the observed response.
    std::vector<RefConfig> filtered;
    std::unordered_set<std::string> fseen;
    for (RefConfig& c : result) {
      const RefOp* l = c.find(e.op.id);
      if (l == nullptr || l->assigned != e.result) continue;
      c.remove(e.op.id);
      if (fseen.insert(c.key()).second) filtered.push_back(std::move(c));
    }
    for (size_t i = 0; i < open.size(); ++i) {
      if (open[i].id == e.op.id) {
        open.erase(open.begin() + static_cast<long>(i));
        break;
      }
    }
    frontier = std::move(filtered);
    if (frontier.empty()) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Differential sweeps
// ---------------------------------------------------------------------------

const ObjectKind kKinds[] = {ObjectKind::kQueue, ObjectKind::kStack,
                             ObjectKind::kSet, ObjectKind::kCounter};

TEST(FingerprintDifferential, CleanHistoriesMatchStringKeyPath) {
  for (ObjectKind kind : kKinds) {
    auto spec = make_spec(kind);
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      History h = test::random_linearizable_history(kind, 3, 40, seed * 7919);
      EXPECT_TRUE(linearizable(*spec, h))
          << object_kind_name(kind) << " seed=" << seed;
      EXPECT_TRUE(ref_linearizable(*spec, h))
          << object_kind_name(kind) << " seed=" << seed;
    }
  }
}

TEST(FingerprintDifferential, CorruptedHistoriesMatchStringKeyPath) {
  for (ObjectKind kind : kKinds) {
    auto spec = make_spec(kind);
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      History h = test::random_linearizable_history(kind, 3, 30, seed * 104729);
      if (!test::corrupt_response(h, seed)) continue;
      bool want = ref_linearizable(*spec, h);
      EXPECT_EQ(linearizable(*spec, h), want)
          << object_kind_name(kind) << " seed=" << seed;
      // find_linearization must agree with the frontier checkers, and any
      // witness it returns must replay through the spec.
      auto lin = find_linearization(*spec, h);
      EXPECT_EQ(lin.has_value(), want)
          << object_kind_name(kind) << " seed=" << seed;
      if (lin.has_value()) {
        EXPECT_TRUE(seq_history_valid(*spec, *lin));
      }
    }
  }
}

TEST(FingerprintDifferential, SmallHistoriesMatchBruteforce) {
  for (ObjectKind kind : kKinds) {
    auto spec = make_spec(kind);
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      History h = test::random_linearizable_history(kind, 2, 6, seed * 31337);
      if (seed % 2 == 0) test::corrupt_response(h, seed);
      bool brute = linearizable_bruteforce(*spec, h);
      EXPECT_EQ(linearizable(*spec, h), brute)
          << object_kind_name(kind) << " seed=" << seed;
      EXPECT_EQ(ref_linearizable(*spec, h), brute)
          << object_kind_name(kind) << " seed=" << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Fingerprint algebra
// ---------------------------------------------------------------------------

TEST(Fingerprint, EqualStatesEqualFingerprints) {
  // The same abstract state reached by different operation sequences must
  // encode — and therefore fingerprint — identically.
  auto spec = make_queue_spec();
  auto a = spec->initial();
  auto b = spec->initial();
  a->step(Method::kEnqueue, 1);
  a->step(Method::kEnqueue, 2);
  a->step(Method::kDequeue, kNoArg);
  b->step(Method::kEnqueue, 2);
  ASSERT_EQ(a->encode(), b->encode());
  EXPECT_EQ(a->fingerprint(), b->fingerprint());
  b->step(Method::kEnqueue, 3);
  EXPECT_NE(a->fingerprint(), b->fingerprint());

  // The stack hashes incrementally: a pop undoes its push's step.
  auto stack = make_stack_spec();
  auto s = stack->initial();
  auto t = stack->initial();
  s->step(Method::kPush, 1);
  s->step(Method::kPush, 2);
  s->step(Method::kPop, kNoArg);
  t->step(Method::kPush, 1);
  ASSERT_EQ(s->encode(), t->encode());
  EXPECT_EQ(s->fingerprint(), t->fingerprint());
  t->step(Method::kPush, 3);
  EXPECT_NE(s->fingerprint(), t->fingerprint());
}

TEST(Fingerprint, HasherUndoInvertsStep) {
  EXPECT_EQ(fph::kFnvPrime * fph::kFnvPrimeInv, 1u);
  Rng rng(0x1D0);
  for (int i = 0; i < 1000; ++i) {
    fph::Hasher h(rng.next());
    for (int k = 0; k < i % 4; ++k) h.u64(rng.next());
    const uint64_t before = h.done();
    const uint64_t v = rng.next();
    h.u64(v);
    ASSERT_NE(h.done(), before) << i;
    h.undo_u64(v);
    ASSERT_EQ(h.done(), before) << i;
  }
}

// The stack keeps its Hasher('S') fold current on push and pop.  Along a
// seeded random walk, pops of the empty stack included, its fingerprint
// must equal a fresh fold over a mirror of its contents after every step,
// and every way of copying a state must carry the fold along.
TEST(Fingerprint, StackHashMatchesFreshFold) {
  auto spec = make_stack_spec();
  auto s = spec->initial();
  std::vector<Value> mirror;
  lincheck::StatePool pool;
  Rng rng(0x57AC);
  size_t empty_pops = 0;
  uint64_t recycled = 0;
  for (int step = 1; step <= 10000; ++step) {
    if (rng.chance(1, 2)) {
      const Value v = rng.range(0, 999);
      mirror.push_back(v);
      ASSERT_EQ(s->step(Method::kPush, v), kTrue) << "step " << step;
    } else if (mirror.empty()) {
      ++empty_pops;
      ASSERT_EQ(s->step(Method::kPop, kNoArg), kEmpty) << "step " << step;
    } else {
      ASSERT_EQ(s->step(Method::kPop, kNoArg), mirror.back())
          << "step " << step;
      mirror.pop_back();
    }
    fph::Hasher fold('S');
    for (Value v : mirror) fold.i64(v);
    ASSERT_EQ(s->fingerprint(), fold.done()) << "step " << step;
    if (step % 100 != 0) continue;

    auto other = [&] {  // a stack holding other contents
      auto o = spec->initial();
      for (Value v : {Value{7}, Value{step}, Value{-step}}) {
        o->step(Method::kPush, v);
      }
      return o;
    };
    std::unique_ptr<SeqState> cloned = s->clone();
    std::unique_ptr<SeqState> assigned = other();
    ASSERT_TRUE(assigned->assign_from(*s));
    pool.release(other());
    std::unique_ptr<SeqState> acquired = pool.acquire(*s);
    ASSERT_EQ(pool.recycled(), ++recycled);
    for (const SeqState* copy : {cloned.get(), assigned.get(), acquired.get()}) {
      EXPECT_EQ(copy->fingerprint(), s->fingerprint()) << "step " << step;
      EXPECT_EQ(copy->encode(), s->encode()) << "step " << step;
    }
  }
  EXPECT_GT(empty_pops, 0u);
}

TEST(Fingerprint, ConfigAddRemoveRoundTrip) {
  lincheck::Config c;
  c.state = make_counter_spec()->initial();
  uint64_t fp0 = c.fingerprint();
  c.add(OpId{1, 4}, 77);
  c.add(OpId{0, 2}, 5);
  uint64_t fp2 = c.fingerprint();
  EXPECT_NE(fp0, fp2);
  c.remove(OpId{1, 4});
  c.remove(OpId{0, 2});
  EXPECT_EQ(c.fingerprint(), fp0);  // Zobrist XOR is exactly invertible
  // Insertion order must not matter (the set is canonical).
  c.add(OpId{0, 2}, 5);
  c.add(OpId{1, 4}, 77);
  EXPECT_EQ(c.fingerprint(), fp2);
}

TEST(Fingerprint, CloneAndPoolPreserveFingerprint) {
  lincheck::Config c;
  c.state = make_stack_spec()->initial();
  c.state->step(Method::kPush, 9);
  c.add(OpId{2, 0}, kTrue);
  lincheck::Config d = c.clone();
  EXPECT_EQ(c.fingerprint(), d.fingerprint());
  EXPECT_EQ(c.key(), d.key());
  lincheck::StatePool pool;
  pool.release(make_stack_spec()->initial());  // recycled into e.state
  lincheck::Config e = c.clone_with(pool);
  EXPECT_EQ(c.fingerprint(), e.fingerprint());
  EXPECT_EQ(c.key(), e.key());
}

TEST(Fingerprint, AssignFromReusesStateAcrossContents) {
  auto spec = make_set_spec();
  auto a = spec->initial();
  a->step(Method::kInsert, 3);
  a->step(Method::kInsert, 8);
  auto b = spec->initial();
  b->step(Method::kInsert, 99);
  ASSERT_TRUE(b->assign_from(*a));
  EXPECT_EQ(a->encode(), b->encode());
  EXPECT_EQ(a->fingerprint(), b->fingerprint());
  // Cross-spec assign must refuse.
  auto q = make_queue_spec()->initial();
  EXPECT_FALSE(q->assign_from(*a));
}

// ---------------------------------------------------------------------------
// Golden hash contract
// ---------------------------------------------------------------------------
//
// The frontier digest and engine counters of each monitor on fixed
// histories, recorded as constants.  Fingerprints are defined over op ids
// and values, not over how a configuration stores its op sets, so a storage
// change must leave every number here as it is: a moved digest means the
// Zobrist contract changed, moved counters mean the closure deduplicated,
// recycled or overflowed differently.

struct Golden {
  uint64_t digest;
  const char* stats;
};

/// `h` up to the first response past two thirds of it that leaves another
/// operation open: the final frontier then still holds linearized but
/// unresponded ops, so its digest covers the op-set hashes, not only the
/// states.
History golden_prefix(History h) {
  size_t open = 0;
  for (size_t i = 0; i < h.size(); ++i) {
    open = h[i].is_inv() ? open + 1 : open - 1;
    if (3 * i >= 2 * h.size() && h[i].is_res() && open > 0) {
      h.resize(i + 1);
      break;
    }
  }
  return h;
}

template <typename Monitor>
void expect_golden(Monitor& m, const History& h, const Golden& want,
                   const char* label, bool overflows = false) {
  bool overflowed = false;
  try {
    for (const Event& e : h) m.feed(e);
  } catch (const CheckerOverflow&) {
    overflowed = true;
  }
  ASSERT_EQ(overflowed, overflows) << label;
  if (!overflows) {
    ASSERT_TRUE(m.ok()) << label;
    EXPECT_GT(m.footprint().opset_elems, 0u) << label;
  }
  EXPECT_EQ(m.frontier_digest(), want.digest) << label;
  EXPECT_EQ(obs::engine_stats_json(m.stats()), want.stats) << label;
}

TEST(GoldenHash, LinMonitorPerObjectKind) {
  const struct {
    ObjectKind kind;
    Golden want;
  } cases[] = {
      {ObjectKind::kQueue,
       {14518258994293338721ull,
        "{\"events_fed\":123,\"rounds_sequential\":60,\"peak_frontier\":145,"
        "\"dedup_probes\":7839,\"dedup_hits\":2531,\"states_recycled\":4338,"
        "\"probe_batches\":3035,\"prefetch_batches\":1592,"
        "\"filter_in_place_rounds\":60}"}},
      {ObjectKind::kStack,
       {1515245884380039458ull,
        "{\"events_fed\":122,\"rounds_sequential\":60,\"peak_frontier\":834,"
        "\"dedup_probes\":9197,\"dedup_hits\":2213,\"states_recycled\":3538,"
        "\"probe_batches\":3383,\"prefetch_batches\":1417,"
        "\"filter_in_place_rounds\":60}"}},
      {ObjectKind::kSet,
       {17986027629537549604ull,
        "{\"events_fed\":123,\"rounds_sequential\":61,\"peak_frontier\":10,"
        "\"dedup_probes\":1062,\"dedup_hits\":421,\"states_recycled\":615,"
        "\"probe_batches\":487,\"prefetch_batches\":312,"
        "\"filter_in_place_rounds\":61}"}},
      {ObjectKind::kPqueue,
       {2379657357543263503ull,
        "{\"events_fed\":122,\"rounds_sequential\":60,\"peak_frontier\":22,"
        "\"dedup_probes\":1274,\"dedup_hits\":349,\"states_recycled\":665,"
        "\"probe_batches\":572,\"prefetch_batches\":294,"
        "\"filter_in_place_rounds\":60}"}},
      {ObjectKind::kCounter,
       {3298385422908134557ull,
        "{\"events_fed\":121,\"rounds_sequential\":60,\"peak_frontier\":21,"
        "\"dedup_probes\":1290,\"dedup_hits\":196,\"states_recycled\":672,"
        "\"probe_batches\":629,\"prefetch_batches\":280,"
        "\"filter_in_place_rounds\":60}"}},
      {ObjectKind::kRegister,
       {3640221742536344228ull,
        "{\"events_fed\":121,\"rounds_sequential\":60,\"peak_frontier\":80,"
        "\"dedup_probes\":2806,\"dedup_hits\":649,\"states_recycled\":1413,"
        "\"probe_batches\":1128,\"prefetch_batches\":525,"
        "\"filter_in_place_rounds\":60}"}},
      {ObjectKind::kConsensus,
       {1863093348738857662ull,
        "{\"events_fed\":123,\"rounds_sequential\":60,\"peak_frontier\":8,"
        "\"dedup_probes\":1118,\"dedup_hits\":460,\"states_recycled\":669,"
        "\"probe_batches\":498,\"prefetch_batches\":328,"
        "\"filter_in_place_rounds\":60}"}},
  };
  for (const auto& c : cases) {
    auto spec = make_spec(c.kind);
    History h = golden_prefix(test::random_linearizable_history(
        c.kind, 4, 90, 0x601D + static_cast<uint64_t>(c.kind)));
    LinMonitor m(*spec);
    expect_golden(m, h, c.want, object_kind_name(c.kind));
  }
}

TEST(GoldenHash, LinMonitorOverflowPoint) {
  auto spec = make_queue_spec();
  History h = test::random_linearizable_history(ObjectKind::kQueue, 6, 60, 7);
  LinMonitor m(*spec, 512);
  const Golden want = {
      0,
      "{\"events_fed\":46,\"rounds_sequential\":22,\"peak_frontier\":336,"
      "\"dedup_probes\":4984,\"dedup_hits\":1370,\"states_recycled\":2081,"
      "\"probe_batches\":1570,\"prefetch_batches\":775,"
      "\"filter_in_place_rounds\":21}"};
  expect_golden(m, h, want, "queue overflow", true);
  EXPECT_TRUE(m.overflowed());
}

TEST(GoldenHash, SetLinMonitorExchanger) {
  // Rounds of four overlapping exchanges on processes 0-3: two pairs swap,
  // then a three-way overlap pairs two and leaves one empty-handed, then a
  // solo exchange.
  OpFactory f;
  History h;
  for (Value r = 0; r < 6; ++r) {
    OpDesc a = f.op(0, Method::kExchange, 10 + r);
    OpDesc b = f.op(1, Method::kExchange, 20 + r);
    OpDesc c = f.op(2, Method::kExchange, 30 + r);
    OpDesc d = f.op(3, Method::kExchange, 40 + r);
    h.insert(h.end(), {Event::inv(a), Event::inv(b), Event::inv(c),
                       Event::res(a, b.arg), Event::inv(d),
                       Event::res(b, a.arg), Event::res(c, d.arg),
                       Event::res(d, c.arg)});
    OpDesc x = f.op(1, Method::kExchange, 50 + r);
    OpDesc y = f.op(2, Method::kExchange, 60 + r);
    OpDesc z = f.op(3, Method::kExchange, 70 + r);
    h.insert(h.end(), {Event::inv(x), Event::inv(y), Event::inv(z),
                       Event::res(x, z.arg), Event::res(y, kEmpty),
                       Event::res(z, x.arg)});
    OpDesc s = f.op(0, Method::kExchange, 80 + r);
    h.insert(h.end(), {Event::inv(s), Event::res(s, kEmpty)});
  }
  auto spec = make_exchanger_spec();
  SetLinMonitor m(*spec);
  const Golden want = {
      2777151727551271965ull,
      "{\"events_fed\":68,\"rounds_sequential\":33,\"peak_frontier\":5,"
      "\"dedup_probes\":352,\"dedup_hits\":104,\"states_recycled\":231,"
      "\"probe_batches\":188,\"prefetch_batches\":69,"
      "\"filter_in_place_rounds\":33}"};
  expect_golden(m, golden_prefix(h), want, "exchanger");
}

TEST(GoldenHash, IntervalLinMonitorWriteSnapshot) {
  auto spec = make_write_snapshot_interval_spec();
  History h = test::random_write_snapshot_history(5, 3, false);
  IntervalLinMonitor m(*spec);
  const Golden want = {
      12338198823855919048ull,
      "{\"events_fed\":8,\"rounds_sequential\":3,\"peak_frontier\":13,"
      "\"dedup_probes\":447,\"dedup_hits\":129,\"states_recycled\":289,"
      "\"probe_batches\":228,\"prefetch_batches\":110,"
      "\"filter_in_place_rounds\":3}"};
  expect_golden(m, golden_prefix(h), want, "write-snapshot");
}

// ---------------------------------------------------------------------------
// Collision guard (deliberate collision)
// ---------------------------------------------------------------------------

TEST(CollisionGuard, DetectsDeliberateCollision) {
  lincheck::CollisionGuard guard;
  // Two distinct canonical keys forced onto one fingerprint: the second
  // check must report the collision; re-checks of the recorded key pass.
  EXPECT_TRUE(guard.check(0xDEADBEEFull, "Q:1|"));
  EXPECT_TRUE(guard.check(0xDEADBEEFull, "Q:1|"));
  EXPECT_FALSE(guard.check(0xDEADBEEFull, "Q:2|"));
  EXPECT_TRUE(guard.check(0xBADC0FFEEull, "Q:2|"));
  EXPECT_EQ(guard.distinct(), 2u);
}

// ---------------------------------------------------------------------------
// FpSet
// ---------------------------------------------------------------------------

TEST(FpSet, InsertContainsClearGrow) {
  Arena arena;
  FpSet set(arena, 16);
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(set.insert(fph::mix(i)));
  }
  EXPECT_EQ(set.size(), 10000u);
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(set.contains(fph::mix(i)));
    EXPECT_FALSE(set.insert(fph::mix(i)));
  }
  EXPECT_FALSE(set.contains(fph::mix(10001)));
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(fph::mix(1)));
  EXPECT_TRUE(set.insert(fph::mix(1)));
  // Zero and adversarially clustered keys are ordinary values.
  EXPECT_TRUE(set.insert(0));
  EXPECT_FALSE(set.insert(0));
  for (uint64_t i = 1; i < 64; ++i) EXPECT_TRUE(set.insert(i << 32));
}

// ---------------------------------------------------------------------------
// SmallVec
// ---------------------------------------------------------------------------

TEST(SmallVec, InlineSpillCopyMove) {
  SmallVec<int, 4> v;
  for (int i = 0; i < 3; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 3u);
  v.insert_at(1, 42);  // 0 42 1 2
  EXPECT_EQ(v[1], 42);
  EXPECT_EQ(v[3], 2);
  for (int i = 0; i < 100; ++i) v.push_back(i);  // force heap spill
  EXPECT_EQ(v.size(), 104u);
  EXPECT_EQ(v[0], 0);
  EXPECT_EQ(v[103], 99);
  v.erase_at(0);  // 42 1 2 0 1 ...
  EXPECT_EQ(v[0], 42);
  EXPECT_EQ(v.size(), 103u);

  SmallVec<int, 4> c = v;  // copy keeps contents
  ASSERT_EQ(c.size(), v.size());
  for (size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c[i], v[i]);

  SmallVec<int, 4> m = std::move(c);  // move steals the heap block
  ASSERT_EQ(m.size(), v.size());
  EXPECT_EQ(m[0], 42);
  EXPECT_EQ(c.size(), 0u);  // NOLINT(bugprone-use-after-move)

  SmallVec<int, 4> s;
  s.push_back(7);
  SmallVec<int, 4> s2 = std::move(s);  // inline move copies
  ASSERT_EQ(s2.size(), 1u);
  EXPECT_EQ(s2[0], 7);
}

}  // namespace
}  // namespace selin
