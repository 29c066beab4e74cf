// Randomized stress for the configurations' op sets (lincheck::OpSet) and
// the engines built on them:
//
//   * the op-set differential — random add / remove / remove_if_equals /
//     find against a std::map oracle, over id domains that stay inline and
//     ones that spill to the heap, checking ascending iteration and the
//     cached Zobrist hash against a from-scratch XOR;
//   * ragged-pending histories — straggler operations forced linearized out
//     of process order, so the live engines' op sets grow by random
//     mid-vector insertion instead of appends.
//
// Engine rounds assert batch parity: verdict, overflow point AND frontier
// digest (XOR of mixed config fingerprints) must be bit-identical between
// per-event and chunked feed_batch feeding — on accepting and corrupted
// histories alike.
//
// Round counts scale with the SELIN_FUZZ_ROUNDS environment variable
// (default 1): plain ctest gets a fast smoke, the CI fuzz leg raises it to
// fill its ~5-minute budget under the sanitizers.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "selin/lincheck/config.hpp"
#include "test_util.hpp"

namespace selin {
namespace {

using lincheck::LinSet;
using lincheck::OpEntry;
using selin::test::fuzz_rounds;  // each "round" is one fresh seed

// ---- op-set differential ---------------------------------------------------

TEST(OpSetFuzz, DifferentialVsStdMap) {
  const size_t rounds = 4 * fuzz_rounds();
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t seed = 0x0B5E7 + round;
    Rng rng(seed);
    // Even rounds draw from 128 ids, so the set spills to the heap; odd
    // rounds from 6, so it mostly stays within its inline capacity.
    const uint32_t pids = round % 2 == 0 ? 16 : 3;
    const uint32_t seqs = round % 2 == 0 ? 8 : 2;
    LinSet s;
    std::map<uint64_t, Value> oracle;  // packed id -> value
    uint64_t xr = 0;  // XOR of element hashes, maintained alongside

    for (size_t step = 0; step < 6000; ++step) {
      const OpId id{static_cast<ProcId>(rng.below(pids)),
                    static_cast<uint32_t>(rng.below(seqs))};
      const Value v = static_cast<Value>(1 + rng.below(3));
      auto it = oracle.find(id.packed());
      const uint64_t roll = rng.below(10);
      if (roll < 4) {
        if (it == oracle.end()) {  // add's precondition: id absent
          s.add(id, v);
          oracle[id.packed()] = v;
          xr ^= lincheck::lin_elem(id, v);
        }
      } else if (roll < 6) {
        ASSERT_EQ(s.remove(id), it != oracle.end()) << "seed " << seed;
        if (it != oracle.end()) {
          xr ^= lincheck::lin_elem(id, it->second);
          oracle.erase(it);
        }
      } else if (roll < 8) {
        // Fused remove-if-equals: a wrong expectation must not mutate.
        const Value expect =
            it != oracle.end() && rng.chance(1, 2) ? it->second : v;
        const bool hit = it != oracle.end() && it->second == expect;
        ASSERT_EQ(s.remove_if_equals(id, expect), hit) << "seed " << seed;
        if (hit) {
          xr ^= lincheck::lin_elem(id, expect);
          oracle.erase(it);
        }
      } else {
        const Value* found = s.find(id);
        ASSERT_EQ(found != nullptr, it != oracle.end()) << "seed " << seed;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
        ASSERT_EQ(s.contains(id), found != nullptr);
      }
      ASSERT_EQ(s.hash(), xr) << "seed " << seed << " step " << step;
      if (step % 256 == 0) {
        ASSERT_EQ(s.rehash(), xr) << "seed " << seed;
        ASSERT_EQ(s.size(), oracle.size());
        // Ascending iteration, on the set and on a copy of it.
        const LinSet copy = s;
        ASSERT_EQ(copy.hash(), xr);
        for (const LinSet* set : {&copy, static_cast<const LinSet*>(&s)}) {
          auto o = oracle.begin();
          for (const OpEntry& e : *set) {
            ASSERT_NE(o, oracle.end());
            EXPECT_EQ(e.id.packed(), o->first);
            EXPECT_EQ(e.v, o->second);
            ++o;
          }
          ASSERT_EQ(o, oracle.end());
        }
      }
    }
  }
}

// ---- ragged-pending engine fuzz --------------------------------------------

// Straggler enqueues whose responses never arrive, forced linearized by
// observing dequeues in *random* order within a sliding window.  All
// stragglers share seq 0, but random forcing order inserts them into
// `linearized` in a shuffled order, so the live engine's op sets grow by
// mid-vector insertion and shrink from the middle.  The window bounds
// simultaneously-open enqueues (an unbounded cohort hands the closure w!
// orders).
History make_ragged_straggler_history(size_t w, size_t window, Rng& rng) {
  History h;
  const Value base = 500;
  const ProcId drain = static_cast<ProcId>(w);
  uint32_t dseq = 0;
  std::vector<ProcId> open;
  size_t next = 0;
  while (next < w || !open.empty()) {
    if (next < w && open.size() < window &&
        (open.empty() || rng.chance(2, 3))) {
      auto p = static_cast<ProcId>(next++);
      h.push_back(Event::inv(OpDesc{OpId{p, 0}, Method::kEnqueue,
                                    base + static_cast<Value>(p)}));
      open.push_back(p);
    } else {
      size_t i = rng.below(open.size());
      ProcId p = open[i];
      open.erase(open.begin() + static_cast<ptrdiff_t>(i));
      OpDesc d{OpId{drain, dseq++}, Method::kDequeue};
      h.push_back(Event::inv(d));
      h.push_back(Event::res(d, base + static_cast<Value>(p)));
    }
  }
  return h;
}

/// Feeds one event (or batch), absorbing CheckerOverflow: overflow is a
/// legitimate fuzz outcome (the membership problem is NP-hard), and the
/// overflow point itself must not depend on the chunking.
template <typename Monitor>
bool feed_guarded(Monitor& m, std::span<const Event> events) {
  try {
    if (events.size() == 1) {
      m.feed(events[0]);
    } else {
      m.feed_batch(events);
    }
    return false;
  } catch (const CheckerOverflow&) {
    return true;
  }
}

/// Chunked feed_batch parity with per-event feeding at every boundary —
/// including identical overflow points and sticky poisoning.
template <typename Monitor, typename Make>
void expect_fuzz_parity(Make make, const History& h, uint64_t seed) {
  for (size_t chunk : {size_t{7}, size_t{64}}) {
    Monitor ref2 = make();
    Monitor batched = make();
    for (size_t i = 0; i < h.size(); i += chunk) {
      size_t n = std::min(chunk, h.size() - i);
      bool ovf_b = feed_guarded(batched,
                                std::span<const Event>(h.data() + i, n));
      bool ovf_r = false;
      for (size_t j = 0; j < n; ++j) {
        ovf_r |= feed_guarded(ref2, std::span<const Event>(h.data() + i + j, 1));
      }
      ASSERT_EQ(ovf_r, ovf_b)
          << "seed " << seed << " chunk " << chunk << " at " << i;
      ASSERT_EQ(ref2.overflowed(), batched.overflowed())
          << "seed " << seed << " chunk " << chunk << " at " << i;
      ASSERT_EQ(ref2.ok(), batched.ok())
          << "seed " << seed << " chunk " << chunk << " at " << i;
      ASSERT_EQ(ref2.frontier_digest(), batched.frontier_digest())
          << "seed " << seed << " chunk " << chunk << " at " << i;
    }
  }
}

TEST(IntervalFuzzEngine, RaggedStragglerParity) {
  auto spec = make_queue_spec();
  const size_t rounds = 3 * fuzz_rounds();
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t seed = 0xBEEF + round;
    Rng rng(seed);
    History h = make_ragged_straggler_history(24, 3, rng);
    if (round % 3 == 2) test::corrupt_response(h, seed);
    auto make = [&] { return LinMonitor(*spec); };
    expect_fuzz_parity<LinMonitor>(make, h, seed);
  }
}

TEST(IntervalFuzzEngine, RandomOverlapParity) {
  const ObjectKind kinds[] = {ObjectKind::kQueue, ObjectKind::kSet,
                              ObjectKind::kRegister};
  const size_t rounds = 2 * fuzz_rounds();
  for (size_t round = 0; round < rounds; ++round) {
    for (ObjectKind kind : kinds) {
      const uint64_t seed = 0x5EED + round * 7 + static_cast<uint64_t>(kind);
      History h = test::random_linearizable_history(kind, 6, 60, seed);
      if (round % 2 == 1) test::corrupt_response(h, seed);
      auto spec = make_spec(kind);
      auto make = [&] { return LinMonitor(*spec); };
      expect_fuzz_parity<LinMonitor>(make, h, seed);
    }
  }
}

TEST(IntervalFuzzEngine, WriteSnapshotRaggedParity) {
  auto spec = make_write_snapshot_interval_spec();
  const size_t rounds = 3 * fuzz_rounds();
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t seed = 0xD00D + round;
    // n = 5 caps the concurrency window: the closure's speculative
    // machine-respond move forks per (entry mask, assign point), so wider
    // random windows overflow rather than fuzz.
    History h = test::random_write_snapshot_history(5, seed, round % 3 == 0);
    auto make = [&] { return IntervalLinMonitor(*spec); };
    expect_fuzz_parity<IntervalLinMonitor>(make, h, seed);
  }
}

TEST(IntervalFuzzEngine, ExchangerRaggedParity) {
  auto spec = make_exchanger_spec();
  const size_t rounds = 3 * fuzz_rounds();
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t seed = 0xCAFE + round;
    History h = test::random_exchanger_history(5, 40, seed);
    auto make = [&] { return SetLinMonitor(*spec); };
    expect_fuzz_parity<SetLinMonitor>(make, h, seed);
  }
}

}  // namespace
}  // namespace selin
