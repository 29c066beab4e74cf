// Randomized stress for the run-length op-set representation
// (util/interval_set.hpp) and the engines built on it, biased toward the
// shapes the directed tests cannot enumerate:
//
//   * hole-heavy key sets — runs shredded by interior erases and re-fused by
//     range inserts, so every tail split/merge/watermark-promotion path runs
//     thousands of times per seed;
//   * ragged-pending histories — straggler operations forced linearized out
//     of process order, so the live engines' op sets grow by random
//     mid-run insertion instead of the friendly append-at-watermark path.
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
#include <set>
#include <vector>

#include "selin/util/interval_set.hpp"
#include "test_util.hpp"

namespace selin {
namespace {

using selin::test::fuzz_rounds;  // each "round" is one fresh seed

// Structure-independent hash stand-ins (the engines use fph::* Zobrist
// element hashes; any xor-combinable 64-bit mix exercises the same
// incremental-maintenance contract).
uint64_t fz_id_hash(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 29;
  return k;
}
uint64_t fz_kv_hash(uint64_t k, Value v) {
  return fz_id_hash(k * 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(v));
}

void check_canonical(const IntervalSet& s) {
  uint64_t prev_end = 0;
  bool first = true;
  size_t total = 0;
  s.for_each_run([&](const IdRun& r) {
    ASSERT_GT(r.len, 0u);
    if (!first) {
      // Sorted, disjoint, non-adjacent: a gap of at least one key.
      ASSERT_GT(r.start, prev_end) << "runs adjacent or out of order";
    }
    first = false;
    prev_end = r.start + r.len;
    total += r.len;
  });
  ASSERT_EQ(total, s.size());
}

// ---- hole-heavy structure fuzz ---------------------------------------------

// Operation mix biased to shred: point erases land inside existing runs 2x
// as often as at their edges, range inserts re-fuse holes, and a periodic
// full drain restarts the watermark from a random base.
TEST(IntervalFuzzStructure, HoleHeavyDifferential) {
  const size_t rounds = 4 * fuzz_rounds();
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t seed = 0xF0F0 + round;
    Rng rng(seed);
    const uint64_t domain = round % 2 == 0 ? 128 : 4096;
    HashedIntervalSet<fz_id_hash> hs;
    std::set<uint64_t> oracle;
    uint64_t xr = 0;  // independently maintained xor of element hashes

    for (size_t step = 0; step < 6000; ++step) {
      uint64_t roll = rng.below(10);
      if (roll < 4) {
        uint64_t k = rng.below(domain);
        ASSERT_EQ(hs.insert(k), oracle.insert(k).second);
      } else if (roll < 7 && !oracle.empty()) {
        // Erase a present key: 2/3 of the time an interior key of some run
        // (max shred), else a uniformly random present key.
        uint64_t k;
        if (rng.chance(2, 3)) {
          size_t i = rng.below(oracle.size());
          auto it = oracle.begin();
          std::advance(it, i);
          k = *it;
        } else {
          k = hs.nth(rng.below(hs.size()));
        }
        ASSERT_TRUE(hs.erase(k));
        oracle.erase(k);
      } else if (roll < 8) {
        // Disjoint range insert: find a gap and fill (part of) it.
        uint64_t s = rng.below(domain);
        uint64_t len = 0;
        while (s + len < domain && len < 1 + rng.below(12) &&
               !oracle.count(s + len)) {
          ++len;
        }
        if (len > 0 && !oracle.count(s)) {
          hs.insert_range(s, len);
          for (uint64_t i = 0; i < len; ++i) oracle.insert(s + i);
        }
      } else if (roll < 9) {
        uint64_t k = rng.below(domain);
        ASSERT_EQ(hs.contains(k), oracle.count(k) == 1) << "key " << k;
      } else if (rng.chance(1, 40)) {
        hs.clear();
        oracle.clear();
      }
      if (step % 512 == 0) {
        check_canonical(hs.ids());
        ASSERT_EQ(hs.hash(), hs.rehash()) << "seed " << seed;
        ASSERT_EQ(hs.size(), oracle.size());
        // Full membership + ascending iteration agreement.
        auto it = oracle.begin();
        hs.for_each([&](uint64_t k) {
          ASSERT_NE(it, oracle.end());
          EXPECT_EQ(k, *it);
          ++it;
        });
        ASSERT_EQ(it, oracle.end());
      }
    }
    // Final exact hash: xor over the oracle.
    xr = 0;
    for (uint64_t k : oracle) xr ^= fz_id_hash(k);
    ASSERT_EQ(hs.hash(), xr) << "seed " << seed;
  }
}

TEST(IntervalFuzzStructure, RaggedValueRunsDifferential) {
  const size_t rounds = 4 * fuzz_rounds();
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t seed = 0xABCD + round;
    Rng rng(seed);
    const uint64_t domain = 512;
    ValueRunSet<fz_kv_hash> vs;
    std::map<uint64_t, Value> oracle;

    for (size_t step = 0; step < 6000; ++step) {
      uint64_t roll = rng.below(10);
      uint64_t k = rng.below(domain);
      // Few distinct values, so adjacent-equal merges happen constantly and
      // a later different-valued add splits nothing (adds stay disjoint).
      Value v = static_cast<Value>(1 + rng.below(3));
      if (roll < 4) {
        if (!oracle.count(k)) {
          vs.add(k, v);
          oracle[k] = v;
        }
      } else if (roll < 6 && !oracle.empty()) {
        auto it = oracle.begin();
        std::advance(it, rng.below(oracle.size()));
        ASSERT_TRUE(vs.remove(it->first));
        oracle.erase(it);
      } else if (roll < 8 && !oracle.empty()) {
        // Fused remove-if-equals: wrong expectation must not mutate.
        auto it = oracle.begin();
        std::advance(it, rng.below(oracle.size()));
        Value expect = rng.chance(1, 2) ? it->second : it->second + 99;
        bool removed = vs.remove_if_equals(it->first, expect);
        ASSERT_EQ(removed, expect == it->second);
        if (removed) oracle.erase(it);
      } else {
        const Value* found = vs.find(k);
        auto it = oracle.find(k);
        ASSERT_EQ(found != nullptr, it != oracle.end());
        if (found != nullptr) ASSERT_EQ(*found, it->second);
      }
      if (step % 512 == 0) {
        ASSERT_EQ(vs.hash(), vs.rehash()) << "seed " << seed;
        ASSERT_EQ(vs.size(), oracle.size());
        auto it = oracle.begin();
        vs.for_each([&](uint64_t kk, Value vv) {
          ASSERT_NE(it, oracle.end());
          EXPECT_EQ(kk, it->first);
          EXPECT_EQ(vv, it->second);
          ++it;
        });
        ASSERT_EQ(it, oracle.end());
        // Canonical maximality: adjacent runs never share a value.
        uint64_t prev_end = 0;
        Value prev_v = 0;
        bool first = true;
        vs.for_each_run([&](const ValueRun& r) {
          if (!first && r.start == prev_end) {
            EXPECT_NE(r.v, prev_v) << "unmerged equal-valued adjacent runs";
          }
          first = false;
          prev_end = r.start + r.len;
          prev_v = r.v;
        });
      }
    }
  }
}

// ---- ragged-pending engine fuzz --------------------------------------------

// Straggler enqueues whose responses never arrive, forced linearized by
// observing dequeues in *random* order within a sliding window.  All
// stragglers share seq 0, so their seq-major keys are the contiguous range
// [0, w) — but random forcing order inserts them into `linearized` in a
// shuffled order, splitting and re-fusing tail runs in the live engine.  The
// window bounds simultaneously-open enqueues (an unbounded cohort hands the
// closure w! orders).
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
