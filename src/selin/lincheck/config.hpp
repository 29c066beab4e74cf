// Shared configuration machinery for the frontier-based checkers.
//
// A configuration pairs a sequential-machine state with the multimap of
// operations that have been *linearized but not yet responded*, together with
// the result the machine assigned to each.  Two configurations are equal iff
// their canonical keys are equal; the frontier deduplicates on a 64-bit
// fingerprint of that key (state fingerprint XOR an incrementally maintained
// Zobrist hash of the linearized-op set — see util/hash.hpp for the collision
// discipline).  key() remains the ground truth and backs the debug-mode
// collision audit.
//
// Representation: the linearized set is a run-length ValueRunSet
// (util/interval_set.hpp) keyed *seq-major* — seq in the high word, pid in
// the low word.  Concurrently pending ops live on distinct processes, so
// pid-major packed ids never sit adjacent; under seq-major keys a lockstep
// cohort (same seq, dense pids) is one contiguous run, and a run whose ops
// were assigned the same value (e.g. a cohort of enqueue acks) costs one
// 24-byte entry regardless of its width.  The element hash still feeds
// fph::lin_op the *pid-major* packed id, so every fingerprint is bit-
// identical to the flat-vector representation this replaced.
#pragma once

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "selin/spec/spec.hpp"
#include "selin/util/arena.hpp"
#include "selin/util/fp_set.hpp"
#include "selin/util/hash.hpp"
#include "selin/util/interval_set.hpp"
#include "selin/util/small_vec.hpp"

namespace selin::lincheck {

/// Seq-major storage key of an op id: seq in the high word, pid in the low
/// word.  An involution of OpId::packed() (swapping the halves twice is the
/// identity), so the pid-major id is recovered with the same swap.
constexpr uint64_t seq_major(OpId id) {
  uint64_t p = id.packed();
  return (p << 32) | (p >> 32);
}

/// Inverse of seq_major: the storage key back to the op id.
constexpr OpId id_of_key(uint64_t key) {
  return OpId{static_cast<ProcId>(key & 0xFFFFFFFFull),
              static_cast<uint32_t>(key >> 32)};
}

/// Element hash of a (seq-major key, assigned value) entry: un-swaps the key
/// so fph::lin_op sees the same pid-major packed id as always — the hash
/// contract (and with it every fingerprint, dedup table, and checkpoint) is
/// bit-identical to the flat sorted-vector representation.
constexpr uint64_t lin_elem(uint64_t key, Value assigned) {
  return fph::lin_op((key << 32) | (key >> 32), assigned);
}

/// One Bloom bit per op id for the SoA filter pass (engine hot rows): the
/// OR of these bits over a configuration's response-relevant set is a
/// monotone over-approximation of "this op might match here" — bits are
/// never cleared when an op leaves the set, so a clear bit proves the
/// configuration drops and the exact match() call is skipped; a set bit
/// falls through to match().
constexpr uint64_t match_bit(uint64_t seq_major_key) {
  return uint64_t{1} << (fph::mix(seq_major_key) & 63);
}

/// The linearized-but-unresponded op set: seq-major keys -> assigned values,
/// run-length compressed with the incremental fph::lin_op hash.
using LinSet = ValueRunSet<lin_elem>;

/// Recycler for SeqState clones.  Configurations are created and discarded
/// in bulk during closure expansion; pooling the discarded states and
/// refilling them via SeqState::assign_from reuses both the state object and
/// its internal container capacity, so steady-state expansion allocates
/// nothing.  States in one pool must come from a single spec (one dynamic
/// type); specs that do not implement assign_from silently degrade to
/// clone().
class StatePool {
 public:
  /// A state equal to `src` — recycled if possible, freshly cloned if not.
  std::unique_ptr<SeqState> acquire(const SeqState& src) {
    if (!free_.empty()) {
      std::unique_ptr<SeqState> s = std::move(free_.back());
      free_.pop_back();
      if (s->assign_from(src)) {
        ++recycled_;
        return s;
      }
      disabled_ = true;  // spec does not support recycling
      free_.clear();
    }
    return src.clone();
  }

  void release(std::unique_ptr<SeqState> s) {
    if (!disabled_ && s != nullptr && free_.size() < kMaxPooled) {
      free_.push_back(std::move(s));
    }
  }

  /// Acquisitions served by recycling rather than clone() (engine stats).
  uint64_t recycled() const { return recycled_; }

 private:
  static constexpr size_t kMaxPooled = 4096;
  bool disabled_ = false;
  uint64_t recycled_ = 0;
  std::vector<std::unique_ptr<SeqState>> free_;
};

struct Config {
  std::unique_ptr<SeqState> state;
  LinSet linearized;  // run-length (seq-major key -> assigned) set

  Config clone() const {
    Config c;
    c.state = state->clone();
    c.linearized = linearized;
    return c;
  }

  /// clone() through a recycling pool (the checkers' hot path).
  Config clone_with(StatePool& pool) const {
    Config c;
    c.state = pool.acquire(*state);
    c.linearized = linearized;
    return c;
  }

  /// 64-bit deduplication fingerprint; equal keys have equal fingerprints.
  /// The linearized component is the cached incremental Zobrist hash — no
  /// walk over ids.
  uint64_t fingerprint() const {
    return state->fingerprint() ^ linearized.hash();
  }

  /// Canonical deduplication key (ground truth; audit + diagnostics only).
  /// Deterministic and injective per configuration; entries stream in
  /// seq-major key order.
  std::string key() const {
    std::ostringstream os;
    os << state->encode() << "|";
    linearized.for_each([&os](uint64_t k, Value v) {
      OpId id = id_of_key(k);
      os << id.pid << "." << id.seq << "=" << v << ";";
    });
    return os.str();
  }

  /// The value assigned to `id` when it linearized, or nullptr (valid until
  /// the next mutation).
  const Value* find(OpId id) const { return linearized.find(seq_major(id)); }

  void add(OpId id, Value assigned) { linearized.add(seq_major(id), assigned); }

  void remove(OpId id) { linearized.remove(seq_major(id)); }

  /// Fused response filter: removes `id` iff present with exactly the
  /// observed value — one run search instead of find-then-remove.
  bool remove_if_equals(OpId id, Value expect) {
    return linearized.remove_if_equals(seq_major(id), expect);
  }

  /// Footprint accounting for the memory facet (bench_frontier_memory).
  size_t opset_elems() const { return linearized.size(); }
  size_t opset_bytes() const { return linearized.resident_bytes(); }
  /// What the pre-interval flat representation would occupy for these sets:
  /// SmallVec<{OpId, Value}, 8> plus the standalone hash word.
  size_t opset_smallvec_bytes() const {
    return small_vec_model_bytes(linearized.size(), 8, 16) + sizeof(uint64_t);
  }
};

/// Debug-mode collision audit: records the canonical key first seen for each
/// fingerprint and flags any later fingerprint whose key differs.  The
/// mapping fingerprint→key is global to a checker's lifetime (the same
/// configuration always produces the same key), so one guard can audit every
/// dedup set a checker owns.  Memory is bounded: past kMaxEntries distinct
/// fingerprints the map is reset, which narrows detection to collisions
/// within a window but keeps audit builds memory-stable on long histories.
class CollisionGuard {
 public:
  /// True iff `fp` is consistent (new, or previously recorded with the same
  /// key).  False signals a genuine 64-bit collision.
  bool check(uint64_t fp, const std::string& key) {
    if (keys_.size() >= kMaxEntries) keys_.clear();
    auto [it, fresh] = keys_.try_emplace(fp, key);
    return fresh || it->second == key;
  }

  size_t distinct() const { return keys_.size(); }

 private:
  static constexpr size_t kMaxEntries = 1 << 22;
  std::unordered_map<uint64_t, std::string> keys_;
};

/// The dedup machinery every frontier checker carries: arena-backed
/// fingerprint scratch sets (cleared per feed, capacity retained), the state
/// recycling pool, and the debug collision audit.  One instance per monitor;
/// copies of a monitor start from a fresh engine.
struct DedupEngine {
  Arena arena;
  FpSet seen{arena};         // closure expansion dedup
  FpSet filter_seen{arena};  // response-filter dedup
  StatePool pool;
  uint64_t probes = 0;   // dedup probes issued (engine stats)
  uint64_t hits = 0;     // probes that found a duplicate
  uint64_t batches = 0;  // probe_batch groups resolved
  uint64_t prefetch_batches = 0;  // groups that issued slot prefetches

  /// Audit `fp` against the canonical key (built lazily; debug builds only).
  template <typename KeyFn>
  void audit(uint64_t fp, KeyFn&& key) {
#if SELIN_FP_AUDIT
    if (!audit_.check(fp, key())) {
      throw std::runtime_error("selin: fingerprint collision detected");
    }
#else
    (void)fp;
    (void)key;
#endif
  }

  /// Dedup probe: true iff `c` (Config or IConfig) is new to `set`.
  template <typename C>
  bool probe(FpSet& set, const C& c) {
    uint64_t fp = c.fingerprint();
    audit(fp, [&c] { return c.key(); });
    ++probes;
    bool fresh = set.insert(fp);
    if (!fresh) ++hits;
    return fresh;
  }

  /// Batched dedup probe over precomputed fingerprints (n <= 64): one
  /// capacity check and one prefetch sweep for the whole group, probe order
  /// and counter deltas identical to n probe() calls.  Bit i of the result
  /// is set iff fps[i] was fresh.  `key(i)` builds the i-th candidate's
  /// canonical audit key lazily (audit builds only).
  template <typename KeyFn>
  uint64_t probe_batch(FpSet& set, const uint64_t* fps, size_t n,
                       KeyFn&& key) {
#if SELIN_FP_AUDIT
    for (size_t i = 0; i < n; ++i) audit(fps[i], [&] { return key(i); });
#else
    (void)key;
#endif
    if (n == 0) return 0;
    probes += n;
    const uint64_t fresh = set.probe_batch(fps, n);
    size_t kept = 0;
    for (uint64_t m = fresh; m != 0; m &= m - 1) ++kept;
    hits += n - kept;
    ++batches;
    if (FpSet::prefetch_enabled() && n >= 2) ++prefetch_batches;
    return fresh;
  }

#if SELIN_FP_AUDIT
 private:
  CollisionGuard audit_;
#endif
};

}  // namespace selin::lincheck
