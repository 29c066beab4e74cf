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
// Representation: the linearized set is an OpSet, one flat vector of
// (op id, value) entries sorted by OpId::packed() with the set's Zobrist
// hash cached beside it.  Each process has at most one pending operation,
// so a set never holds more than n entries.
#pragma once

#include <algorithm>
#include <cassert>
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
#include "selin/util/small_vec.hpp"

namespace selin::lincheck {

/// Element hash of a linearized (op, assigned value) entry.
constexpr uint64_t lin_elem(OpId id, Value assigned) {
  return fph::lin_op(id.packed(), assigned);
}

/// One Bloom bit per op id for the SoA filter pass (engine hot rows): the
/// OR of these bits over a configuration's response-relevant set is a
/// monotone over-approximation of "this op might match here" — bits are
/// never cleared when an op leaves the set, so a clear bit proves the
/// configuration drops and the exact match() call is skipped; a set bit
/// falls through to match().
constexpr uint64_t match_bit(OpId id) {
  return uint64_t{1} << (fph::mix(id.packed()) & 63);
}

/// One op-set entry: an op id and the value attached to it.
struct OpEntry {
  OpId id;
  Value v;
};

/// A configuration's op set: entries sorted by OpId::packed() in one
/// SmallVec, plus the XOR of ElemHash over the entries, patched at every
/// mutation so that reading the hash never walks the entries.  A set holds
/// at most one entry per process; the inline capacity covers every
/// benchmark workload (at most 2 entries) without a heap block.
template <uint64_t (*ElemHash)(OpId, Value)>
class OpSet {
 public:
  uint64_t hash() const { return hash_; }

  /// hash() recomputed from the entries (tests cross-check the two).
  uint64_t rehash() const {
    uint64_t h = 0;
    for (const OpEntry& e : entries_) h ^= ElemHash(e.id, e.v);
    return h;
  }

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  const OpEntry* begin() const { return entries_.begin(); }
  const OpEntry* end() const { return entries_.end(); }
  const OpEntry& operator[](size_t i) const { return entries_[i]; }

  /// The value attached to `id`, or nullptr (valid until the next
  /// mutation).
  const Value* find(OpId id) const {
    const OpEntry* e = lower(id);
    return e != end() && e->id == id ? &e->v : nullptr;
  }

  bool contains(OpId id) const { return find(id) != nullptr; }

  /// Adds (id, v).  Precondition: `id` is absent.
  void add(OpId id, Value v) {
    const OpEntry* e = lower(id);
    assert(e == end() || e->id != id);
    entries_.insert_at(static_cast<size_t>(e - begin()), OpEntry{id, v});
    hash_ ^= ElemHash(id, v);
  }

  /// Removes `id`; false iff absent.
  bool remove(OpId id) {
    const OpEntry* e = lower(id);
    if (e == end() || e->id != id) return false;
    erase(e);
    return true;
  }

  /// Removes `id` iff it is present AND carries `expect` — the fused
  /// response-filter probe (one search instead of find-then-remove).
  bool remove_if_equals(OpId id, Value expect) {
    const OpEntry* e = lower(id);
    if (e == end() || e->id != id || e->v != expect) return false;
    erase(e);
    return true;
  }

  /// Bytes this set occupies in memory (object + any heap spill).
  size_t resident_bytes() const {
    return sizeof(*this) + entries_.heap_bytes();
  }

 private:
  const OpEntry* lower(OpId id) const {
    return std::lower_bound(
        begin(), end(), id,
        [](const OpEntry& e, OpId key) { return e.id < key; });
  }

  void erase(const OpEntry* e) {
    hash_ ^= ElemHash(e->id, e->v);
    entries_.erase_at(static_cast<size_t>(e - begin()));
  }

  static constexpr size_t kInline = 4;

  SmallVec<OpEntry, kInline> entries_;
  uint64_t hash_ = 0;
};

/// The linearized-but-unresponded op set: op id -> assigned value, hashed
/// with fph::lin_op.
using LinSet = OpSet<lin_elem>;

/// Bloom bits (match_bit) of every op in `s`: the SoA hot-row summary the
/// response filter consults before match().
inline uint64_t match_bits(const LinSet& s) {
  uint64_t bits = 0;
  for (const OpEntry& e : s) bits |= match_bit(e.id);
  return bits;
}

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
  LinSet linearized;  // op id -> assigned value, sorted by id

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
  /// Deterministic and injective per configuration; entries stream in id
  /// order.
  std::string key() const {
    std::ostringstream os;
    os << state->encode() << "|";
    for (const OpEntry& e : linearized) {
      os << e.id.pid << "." << e.id.seq << "=" << e.v << ";";
    }
    return os.str();
  }

  /// The value assigned to `id` when it linearized, or nullptr (valid until
  /// the next mutation).
  const Value* find(OpId id) const { return linearized.find(id); }

  void add(OpId id, Value assigned) { linearized.add(id, assigned); }

  void remove(OpId id) { linearized.remove(id); }

  /// Fused response filter: removes `id` iff present with exactly the
  /// observed value — one search instead of find-then-remove.
  bool remove_if_equals(OpId id, Value expect) {
    return linearized.remove_if_equals(id, expect);
  }

  /// Op-set footprint (FrontierEngine::footprint).
  size_t opset_elems() const { return linearized.size(); }
  size_t opset_bytes() const { return linearized.resident_bytes(); }
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

  /// Batched dedup probe over precomputed fingerprints (n <= 64): one
  /// capacity check and one prefetch sweep for the whole group, probe order
  /// and counter deltas identical to n single inserts.  Bit i of the result
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
