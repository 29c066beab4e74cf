// 64-bit fingerprint hashing for the configuration engine.
//
// The linearizability checkers deduplicate configurations billions of times
// on long histories; building a canonical string per configuration makes the
// hot path allocation-bound.  Instead every SeqState exposes a 64-bit
// fingerprint and Config combines it with an incrementally maintained
// Zobrist-style hash of the linearized-op multiset, so a dedup probe costs a
// handful of multiplies and no allocation.
//
// Collision discipline: fingerprints are 64-bit, so distinct configurations
// can in principle collide (probability ~ k²/2⁶⁵ for k live configurations —
// below 1e-10 for the 2¹⁸-config budget).  Debug builds cross-check every
// fingerprint against the canonical string key (see CollisionGuard in
// lincheck/config.hpp) and abort the check on a real collision.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

// Fingerprint collision audit: every dedup probe is cross-checked against
// the canonical string key.  On by default in debug builds; force with
// -DSELIN_FP_AUDIT=1 (CMake option SELIN_FP_AUDIT).
#ifndef SELIN_FP_AUDIT
#ifdef NDEBUG
#define SELIN_FP_AUDIT 0
#else
#define SELIN_FP_AUDIT 1
#endif
#endif

namespace selin::fph {

inline constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ull;
inline constexpr uint64_t kFnvPrime = 0x00000100000001B3ull;

/// splitmix64 finalizer: bijective and well-mixed; the workhorse for turning
/// structured 64-bit values (packed ids, counters) into fingerprint material.
constexpr uint64_t mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Streaming order-dependent hasher for sequence-shaped state (queues,
/// stacks, sorted sets).  Seed with a per-type tag so e.g. an empty queue and
/// an empty stack fingerprint differently.
class Hasher {
 public:
  constexpr explicit Hasher(uint64_t tag = 0) : h_(kFnvOffset ^ mix(tag)) {}

  constexpr Hasher& u64(uint64_t v) {
    h_ = (h_ ^ mix(v)) * kFnvPrime;
    return *this;
  }
  constexpr Hasher& i64(int64_t v) { return u64(static_cast<uint64_t>(v)); }

  constexpr uint64_t done() const { return mix(h_); }

 private:
  uint64_t h_;
};

/// Byte-string hash; backs the default SeqState::fingerprint() (hash of
/// encode()) for specs that do not override with direct hashing.
constexpr uint64_t bytes(std::string_view s) {
  uint64_t h = kFnvOffset;
  for (char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * kFnvPrime;
  }
  return mix(h);
}

// ---- Zobrist element hashes ------------------------------------------------
//
// Set-shaped components (the linearized-op multiset, the machine-open set)
// are hashed as the XOR of per-element hashes so that add/remove update the
// combined hash incrementally in O(1).  Distinct roles use distinct tags so
// the same op id contributes independent material to each component.

inline constexpr uint64_t kLinTag = 0xA5C1DE5A17AB1E00ull;
inline constexpr uint64_t kOpenTag = 0x0B5E55ED0DDBA11ull;

/// Element hash of a linearized-but-unresponded op (id, assigned result).
constexpr uint64_t lin_op(uint64_t packed_id, int64_t assigned) {
  return mix(mix(packed_id ^ kLinTag) ^ static_cast<uint64_t>(assigned));
}

/// Element hash of a machine-open op id (interval checker).
constexpr uint64_t open_op(uint64_t packed_id) {
  return mix(packed_id ^ kOpenTag);
}

}  // namespace selin::fph
