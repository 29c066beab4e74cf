// Numeric flag parsing shared by the command-line tools.
#pragma once

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>

namespace selin::cli {

/// Cap on worker lanes, shared by selin_check --jobs and selin_ingestd
/// --lanes.
inline constexpr size_t kMaxLanes = 256;

/// Parses a whole token of decimal digits in [lo, hi]; rejects signs,
/// leading spaces, overflow and trailing text.
inline bool parse_size(const char* s, size_t* out, size_t lo = 0,
                       size_t hi = SIZE_MAX) {
  if (*s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || errno == ERANGE || v < lo || v > hi) return false;
  *out = static_cast<size_t>(v);
  return true;
}

}  // namespace selin::cli
