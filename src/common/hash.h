#ifndef FKD_COMMON_HASH_H_
#define FKD_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fkd {

/// 64-bit FNV-1a over raw bytes — a fast, dependency-free string hash whose
/// output is stable across platforms and runs (unlike std::hash), so cache
/// keys and the canary split survive process restarts and are reproducible
/// in tests.
uint64_t Hash64(const void* data, size_t size);

inline uint64_t Hash64(std::string_view data) {
  return Hash64(data.data(), data.size());
}

/// Mixes an integer into an existing hash (splitmix64 finalizer). Used to
/// fold graph ids and versions into a cache key and to salt the canary
/// split.
uint64_t Hash64Mix(uint64_t seed, uint64_t value);

}  // namespace fkd

#endif  // FKD_COMMON_HASH_H_
