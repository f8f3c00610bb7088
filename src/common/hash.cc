#include "common/hash.h"

namespace fkd {

uint64_t Hash64(const void* data, size_t size) {
  // FNV-1a, 64-bit.
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = 14695981039346656037ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t Hash64Mix(uint64_t seed, uint64_t value) {
  // splitmix64 finalizer over the xor'd pair: cheap, well-distributed, and
  // (unlike a plain xor) sensitive to the order of mixed-in values.
  uint64_t z = seed ^ (value + 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace fkd
