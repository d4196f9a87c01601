// The splitmix64 finalizer (public-domain constants): the repository's
// counter-based draw. Hashing (seed, counter) instead of stepping a
// stateful generator makes every draw a pure function of its inputs, so a
// replay from the same seed is bit-identical.
#pragma once

#include <cstdint>

namespace hermes::net {

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace hermes::net
