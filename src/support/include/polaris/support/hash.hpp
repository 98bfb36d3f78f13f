// 64-bit FNV-1a, the fold behind every determinism fingerprint: pdes
// golden hashes, rm accounting ledgers and obs trace hashes.
#pragma once

#include <cstdint>
#include <string_view>

namespace polaris::support {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ull;

/// Folds one value into `h`.  Byte-wise FNV-1a feeds it bytes; callers
/// hashing fixed-width records may feed whole words instead — one multiply
/// per field, still sensitive to every bit.
constexpr std::uint64_t fnv_step(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

/// Byte-wise FNV-1a of `bytes`, starting from `seed`.
constexpr std::uint64_t fnv1a(std::string_view bytes,
                              std::uint64_t seed = kFnvOffset) {
  std::uint64_t h = seed;
  for (const char c : bytes) h = fnv_step(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace polaris::support
