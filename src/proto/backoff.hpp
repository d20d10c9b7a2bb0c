// Deterministic jittered exponential backoff for the ClientReactor
// channels' connect retries.
//
// Why jitter at all: a reporter swarm that loses its server reconnects in
// synchronized waves if every client sleeps the same doubling schedule —
// thousands of SYNs landing in the same few milliseconds, repeatedly. A
// ±50% jitter on each delay spreads one wave across a full backoff period.
// Why deterministic: tests (and the bit-identical deployment checks) need
// reproducible timing, so the jitter comes from a caller-seeded splitmix64
// stream, not from a global entropy source — same seed, same delays.
#pragma once

#include <chrono>
#include <cstdint>

namespace eyw::proto {

/// One step of the splitmix64 stream (the PRNG behind the jitter: tiny,
/// seedable, and well distributed even for consecutive seeds).
[[nodiscard]] inline std::uint64_t splitmix64_next(
    std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// `base` jittered into [base/2, 3*base/2], advancing `state`. A zero base
/// stays zero (jitter cannot turn "no backoff" into a wait).
[[nodiscard]] inline std::chrono::milliseconds jittered_backoff(
    std::chrono::milliseconds base, std::uint64_t& state) noexcept {
  const auto b = static_cast<std::uint64_t>(base.count());
  if (b == 0) return base;
  return std::chrono::milliseconds(b / 2 + splitmix64_next(state) % (b + 1));
}

}  // namespace eyw::proto
