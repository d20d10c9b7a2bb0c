// The one clock both benchmark processes stamp with. CLOCK_MONOTONIC is
// system-wide, so a generator send stamp and a server-child entry stamp
// are directly comparable — that is what makes the cross-process span
// join (trace.hpp) possible without any clock exchange.
#pragma once

#include <time.h>

#include <cerrno>
#include <cstdint>

namespace eyw::bench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Sleep until the absolute CLOCK_MONOTONIC instant `when_ns` (returns at
/// once when it has passed) — the open-loop pacer's schedule primitive.
inline void sleep_until_ns(std::uint64_t when_ns) noexcept {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(when_ns / 1'000'000'000ULL);
  ts.tv_nsec = static_cast<long>(when_ns % 1'000'000'000ULL);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// CPU time this process has consumed, all threads, in seconds.
[[nodiscard]] inline double process_cpu_seconds() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace eyw::bench
