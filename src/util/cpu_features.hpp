// CPU feature probes shared by the runtime-dispatched kernels
// (crypto/mont_kernel.*, crypto/sha256_kernel.*, sketch/sketch_kernel.*).
//
// A CPUID feature bit says the core can execute an instruction set. It
// does not say that the operating system saves the registers that set
// uses across context switches. Code on YMM or ZMM registers is safe only
// when both hold (Intel SDM Vol. 1, 14.3 and 15.2):
//   * CPUID.1:ECX.OSXSAVE (bit 27): the OS has enabled XGETBV;
//   * XGETBV(0) shows every XCR0 state component the registers need.
// Under an OS or hypervisor that leaves YMM or ZMM state off, the first
// such instruction dies with SIGILL, so a probe that reads only the
// feature bit would pick a kernel the process cannot run.
#pragma once

#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#endif

namespace eyw::util {

/// XCR0 components AVX and AVX2 code needs: SSE (bit 1) and YMM (bit 2).
inline constexpr std::uint64_t kXcr0Avx = 0x06;
/// AVX-512 adds opmask (bit 5), ZMM_Hi256 (bit 6) and Hi16_ZMM (bit 7).
inline constexpr std::uint64_t kXcr0Avx512 = 0xE6;

/// The verdict from the two raw readings: XGETBV is enabled and XCR0
/// holds every component in `mask`.
[[nodiscard]] constexpr bool xstate_enabled(bool osxsave, std::uint64_t xcr0,
                                            std::uint64_t mask) noexcept {
  return osxsave && (xcr0 & mask) == mask;
}

/// The OS saves every XCR0 component in `mask` for this process (false on
/// non-x86 builds).
[[nodiscard]] inline bool os_saves_xstate(std::uint64_t mask) noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned int kOsxsave = 1u << 27;  // ECX bit 27
  // Without OSXSAVE, XGETBV itself is an invalid opcode.
  if ((ecx & kOsxsave) == 0) return false;
  std::uint32_t lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return xstate_enabled(true, (std::uint64_t{hi} << 32) | lo, mask);
#else
  (void)mask;
  return false;
#endif
}

/// CPUID leaf 7, subleaf 0, EBX: the structured extended feature flags
/// (0 on non-x86 builds or when the leaf is absent).
[[nodiscard]] inline std::uint32_t cpuid7_ebx() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return 0;
  return ebx;
#else
  return 0;
#endif
}

}  // namespace eyw::util
