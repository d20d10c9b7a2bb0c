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

/// The two raw readings behind every XCR0 verdict.
struct Xstate {
  bool osxsave = false;    ///< CPUID.1:ECX bit 27
  std::uint64_t xcr0 = 0;  ///< XGETBV(0); 0 when OSXSAVE is off
};

/// This process's readings ({false, 0} on non-x86 builds).
[[nodiscard]] inline Xstate read_xstate() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return {};
  constexpr unsigned int kOsxsave = 1u << 27;  // ECX bit 27
  // Without OSXSAVE, XGETBV itself is an invalid opcode.
  if ((ecx & kOsxsave) == 0) return {};
  std::uint32_t lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return {.osxsave = true, .xcr0 = (std::uint64_t{hi} << 32) | lo};
#else
  return {};
#endif
}

/// The OS saves every XCR0 component in `mask` for this process (false on
/// non-x86 builds).
[[nodiscard]] inline bool os_saves_xstate(std::uint64_t mask) noexcept {
  const Xstate x = read_xstate();
  return xstate_enabled(x.osxsave, x.xcr0, mask);
}

/// CPUID.7.0:EBX feature bits the kernels probe.
inline constexpr std::uint32_t kCpuid7Bmi2 = 1u << 8;
inline constexpr std::uint32_t kCpuid7Avx512f = 1u << 16;
inline constexpr std::uint32_t kCpuid7Adx = 1u << 19;
inline constexpr std::uint32_t kCpuid7Avx512ifma = 1u << 21;

/// The IFMA Montgomery kernel's verdict (crypto/mont_kernel.cpp): its
/// ladder needs AVX512F and AVX512IFMA with opmask and ZMM state saved,
/// and its single products are the ADX rows, which need ADX and BMI2.
[[nodiscard]] constexpr bool ifma_kernel_usable(std::uint32_t cpuid7_ebx,
                                                Xstate x) noexcept {
  constexpr std::uint32_t kNeed =
      kCpuid7Bmi2 | kCpuid7Avx512f | kCpuid7Adx | kCpuid7Avx512ifma;
  return (cpuid7_ebx & kNeed) == kNeed &&
         xstate_enabled(x.osxsave, x.xcr0, kXcr0Avx512);
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
