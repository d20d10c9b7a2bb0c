// The XCR0 verdict the AVX2 sketch probe, the AVX-512 SHA-256 probe and
// the IFMA Montgomery probe share: a kernel on YMM or ZMM registers may
// run only when the OS has enabled XGETBV (CPUID.1:ECX.OSXSAVE) and XCR0
// holds every state component in the kernel's mask. A probe that reads only the CPUID
// feature bit would pick a kernel that dies with SIGILL under an OS or
// hypervisor that leaves YMM or ZMM state off.
#include "util/cpu_features.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace eyw::util {
namespace {

static_assert(kXcr0Avx == 0x06);
static_assert(kXcr0Avx512 == 0xE6);

TEST(CpuFeatures, XstateVerdictTable) {
  struct Row {
    bool osxsave;
    std::uint64_t xcr0;
    bool avx;     // verdict for kXcr0Avx
    bool avx512;  // verdict for kXcr0Avx512
  };
  const Row table[] = {
      // XGETBV disabled: no XCR0 reading counts, whatever it says.
      {false, 0x00, false, false},
      {false, 0x07, false, false},
      {false, 0xE7, false, false},
      // x87 only, or x87 + SSE: YMM state is off.
      {true, 0x01, false, false},
      {true, 0x03, false, false},
      // YMM without SSE is not a valid XCR0, and not enough.
      {true, 0x05, false, false},
      // x87 + SSE + YMM: AVX/AVX2 yes, AVX-512 no.
      {true, 0x07, true, false},
      // Each AVX-512 component on its own is not enough.
      {true, 0x27, true, false},
      {true, 0x47, true, false},
      {true, 0x87, true, false},
      {true, 0x67, true, false},
      {true, 0xC7, true, false},
      {true, 0xA7, true, false},
      // Opmask + ZMM_Hi256 + Hi16_ZMM without YMM: neither.
      {true, 0xE3, false, false},
      // Everything AVX-512 needs, with and without MPX/PKRU/AMX bits.
      {true, 0xE7, true, true},
      {true, 0x2FF, true, true},
      {true, 0x602E7, true, true},
      // High XCR0 bits do not stand in for low ones.
      {true, 0xFFFFFFFF00000000ull, false, false},
  };
  for (const Row& r : table) {
    EXPECT_EQ(xstate_enabled(r.osxsave, r.xcr0, kXcr0Avx), r.avx)
        << "osxsave=" << r.osxsave << " xcr0=0x" << std::hex << r.xcr0;
    EXPECT_EQ(xstate_enabled(r.osxsave, r.xcr0, kXcr0Avx512), r.avx512)
        << "osxsave=" << r.osxsave << " xcr0=0x" << std::hex << r.xcr0;
  }
}

TEST(CpuFeatures, IfmaVerdictTable) {
  // The IFMA Montgomery kernel needs four CPUID.7.0:EBX bits (its ladder
  // AVX512F and AVX512IFMA, its single products ADX and BMI2) and, for
  // the ZMM ladder, the AVX-512 XCR0 verdict.
  constexpr std::uint32_t kAll =
      kCpuid7Bmi2 | kCpuid7Avx512f | kCpuid7Adx | kCpuid7Avx512ifma;
  static_assert(kCpuid7Bmi2 == 1u << 8 && kCpuid7Avx512f == 1u << 16 &&
                kCpuid7Adx == 1u << 19 && kCpuid7Avx512ifma == 1u << 21);
  struct Row {
    std::uint32_t ebx;
    bool osxsave;
    std::uint64_t xcr0;
    bool usable;
  };
  const Row table[] = {
      // Every bit and ZMM state saved: usable, whatever else is set.
      {kAll, true, 0xE7, true},
      {0xFFFFFFFFu, true, 0x602E7, true},
      // Any one CPUID bit missing.
      {kAll & ~kCpuid7Bmi2, true, 0xE7, false},
      {kAll & ~kCpuid7Avx512f, true, 0xE7, false},
      {kAll & ~kCpuid7Adx, true, 0xE7, false},
      {kAll & ~kCpuid7Avx512ifma, true, 0xE7, false},
      // AVX512F without IFMA (Skylake-SP), or only the scalar pair.
      {kCpuid7Avx512f | kCpuid7Adx | kCpuid7Bmi2, true, 0xE7, false},
      {kCpuid7Adx | kCpuid7Bmi2, true, 0xE7, false},
      {0, true, 0xE7, false},
      // Every bit, but XGETBV disabled: no XCR0 reading counts.
      {kAll, false, 0xE7, false},
      {kAll, false, 0x00, false},
      // Every bit, but the OS leaves ZMM or opmask state off.
      {kAll, true, 0x07, false},
      {kAll, true, 0x67, false},
      {kAll, true, 0xC7, false},
      {kAll, true, 0xA7, false},
      {kAll, true, 0xE3, false},
  };
  for (const Row& r : table) {
    EXPECT_EQ(ifma_kernel_usable(r.ebx, {.osxsave = r.osxsave, .xcr0 = r.xcr0}),
              r.usable)
        << "ebx=0x" << std::hex << r.ebx << " osxsave=" << r.osxsave
        << " xcr0=0x" << r.xcr0;
  }
}

}  // namespace
}  // namespace eyw::util
