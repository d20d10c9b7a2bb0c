// The XCR0 verdict the AVX2 sketch probe and the AVX-512 SHA-256 probe
// share: a kernel on YMM or ZMM registers may run only when the OS has
// enabled XGETBV (CPUID.1:ECX.OSXSAVE) and XCR0 holds every state
// component in the kernel's mask. A probe that reads only the CPUID
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

}  // namespace
}  // namespace eyw::util
