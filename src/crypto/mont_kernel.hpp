// Montgomery multiplication kernels behind a runtime-dispatched interface.
//
// The CIOS inner loop is the single hottest path of the protocol (every
// OPRF evaluation, blinding and DH pair secret bottoms out in it), so it
// exists in three implementations:
//
//  * portable — the u128 dual-carry-chain FIOS loop, compiled for the
//    baseline target. Always present; also the agreement oracle.
//  * adx — BMI2/ADX intrinsics (`_mulx_u64` + `adcx`/`adox` dual carry
//    chains) compiled as its own translation unit with `-madx -mbmi2`,
//    selected only when CPUID reports both features at runtime.
//  * ifma — the adx rows for single products, plus a shared-exponent
//    ladder that raises eight bases, one per 64-bit lane, to one exponent
//    in radix 2^52 (mont_ifma.cpp, `-mavx512f -mavx512ifma`). Selected
//    where CPUID reports AVX512F, AVX512IFMA, ADX and BMI2 and XCR0 shows
//    that the OS saves opmask and ZMM state.
//
// Selection happens once per process in active_mont_kernel(): ifma, then
// adx, then portable. The environment variable EYW_MONT_KERNEL
// ("portable" | "adx" | "auto") overrides it: "adx" pins the scalar ADX
// kernel, so a batch runs one scalar ladder per base, and "portable" pins
// the u128 loop. That is how CI keeps the scalar paths tested on hardware
// that would otherwise always take the vector ladder. A Montgomery
// context captures the kernel pointer at construction, so dispatch costs
// nothing per multiplication.
//
// Kernel contract (mul and sqr):
//  * `n` has L limbs, odd, n[L-1] != 0; n0inv == -n^-1 mod 2^64.
//  * inputs are < N (L limbs); output is the Montgomery product < N.
//  * `scratch` holds at least mont_kernel_scratch_limbs(L) limbs and may
//    not alias any other argument; `out` may alias `a` or `b`.
//
// Ladder contract (kernels with a vector unit; nullptr otherwise): every
// lane shares the modulus and the exponent, so the exponent arrives as
// its window digits, most significant first, digits[0] != 0, each below
// 2^window with window 1, 2 or 4. `bases` and `out` hold kMontLanes
// numbers of `m.limbs` radix-2^52 limbs each, lane i at [i * m.limbs];
// every base is < N, and out[i] = bases[i]^exp mod N, canonical (< N).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace eyw::crypto {

/// Lanes of one vector ladder pass (64-bit lanes of a 512-bit register).
inline constexpr std::size_t kMontLanes = 8;

/// A modulus as the vector ladder sees it: radix-2^52 limbs, and the
/// constants of Montgomery reduction with R = 2^(52 * limbs). Built per
/// batch by the Montgomery context (crypto/montgomery.cpp).
struct MontLadderModulus {
  std::size_t limbs = 0;          ///< ladder width; 0 = no ladder
  std::vector<std::uint64_t> n;   ///< N
  std::vector<std::uint64_t> rr;  ///< R^2 mod N: the domain-entry factor
  std::uint64_t k0 = 0;           ///< -N^-1 mod 2^52
};

struct MontKernel {
  /// out <- a * b * R^-1 mod N.
  void (*mul)(const std::uint64_t* a, const std::uint64_t* b,
              std::uint64_t* out, std::uint64_t* scratch,
              const std::uint64_t* n, std::size_t L,
              std::uint64_t n0inv);
  /// out <- a * a * R^-1 mod N (dedicated squaring; ~25% fewer multiplies).
  void (*sqr)(const std::uint64_t* a, std::uint64_t* out,
              std::uint64_t* scratch, const std::uint64_t* n, std::size_t L,
              std::uint64_t n0inv);
  /// out[i] <- bases[i]^exp mod N for kMontLanes lanes (see above), or
  /// nullptr when the kernel has no vector ladder.
  void (*ladder)(const MontLadderModulus& m, const std::uint64_t* bases,
                 const std::uint8_t* digits, std::size_t windows,
                 std::size_t window, std::uint64_t* out);
  /// Stable identifier ("portable", "adx", "ifma") — surfaces in benches
  /// and the BENCH_*.json trajectory artifacts.
  const char* name;
};

/// Scratch limbs either kernel may touch for an L-limb modulus.
[[nodiscard]] constexpr std::size_t mont_kernel_scratch_limbs(
    std::size_t L) noexcept {
  return 2 * L + 4;
}

/// The widths, in radix-2^52 limbs, the vector ladder is instantiated and
/// dispatched at: the <= 256-bit DH groups, the RSA-CRT halves, RSA-1024
/// public-e work and the RFC 3526 2048-bit group. A width serves moduli
/// below 2^(52L - 2) (4N < R, so products stay below 2N without a
/// subtraction).
inline constexpr std::size_t kMontLadderLimbs[] = {5, 10, 20, 40};

/// The fewest live lanes for which a padded vector pass beats one scalar
/// ladder per lane, at every width (bench_crypto_primitives'
/// ModexpBatch rows; docs/perf.md): one lane runs scalar.
inline constexpr std::size_t kMontLadderMinLanes = 2;

/// The narrowest ladder width for a modulus of `bits` bits, or 0 when the
/// modulus is wider than every width.
[[nodiscard]] constexpr std::size_t mont_ladder_limbs(
    std::size_t bits) noexcept {
  for (const std::size_t limbs : kMontLadderLimbs) {
    if (bits + 2 <= 52 * limbs) return limbs;
  }
  return 0;
}

/// The u128 reference kernel. Always available.
[[nodiscard]] const MontKernel& portable_mont_kernel() noexcept;

/// The BMI2/ADX kernel, or nullptr when it was not compiled in (non-x86
/// build / toolchain without -madx) or the CPU lacks ADX or BMI2.
[[nodiscard]] const MontKernel* adx_mont_kernel() noexcept;

/// The AVX-512 IFMA kernel (adx rows + vector ladder), or nullptr when it
/// was not compiled in or cpu_supports_ifma() is false.
[[nodiscard]] const MontKernel* ifma_mont_kernel() noexcept;

/// CPUID says this CPU executes ADX and BMI2 (independent of whether the
/// kernel was compiled in).
[[nodiscard]] bool cpu_supports_adx() noexcept;

/// CPUID reports AVX512F, AVX512IFMA, ADX and BMI2, and XCR0 shows that
/// the OS saves opmask and ZMM state (util::ifma_kernel_usable).
[[nodiscard]] bool cpu_supports_ifma() noexcept;

/// The kernel new Montgomery contexts capture: ifma, then adx, then
/// portable, whichever is compiled in and supported first;
/// EYW_MONT_KERNEL overrides (read once, at first use).
[[nodiscard]] const MontKernel& active_mont_kernel() noexcept;

}  // namespace eyw::crypto
