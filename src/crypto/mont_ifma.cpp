// AVX-512 IFMA shared-exponent ladder: eight Montgomery exponentiations per
// pass, one per 64-bit lane, all raised to one exponent. The one
// translation unit compiled with -mavx512f -mavx512ifma (CMakeLists.txt);
// mont_kernel.cpp reaches it only where CPUID reports AVX512F and
// AVX512IFMA and XCR0 shows that the OS saves opmask and ZMM state.
//
// Layout (Gueron and Krasnov, "Accelerating Big Integer Arithmetic Using
// Intel IFMA Extensions", ARITH 2016): numbers are in radix 2^52, and
// vector v[j] holds limb j of all eight lanes' numbers, so one
// vpmadd52luq / vpmadd52huq pair adds the low and high 52 bits of eight
// 52x52-bit products into eight 64-bit accumulators. The lanes share the
// modulus, so N's limbs are broadcasts, and the exponent, so the ladder's
// control flow is scalar.
//
// Almost Montgomery multiplication: with R = 2^(52L) and 4N < R, inputs
// below 2N give a product below 2N, so the ladder never subtracts N; one
// canonicalizing subtraction runs after leaving the domain. Inside a
// product the accumulators are not normalized: row i adds at most four
// 52-bit terms to each limb, 4L * 2^52 < 2^60 for L <= 40, and one carry
// pass at the end brings every limb below 2^52 again (IFMA reads only
// bits 0-51 of its multiplicands, so the next product needs that).
#include "crypto/mont_kernel.hpp"

#if defined(EYW_HAVE_IFMA_KERNEL)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace eyw::crypto::detail {
namespace {

using u64 = std::uint64_t;
using std::size_t;

constexpr u64 kMask52 = (u64{1} << 52) - 1;

inline __m512i madd_lo(__m512i acc, __m512i x, __m512i y) {
  return _mm512_madd52lo_epu64(acc, x, y);
}
inline __m512i madd_hi(__m512i acc, __m512i x, __m512i y) {
  return _mm512_madd52hi_epu64(acc, x, y);
}

/// out <- a * b * R^-1 mod N, below 2N, limbs below 2^52; a and b below
/// 2N with limbs below 2^52. `out` may alias `a` or `b`.
///
/// Row i adds a[i] * b and m * N into the window t[i .. i+L], with m
/// chosen so that limb t[i] becomes a multiple of 2^52; its carry moves
/// up to t[i+1], and the window walks one limb, which is the division by
/// 2^52. After L rows the product sits in t[L .. 2L-1].
template <size_t L>
void amm(const __m512i* a, const __m512i* b, __m512i* out, const u64* n,
         __m512i k0) {
  __m512i t[2 * L];
  for (size_t j = 0; j < 2 * L; ++j) t[j] = _mm512_setzero_si512();
#pragma GCC unroll 10
  for (size_t i = 0; i < L; ++i) {
    __m512i* w = t + i;
    const __m512i ai = a[i];
    w[0] = madd_lo(w[0], ai, b[0]);
    const __m512i m = madd_lo(_mm512_setzero_si512(), w[0], k0);
#pragma GCC unroll 40
    for (size_t j = 0; j < L; ++j) {
      const __m512i nj = _mm512_set1_epi64(static_cast<long long>(n[j]));
      if (j > 0) w[j] = madd_lo(w[j], ai, b[j]);
      w[j] = madd_lo(w[j], m, nj);
      w[j + 1] = madd_hi(w[j + 1], ai, b[j]);
      w[j + 1] = madd_hi(w[j + 1], m, nj);
    }
    w[1] = _mm512_add_epi64(w[1], _mm512_srli_epi64(w[0], 52));
  }
  // The product is below 2N < R, so the carry out of the top limb is 0.
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kMask52));
  __m512i carry = _mm512_setzero_si512();
  for (size_t j = 0; j < L; ++j) {
    const __m512i v = _mm512_add_epi64(t[L + j], carry);
    out[j] = _mm512_and_si512(v, mask);
    carry = _mm512_srli_epi64(v, 52);
  }
}

template <size_t L>
void ladder(const MontLadderModulus& m, const u64* bases,
            const std::uint8_t* digits, size_t windows, size_t window,
            u64* out) {
  const u64* n = m.n.data();
  const __m512i k0 = _mm512_set1_epi64(static_cast<long long>(m.k0));
  // Lane-major numbers in, limb-major vectors out: x[j] lane i holds limb
  // j of bases[i].
  const __m512i stride = _mm512_set_epi64(7 * L, 6 * L, 5 * L, 4 * L,
                                          3 * L, 2 * L, L, 0);
  __m512i x[L], rr[L], acc[L];
  for (size_t j = 0; j < L; ++j) {
    x[j] = _mm512_i64gather_epi64(stride, bases + j, 8);
    rr[j] = _mm512_set1_epi64(static_cast<long long>(m.rr[j]));
  }

  // table[d] = base^d in the domain, for every digit value d >= 1.
  __m512i table[16][L];
  amm<L>(x, rr, table[1], n, k0);
  const size_t entries = size_t{1} << window;
  for (size_t d = 2; d < entries; ++d)
    amm<L>(table[d - 1], table[1], table[d], n, k0);

  for (size_t j = 0; j < L; ++j) acc[j] = table[digits[0]][j];
  for (size_t w = 1; w < windows; ++w) {
    for (size_t s = 0; s < window; ++s) amm<L>(acc, acc, acc, n, k0);
    if (digits[w] != 0) amm<L>(acc, table[digits[w]], acc, n, k0);
  }

  // Leave the domain (a product with 1 lands at or below N), then
  // subtract N from the lanes that reached it.
  __m512i one[L];
  one[0] = _mm512_set1_epi64(1);
  for (size_t j = 1; j < L; ++j) one[j] = _mm512_setzero_si512();
  amm<L>(acc, one, acc, n, k0);
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kMask52));
  __m512i diff[L];
  __m512i borrow = _mm512_setzero_si512();
  for (size_t j = 0; j < L; ++j) {
    const __m512i nj = _mm512_set1_epi64(static_cast<long long>(n[j]));
    const __m512i d =
        _mm512_sub_epi64(_mm512_sub_epi64(acc[j], nj), borrow);
    borrow = _mm512_srli_epi64(d, 63);
    diff[j] = _mm512_and_si512(d, mask);
  }
  const __mmask8 at_least_n =
      _mm512_cmpeq_epi64_mask(borrow, _mm512_setzero_si512());
  for (size_t j = 0; j < L; ++j) {
    acc[j] = _mm512_mask_mov_epi64(acc[j], at_least_n, diff[j]);
    _mm512_i64scatter_epi64(out + j, stride, acc[j], 8);
  }
}

constexpr bool dispatched_widths_are_instantiated() {
  for (const std::size_t limbs : kMontLadderLimbs) {
    if (limbs != 5 && limbs != 10 && limbs != 20 && limbs != 40)
      return false;
  }
  return true;
}
static_assert(dispatched_widths_are_instantiated(),
              "every kMontLadderLimbs entry needs a case in ifma_ladder");

}  // namespace

void ifma_ladder(const MontLadderModulus& m, const std::uint64_t* bases,
                 const std::uint8_t* digits, std::size_t windows,
                 std::size_t window, std::uint64_t* out) {
  static_assert(kMontLanes == 8, "one lane per 64-bit element of a zmm");
  switch (m.limbs) {
    case 5: return ladder<5>(m, bases, digits, windows, window, out);
    case 10: return ladder<10>(m, bases, digits, windows, window, out);
    case 20: return ladder<20>(m, bases, digits, windows, window, out);
    case 40: return ladder<40>(m, bases, digits, windows, window, out);
    default: __builtin_unreachable();  // kMontLadderLimbs only
  }
}

}  // namespace eyw::crypto::detail

#endif  // EYW_HAVE_IFMA_KERNEL
