// AVX-512 blinding pad fold — the one translation unit compiled with
// -mavx512f (CMakeLists.txt). Never called unless CPUID reports AVX-512F
// and XCR0 shows that the OS saves opmask and ZMM state
// (sha256_kernel.cpp gates dispatch).
//
// A pad's compressions are independent one-block messages that differ
// only in the counter words, which is the case multi-buffer hashing
// handles with one message per SIMD lane (Gueron and Krasnov,
// "Parallelizing message schedules to accelerate the computations of
// hash functions", J. Cryptographic Engineering 2012). Each pass hashes
// counter blocks c0 .. c0+15, lane i holding block c0+i:
//   * Rounds 0-7 see only message words W0-W7, the seed, so they run once
//     per pad in scalar code and every pass starts from their state.
//   * Rounds 8-63 run on 16 lanes. vprord does the rotations and
//     vpternlogd each three-input xor, Ch and Maj in one instruction.
//   * A transpose turns the eight state vectors (word j of 16 blocks) into
//     eight vectors of 16 consecutive cells, which fold into `acc` with
//     one add or subtract each; the last pass masks off cells past the end.
// The arithmetic is the FIPS 180-4 recurrence lane by lane, so the cells
// are bit-identical to the portable kernel's.
#include "crypto/sha256_kernel.hpp"

#if defined(EYW_HAVE_AVX512_SHA256)

#include <immintrin.h>

namespace eyw::crypto {
namespace {

using detail::kSha256Iv;
using detail::kSha256K;

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

inline __m512i add(__m512i a, __m512i b) { return _mm512_add_epi32(a, b); }

inline __m512i splat(std::uint32_t v) {
  return _mm512_set1_epi32(static_cast<int>(v));
}

// vpternlogd truth tables: operand bits are 0xF0, 0xCC, 0xAA.
constexpr int kXor3 = 0x96;
constexpr int kCh = 0xCA;   // e ? f : g
constexpr int kMaj = 0xE8;  // majority of a, b, c

inline __m512i big_sigma0(__m512i a) {
  return _mm512_ternarylogic_epi32(_mm512_ror_epi32(a, 2),
                                   _mm512_ror_epi32(a, 13),
                                   _mm512_ror_epi32(a, 22), kXor3);
}

inline __m512i big_sigma1(__m512i e) {
  return _mm512_ternarylogic_epi32(_mm512_ror_epi32(e, 6),
                                   _mm512_ror_epi32(e, 11),
                                   _mm512_ror_epi32(e, 25), kXor3);
}

inline __m512i small_sigma0(__m512i w) {
  return _mm512_ternarylogic_epi32(_mm512_ror_epi32(w, 7),
                                   _mm512_ror_epi32(w, 18),
                                   _mm512_srli_epi32(w, 3), kXor3);
}

inline __m512i small_sigma1(__m512i w) {
  return _mm512_ternarylogic_epi32(_mm512_ror_epi32(w, 17),
                                   _mm512_ror_epi32(w, 19),
                                   _mm512_srli_epi32(w, 10), kXor3);
}

// One round with the roles passed in rotated order, so eight calls in a
// row cycle the working variables without a single move.
inline void round_step(__m512i a, __m512i b, __m512i c, __m512i& d, __m512i e,
                       __m512i f, __m512i g, __m512i& h, __m512i k_plus_w) {
  const __m512i t1 =
      add(add(h, big_sigma1(e)),
          add(_mm512_ternarylogic_epi32(e, f, g, kCh), k_plus_w));
  d = add(d, t1);
  h = add(t1, add(big_sigma0(a), _mm512_ternarylogic_epi32(a, b, c, kMaj)));
}

// Rounds 8..63 of 16 lanes. `w` holds message words W0..W15 and is
// overwritten by the schedule; `s` goes in as the state after round 7 and
// comes out as the working variables after round 63.
inline void rounds_8_to_63(__m512i s[8], __m512i w[16]) {
  __m512i a = s[0], b = s[1], c = s[2], d = s[3];
  __m512i e = s[4], f = s[5], g = s[6], h = s[7];
  const auto kw = [&](int t) {
    if (t >= 16) {
      w[t & 15] = add(add(w[t & 15], small_sigma0(w[(t - 15) & 15])),
                      add(w[(t - 7) & 15], small_sigma1(w[(t - 2) & 15])));
    }
    return add(w[t & 15], splat(kSha256K[t]));
  };
#pragma GCC unroll 7
  for (int t = 8; t < 64; t += 8) {
    round_step(a, b, c, d, e, f, g, h, kw(t));
    round_step(h, a, b, c, d, e, f, g, kw(t + 1));
    round_step(g, h, a, b, c, d, e, f, kw(t + 2));
    round_step(f, g, h, a, b, c, d, e, kw(t + 3));
    round_step(e, f, g, h, a, b, c, d, kw(t + 4));
    round_step(d, e, f, g, h, a, b, c, kw(t + 5));
    round_step(c, d, e, f, g, h, a, b, kw(t + 6));
    round_step(b, c, d, e, f, g, h, a, kw(t + 7));
  }
  s[0] = a;
  s[1] = b;
  s[2] = c;
  s[3] = d;
  s[4] = e;
  s[5] = f;
  s[6] = g;
  s[7] = h;
}

// v[j] holds state word j of blocks 0..15; afterwards v[k] holds cells
// 16k .. 16k+15, i.e. the eight words of block 2k, then of block 2k+1.
inline void transpose_to_cells(__m512i v[8]) {
  // Within each 128-bit chunk c: pairs, then quads of words of one block.
  const __m512i t0 = _mm512_unpacklo_epi32(v[0], v[1]);
  const __m512i t1 = _mm512_unpackhi_epi32(v[0], v[1]);
  const __m512i t2 = _mm512_unpacklo_epi32(v[2], v[3]);
  const __m512i t3 = _mm512_unpackhi_epi32(v[2], v[3]);
  const __m512i t4 = _mm512_unpacklo_epi32(v[4], v[5]);
  const __m512i t5 = _mm512_unpackhi_epi32(v[4], v[5]);
  const __m512i t6 = _mm512_unpacklo_epi32(v[6], v[7]);
  const __m512i t7 = _mm512_unpackhi_epi32(v[6], v[7]);
  // q[r] chunk c = words 0-3 of block 4c+r; q[4+r] chunk c = words 4-7.
  const __m512i q[8] = {
      _mm512_unpacklo_epi64(t0, t2), _mm512_unpackhi_epi64(t0, t2),
      _mm512_unpacklo_epi64(t1, t3), _mm512_unpackhi_epi64(t1, t3),
      _mm512_unpacklo_epi64(t4, t6), _mm512_unpackhi_epi64(t4, t6),
      _mm512_unpacklo_epi64(t5, t7), _mm512_unpackhi_epi64(t5, t7)};
  // lo[r] = blocks r and 4+r, hi[r] = blocks 8+r and 12+r, whole.
  const __m512i idx_lo = _mm512_setr_epi32(0, 1, 2, 3, 16, 17, 18, 19, 4, 5,
                                           6, 7, 20, 21, 22, 23);
  const __m512i idx_hi = _mm512_setr_epi32(8, 9, 10, 11, 24, 25, 26, 27, 12,
                                           13, 14, 15, 28, 29, 30, 31);
  __m512i lo[4], hi[4];
  for (int r = 0; r < 4; ++r) {
    lo[r] = _mm512_permutex2var_epi32(q[r], idx_lo, q[4 + r]);
    hi[r] = _mm512_permutex2var_epi32(q[r], idx_hi, q[4 + r]);
  }
  // Pair consecutive blocks: low halves (0x44) or high halves (0xEE).
  v[0] = _mm512_shuffle_i32x4(lo[0], lo[1], 0x44);  // blocks 0, 1
  v[1] = _mm512_shuffle_i32x4(lo[2], lo[3], 0x44);  // blocks 2, 3
  v[2] = _mm512_shuffle_i32x4(lo[0], lo[1], 0xEE);  // blocks 4, 5
  v[3] = _mm512_shuffle_i32x4(lo[2], lo[3], 0xEE);  // blocks 6, 7
  v[4] = _mm512_shuffle_i32x4(hi[0], hi[1], 0x44);  // blocks 8, 9
  v[5] = _mm512_shuffle_i32x4(hi[2], hi[3], 0x44);  // blocks 10, 11
  v[6] = _mm512_shuffle_i32x4(hi[0], hi[1], 0xEE);  // blocks 12, 13
  v[7] = _mm512_shuffle_i32x4(hi[2], hi[3], 0xEE);  // blocks 14, 15
}

}  // namespace

namespace detail {

void avx512_pad_fold(std::uint32_t* acc, const std::uint8_t* seed,
                     std::size_t cells, bool positive) {
  std::uint32_t seed_w[8];
  for (int i = 0; i < 8; ++i) {
    seed_w[i] = (static_cast<std::uint32_t>(seed[4 * i]) << 24) |
                (static_cast<std::uint32_t>(seed[4 * i + 1]) << 16) |
                (static_cast<std::uint32_t>(seed[4 * i + 2]) << 8) |
                static_cast<std::uint32_t>(seed[4 * i + 3]);
  }
  // Rounds 0-7, once per pad.
  std::array<std::uint32_t, 8> pre = kSha256Iv;
  for (int t = 0; t < 8; ++t) {
    const std::uint32_t e = pre[4], a = pre[0];
    const std::uint32_t t1 = pre[7] +
                             (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                             ((e & pre[5]) ^ (~e & pre[6])) + kSha256K[t] +
                             seed_w[t];
    const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                             ((a & pre[1]) ^ (a & pre[2]) ^ (pre[1] & pre[2]));
    for (int i = 7; i > 0; --i) pre[i] = pre[i - 1];
    pre[4] += t1;
    pre[0] = t1 + t2;
  }

  const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11, 12, 13, 14, 15);
  for (std::uint64_t c0 = 0; cells > 0; c0 += 16) {
    // c0 is a multiple of 16, and so is 2^32: all lanes share W8.
    __m512i w[16];
    for (int i = 0; i < 8; ++i) w[i] = splat(seed_w[i]);
    w[8] = splat(static_cast<std::uint32_t>(c0 >> 32));
    w[9] = add(splat(static_cast<std::uint32_t>(c0)), lane);
    w[10] = splat(kPadW10);
    w[11] = w[12] = w[13] = w[14] = _mm512_setzero_si512();
    w[15] = splat(kPadW15);
    __m512i s[8];
    for (int i = 0; i < 8; ++i) s[i] = splat(pre[i]);
    rounds_8_to_63(s, w);
    for (int i = 0; i < 8; ++i) s[i] = add(s[i], splat(kSha256Iv[i]));
    transpose_to_cells(s);

    const std::size_t take = cells < 128 ? cells : 128;
    for (std::size_t k = 0; k * 16 < take; ++k) {
      const std::size_t n = take - k * 16;
      const __mmask16 mask =
          n >= 16 ? __mmask16{0xFFFF}
                  : static_cast<__mmask16>((1u << n) - 1);
      std::uint32_t* p = acc + k * 16;
      const __m512i cur = _mm512_maskz_loadu_epi32(mask, p);
      _mm512_mask_storeu_epi32(p, mask,
                               positive ? add(cur, s[k])
                                        : _mm512_sub_epi32(cur, s[k]));
    }
    acc += take;
    cells -= take;
  }
}

}  // namespace detail

}  // namespace eyw::crypto

#endif  // EYW_HAVE_AVX512_SHA256
