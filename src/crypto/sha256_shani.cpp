// SHA-NI SHA-256 kernel — the one translation unit compiled with
// -msha -msse4.1 (CMakeLists.txt). Never called unless CPUID reports the
// SHA extensions (sha256_kernel.cpp gates dispatch), so the intrinsics
// here cannot fault on older CPUs.
//
// The sha256rnds2 instruction runs two rounds per issue on the packed
// (ABEF, CDGH) state layout; sha256msg1/msg2 do the message-schedule
// sigma work four lanes at a time. One compression drops from ~64 scalar
// round bodies to 32 rnds2 instructions, and the chaining math is the exact
// FIPS 180-4 recurrence, so digests are bit-identical to the portable
// loop.
//
// The pad fold runs the same rounds with the state kept packed: rounds
// 0-7 see only the seed, so they run once per pad, and each counter block
// starts from their result. The finished state is unpacked once into the
// eight cells it folds into; no digest bytes are written.
#include "crypto/sha256_kernel.hpp"

#if defined(EYW_HAVE_SHANI_KERNEL)

#include <immintrin.h>

namespace eyw::crypto {
namespace {

using detail::kSha256Iv;
using detail::kSha256K;

// Big-endian message words -> lane bytes.
inline __m128i load_be_words(const std::uint8_t* p) {
  const __m128i swap = _mm_set_epi64x(
      static_cast<long long>(0x0c0d0e0f08090a0bULL),
      static_cast<long long>(0x0405060700010203ULL));
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), swap);
}

// Four-round groups [first, last) on msg[] = W[0..15] as four vectors.
// Group i consumes msg[i mod 4] (= W[4i..4i+3]) and, while more schedule
// is needed, rotates the next vector forward:
//   W[4(i+1)..] = msg2( msg1(m[i+1], m[i+2]) + alignr(m[i], m[i+3], 4),
//                       m[i] )
// — the standard SHA-NI schedule recurrence, expressed once instead of
// unrolled sixteen times.
inline void round_groups(__m128i& state0, __m128i& state1, __m128i msg[4],
                         int first, int last) {
  for (int i = first; i < last; ++i) {
    __m128i m = _mm_add_epi32(
        msg[i & 3],
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kSha256K[4 * i])));
    state1 = _mm_sha256rnds2_epu32(state1, state0, m);
    m = _mm_shuffle_epi32(m, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, m);
    if (i >= 3 && i < 15) {
      const __m128i carry = _mm_alignr_epi8(msg[i & 3], msg[(i + 3) & 3], 4);
      msg[(i + 1) & 3] = _mm_sha256msg2_epu32(
          _mm_add_epi32(
              _mm_sha256msg1_epu32(msg[(i + 1) & 3], msg[(i + 2) & 3]),
              carry),
          msg[i & 3]);
    }
  }
}

void shani_compress(std::uint32_t state[8], const std::uint8_t* blocks,
                    std::size_t count) {
  // Repack a..h (two plain 4-word vectors) into the (ABEF, CDGH) layout
  // sha256rnds2 works on.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);     // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);          // CDGH

  while (count-- > 0) {
    const __m128i save0 = state0;
    const __m128i save1 = state1;
    __m128i msg[4];
    for (int i = 0; i < 4; ++i) msg[i] = load_be_words(blocks + 16 * i);
    round_groups(state0, state1, msg, 0, 16);
    state0 = _mm_add_epi32(state0, save0);
    state1 = _mm_add_epi32(state1, save1);
    blocks += 64;
  }

  // Back to the plain a..h word order.
  tmp = _mm_shuffle_epi32(state0, 0x1B);     // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);  // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);         // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);            // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

void shani_pad_fold(std::uint32_t* acc, const std::uint8_t* seed,
                    std::size_t cells, bool positive) {
  // The IV in (ABEF, CDGH) layout; _mm_set_epi32 lists lanes high to low.
  const __m128i iv0 = _mm_set_epi32(
      static_cast<int>(kSha256Iv[0]), static_cast<int>(kSha256Iv[1]),
      static_cast<int>(kSha256Iv[4]), static_cast<int>(kSha256Iv[5]));
  const __m128i iv1 = _mm_set_epi32(
      static_cast<int>(kSha256Iv[2]), static_cast<int>(kSha256Iv[3]),
      static_cast<int>(kSha256Iv[6]), static_cast<int>(kSha256Iv[7]));
  // W0..W7 are the seed, W10 the 0x80 terminator, W15 the bit length.
  const __m128i w0 = load_be_words(seed);
  const __m128i w4 = load_be_words(seed + 16);
  const __m128i w12 = _mm_set_epi32(static_cast<int>(detail::kPadW15), 0, 0, 0);

  // Rounds 0-7 depend on the seed only.
  __m128i pre0 = iv0;
  __m128i pre1 = iv1;
  {
    __m128i msg[4] = {w0, w4, _mm_setzero_si128(), _mm_setzero_si128()};
    round_groups(pre0, pre1, msg, 0, 2);
  }

  for (std::uint64_t counter = 0; cells > 0; ++counter) {
    // W8 | W9 | W10 | W11: counter high, counter low, terminator, zero.
    __m128i msg[4] = {
        w0, w4,
        _mm_set_epi32(0, static_cast<int>(detail::kPadW10),
                      static_cast<int>(static_cast<std::uint32_t>(counter)),
                      static_cast<int>(counter >> 32)),
        w12};
    __m128i state0 = pre0;
    __m128i state1 = pre1;
    round_groups(state0, state1, msg, 2, 16);
    state0 = _mm_add_epi32(state0, iv0);
    state1 = _mm_add_epi32(state1, iv1);

    // (ABEF, CDGH) -> cells a..d and e..h.
    const __m128i feba = _mm_shuffle_epi32(state0, 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(state1, 0xB1);
    const __m128i abcd = _mm_blend_epi16(feba, dchg, 0xF0);
    const __m128i efgh = _mm_alignr_epi8(dchg, feba, 8);
    if (cells >= 8) {
      __m128i* lo = reinterpret_cast<__m128i*>(acc);
      __m128i* hi = reinterpret_cast<__m128i*>(acc + 4);
      const __m128i a = _mm_loadu_si128(lo);
      const __m128i b = _mm_loadu_si128(hi);
      _mm_storeu_si128(lo, positive ? _mm_add_epi32(a, abcd)
                                    : _mm_sub_epi32(a, abcd));
      _mm_storeu_si128(hi, positive ? _mm_add_epi32(b, efgh)
                                    : _mm_sub_epi32(b, efgh));
      acc += 8;
      cells -= 8;
    } else {
      std::uint32_t words[8];
      _mm_storeu_si128(reinterpret_cast<__m128i*>(&words[0]), abcd);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(&words[4]), efgh);
      for (std::size_t i = 0; i < cells; ++i)
        acc[i] = positive ? acc[i] + words[i] : acc[i] - words[i];
      cells = 0;
    }
  }
}

constexpr Sha256Kernel kShani{shani_compress, shani_pad_fold, "shani"};

}  // namespace

namespace detail {
const Sha256Kernel& shani_kernel_impl() noexcept { return kShani; }
}  // namespace detail

}  // namespace eyw::crypto

#endif  // EYW_HAVE_SHANI_KERNEL
