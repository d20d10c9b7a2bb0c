#include "crypto/sha256_kernel.hpp"

#include <cstdlib>
#include <string_view>

#include "util/cpu_features.hpp"

namespace eyw::crypto {

namespace detail {
#if defined(EYW_HAVE_SHANI_KERNEL)
// Defined in sha256_shani.cpp (compiled with -msha -msse4.1).
const Sha256Kernel& shani_kernel_impl() noexcept;
#endif
#if defined(EYW_HAVE_AVX512_SHA256)
// Defined in sha256_avx512.cpp (compiled with -mavx512f).
void avx512_pad_fold(std::uint32_t* acc, const std::uint8_t* seed,
                     std::size_t cells, bool positive);
#endif
}  // namespace detail

namespace {

using detail::kSha256Iv;
using detail::kSha256K;

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

constexpr std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

/// One compression of the message words w[0..15] into `state`; the
/// schedule fills w[16..63] and leaves the message words as they were.
void compress_words(std::uint32_t state[8], std::uint32_t w[64]) {
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 =
        h + s1 + ch + kSha256K[static_cast<std::size_t>(i)] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

void portable_compress(std::uint32_t state[8], const std::uint8_t* blocks,
                       std::size_t count) {
  std::uint32_t w[64];
  for (std::size_t blk = 0; blk < count; ++blk, blocks += 64) {
    for (int i = 0; i < 16; ++i) w[i] = load_be32(blocks + 4 * i);
    compress_words(state, w);
  }
}

void portable_pad_fold(std::uint32_t* acc, const std::uint8_t* seed,
                       std::size_t cells, bool positive) {
  std::uint32_t w[64] = {};
  for (int i = 0; i < 8; ++i) w[i] = load_be32(seed + 4 * i);
  w[10] = detail::kPadW10;
  w[15] = detail::kPadW15;
  for (std::uint64_t counter = 0; cells > 0; ++counter) {
    w[8] = static_cast<std::uint32_t>(counter >> 32);
    w[9] = static_cast<std::uint32_t>(counter);
    std::array<std::uint32_t, 8> st = kSha256Iv;
    compress_words(st.data(), w);
    const std::size_t take = cells < 8 ? cells : 8;
    for (std::size_t i = 0; i < take; ++i)
      acc[i] = positive ? acc[i] + st[i] : acc[i] - st[i];
    acc += take;
    cells -= take;
  }
}

constexpr Sha256Kernel kPortable{portable_compress, portable_pad_fold,
                                 "portable"};

#if defined(EYW_HAVE_AVX512_SHA256)
// One AVX-512 pass costs as much as 16 blocks whether or not the stream
// fills them: ~305 ns on a 4-vCPU Xeon VM with AVX-512 and SHA-NI,
// against ~37 ns a block on SHA-NI and ~270 ns a block on the portable
// compression. Over SHA-NI a stream shorter than the cut runs one message
// at a time instead (the OPRF's 144-byte hash_to_zn expansion: 5 blocks,
// 187 ns on SHA-NI against 313 ns in one pass; docs/perf.md). Over the
// portable compression one pass wins from 2 blocks, and no caller folds
// fewer, so there every stream takes the pass.
constexpr std::size_t kAvx512FromBlocksOverShaNi = 9;

void avx512_pad_fold_over_shani(std::uint32_t* acc, const std::uint8_t* seed,
                                std::size_t cells, bool positive) {
  if ((cells + 7) / 8 < kAvx512FromBlocksOverShaNi)
    return shani_sha256_kernel()->pad_fold(acc, seed, cells, positive);
  detail::avx512_pad_fold(acc, seed, cells, positive);
}
#endif

const Sha256Kernel* resolve_active() noexcept {
  const char* pref = std::getenv("EYW_SHA256_KERNEL");
  const std::string_view want = pref != nullptr ? pref : "auto";
  const Sha256Kernel* const avx512 = avx512_sha256_kernel();
  const Sha256Kernel* const shani = shani_sha256_kernel();
  const Sha256Kernel* pick = nullptr;
  if (want == "portable")
    pick = &kPortable;
  else if (want == "shani")
    pick = shani;
  else
    pick = avx512 != nullptr ? avx512 : shani;
  // A requested backend the build or CPU lacks degrades to portable: the
  // override is a test knob, not a correctness switch, and portable is
  // always right.
  return pick != nullptr ? pick : &kPortable;
}

}  // namespace

const Sha256Kernel& portable_sha256_kernel() noexcept { return kPortable; }

bool cpu_supports_sha_ni() noexcept {
  // SHA-NI works on XMM registers, whose state every x86-64 OS saves.
  constexpr std::uint32_t kShaNi = 1u << 29;  // CPUID.7.0:EBX bit 29
  return (util::cpuid7_ebx() & kShaNi) != 0;
}

bool cpu_supports_avx512f() noexcept {
  return (util::cpuid7_ebx() & util::kCpuid7Avx512f) != 0 &&
         util::os_saves_xstate(util::kXcr0Avx512);
}

const Sha256Kernel* shani_sha256_kernel() noexcept {
#if defined(EYW_HAVE_SHANI_KERNEL)
  static const bool usable = cpu_supports_sha_ni();
  return usable ? &detail::shani_kernel_impl() : nullptr;
#else
  return nullptr;
#endif
}

const Sha256Kernel* avx512_sha256_kernel() noexcept {
#if defined(EYW_HAVE_AVX512_SHA256)
  // Only the pad fold is 16 lanes wide, and over SHA-NI only from the cut
  // above; one message at a time still runs SHA-NI where the CPU has it.
  static const Sha256Kernel kernel =
      shani_sha256_kernel() != nullptr
          ? Sha256Kernel{shani_sha256_kernel()->compress,
                         avx512_pad_fold_over_shani, "avx512"}
          : Sha256Kernel{portable_compress, detail::avx512_pad_fold,
                         "avx512"};
  static const bool usable = cpu_supports_avx512f();
  return usable ? &kernel : nullptr;
#else
  return nullptr;
#endif
}

const Sha256Kernel& active_sha256_kernel() noexcept {
  static const Sha256Kernel* chosen = resolve_active();
  return *chosen;
}

}  // namespace eyw::crypto
