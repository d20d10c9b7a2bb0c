// Runtime-dispatched SHA-256 kernels, mirroring the Montgomery
// (crypto/mont_kernel.hpp) and sketch-cell (sketch/sketch_kernel.hpp)
// arrangement: portable scalar code that is always available and always
// right, plus x86 backends selected by CPUID at first use.
//
// Two entries:
//   * `compress` — the FIPS 180-4 compression behind every Sha256
//     instance (HMAC, the OPRF's hash-to-group, key derivation).
//   * `pad_fold` — the blinding hot loop (crypto/blinding.cpp). One
//     counter-mode pad per roster peer, one compression per 8 cells, tens
//     of thousands of compressions per report. The eight state words after
//     each compression are the next eight cells, so the fold never goes
//     through bytes. `sha256_expand` of a 32-byte seed (the OPRF's
//     hash-to-group) folds into zeroed cells, so the pad block format
//     lives here alone.
//
// Backends:
//   * portable — scalar; the differential oracle for the others.
//   * shani — SHA-NI (sha256_shani.cpp, -msha -msse4.1): both entries,
//     one message at a time.
//   * avx512 — AVX-512F (sha256_avx512.cpp, -mavx512f): `pad_fold` hashes
//     16 counter blocks per pass, one per lane. Its `compress` is SHA-NI's
//     when the CPU has it and the portable one otherwise (Skylake-SP and
//     Cascade Lake have AVX-512F but no SHA-NI). Over SHA-NI, streams
//     below 9 blocks fold on SHA-NI too, one message at a time
//     (sha256_kernel.cpp).
//
// `EYW_SHA256_KERNEL=portable|shani` forces a backend (read once); SHA-NI
// on a CPU without it degrades to portable. Any other value, or none,
// means auto: avx512, then shani, then portable. Non-x86 builds have
// portable only.
//
// `compress` contract: `state` is the eight working variables a..h;
// `blocks` points at `count` contiguous 64-byte message blocks, with no
// alignment requirement, folded into `state` in order (Merkle–Damgård
// chaining).
//
// `pad_fold` contract: for m in [0, cells),
//   acc[m] += P[m]   if positive,   acc[m] -= P[m]   otherwise
// (wrapping), where P[m] is the m-th big-endian u32 of
//   SHA256(seed ‖ 0) ‖ SHA256(seed ‖ 1) ‖ ...
// with `seed` 32 bytes and each counter 8 bytes big-endian. Every backend
// produces exactly these cells:
//   * `acc` needs only u32 alignment; it must not overlap `seed`.
//   * Any `cells` is valid: 0 touches nothing, and a count that is not a
//     multiple of 8 (one block) or 128 (one AVX-512 pass) reads and writes
//     acc[0, cells) only.
//   * The counter's high word (message word W8) is handled by the kernel,
//     not assumed 0. The portable and SHA-NI backends carry a 64-bit block
//     counter. The AVX-512 backend starts each pass at a multiple of 16
//     blocks, and 2^32 is a multiple of 16, so the 16 lanes of a pass
//     always share one high word.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace eyw::crypto {

struct Sha256Kernel {
  void (*compress)(std::uint32_t state[8], const std::uint8_t* blocks,
                   std::size_t count);
  void (*pad_fold)(std::uint32_t* acc, const std::uint8_t* seed,
                   std::size_t cells, bool positive);
  const char* name;  // "portable" | "shani" | "avx512"
};

/// The scalar kernel; always available, the differential oracle for every
/// other backend.
[[nodiscard]] const Sha256Kernel& portable_sha256_kernel() noexcept;

/// The SHA-NI kernel, or nullptr when not compiled in or the CPU lacks
/// the SHA extensions.
[[nodiscard]] const Sha256Kernel* shani_sha256_kernel() noexcept;

/// The AVX-512 kernel, or nullptr when not compiled in, the CPU lacks
/// AVX-512F or the OS does not save opmask and ZMM state.
[[nodiscard]] const Sha256Kernel* avx512_sha256_kernel() noexcept;

/// CPUID leaf 7 SHA-extensions probe (false on non-x86 builds).
[[nodiscard]] bool cpu_supports_sha_ni() noexcept;

/// CPUID leaf 7 AVX-512F probe plus the XCR0 check that the OS saves
/// opmask and ZMM state (false on non-x86 builds).
[[nodiscard]] bool cpu_supports_avx512f() noexcept;

/// The kernel every Sha256 instance and every blinding pad uses, chosen
/// once per process (see EYW_SHA256_KERNEL above).
[[nodiscard]] const Sha256Kernel& active_sha256_kernel() noexcept;

namespace detail {

/// FIPS 180-4 round constants and initial hash value, shared by every
/// backend.
alignas(64) inline constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline constexpr std::array<std::uint32_t, 8> kSha256Iv = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// Message words 10 and 15 of every pad block: the seed (32 bytes) and the
/// counter (8 bytes) fill words 0-9, then the 0x80 terminator, zeros, and
/// the 320-bit message length.
inline constexpr std::uint32_t kPadW10 = 0x80000000u;
inline constexpr std::uint32_t kPadW15 = 320;

}  // namespace detail

}  // namespace eyw::crypto
