// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte spans.
//
// This is the per-record integrity check of the write-ahead journal and
// the whole-file check of round checkpoints (src/storage/): a torn tail
// from a kill -9 mid-write, a bit flip on disk, or a truncated copy must
// be *detected*, never replayed into round state. CRC-32 is an error
// detector, not an authenticator — the journal directory is trusted
// storage, the adversary model is the filesystem, not a tamperer.
//
// Slicing-by-16 (Kounavis & Berry, ISCC 2005): table k maps a byte to
// the CRC contribution it makes k bytes ahead of the end of a 16-byte
// block, so each block costs 16 independent lookups instead of 16
// dependent ones. The byte-at-a-time loop (table 0 alone) handles the
// tail and is the whole algorithm for inputs under 16 bytes; both give
// bit-identical results for every input, seed and chaining.
//
// Header-only and constexpr so decoders can use it on untrusted bytes
// without reaching for a dependency; the tables are computed at compile
// time. Words are assembled from bytes, so the result does not depend on
// host byte order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace eyw::util {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 16>;

consteval Crc32Tables crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  // t[k][i]: byte i followed by k zero bytes.
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = crc32_tables();

constexpr std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// CRC-32 of `bytes`. `seed` chains partial computations:
/// crc32(ab) == crc32(b, crc32(a)).
[[nodiscard]] constexpr std::uint32_t crc32(
    std::span<const std::uint8_t> bytes, std::uint32_t seed = 0) noexcept {
  const auto& t = detail::kCrc32Tables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 16; p += 16, n -= 16) {
    const std::uint32_t a = c ^ detail::load_le32(p);
    c = t[15][a & 0xFFu] ^ t[14][(a >> 8) & 0xFFu] ^ t[13][(a >> 16) & 0xFFu] ^
        t[12][a >> 24] ^ t[11][p[4]] ^ t[10][p[5]] ^ t[9][p[6]] ^ t[8][p[7]] ^
        t[7][p[8]] ^ t[6][p[9]] ^ t[5][p[10]] ^ t[4][p[11]] ^ t[3][p[12]] ^
        t[2][p[13]] ^ t[1][p[14]] ^ t[0][p[15]];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace eyw::util
