// util::crc32 is the journal's per-record and the checkpoint's whole-file
// check, so its output is part of the on-disk format: pinned here against
// the standard check value, a bit-at-a-time reference at every length and
// alignment the slicing loop distinguishes, seed chaining, and one golden
// journal segment written by the byte-at-a-time implementation.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "storage/journal.hpp"
#include "util/crc32.hpp"

namespace eyw::util {
namespace {

constexpr std::array<std::uint8_t, 9> kCheckInput{'1', '2', '3', '4', '5',
                                                  '6', '7', '8', '9'};
static_assert(crc32(kCheckInput) == 0xCBF43926u);

/// One bit per step, straight from the reflected polynomial.
std::uint32_t reference_crc32(std::span<const std::uint8_t> bytes,
                              std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (const std::uint8_t b : bytes) {
    c ^= b;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

std::vector<std::uint8_t> pattern(std::size_t len) {
  std::vector<std::uint8_t> out(len);
  std::uint32_t x = 0x9E3779B9u;
  for (auto& b : out) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<std::uint8_t>(x);
  }
  return out;
}

TEST(Crc32, CheckValue) {
  EXPECT_EQ(crc32(kCheckInput), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, SeedChainsAtEverySplitPoint) {
  const std::vector<std::uint8_t> bytes = pattern(100);
  const std::span<const std::uint8_t> all(bytes);
  const std::uint32_t whole = crc32(all);
  for (std::size_t split = 0; split <= all.size(); ++split)
    EXPECT_EQ(crc32(all.subspan(split), crc32(all.first(split))), whole)
        << "split at " << split;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  const std::vector<std::uint8_t> bytes = pattern(300 + 16);
  for (std::size_t align = 0; align < 16; ++align) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::span<const std::uint8_t> s(bytes.data() + align, len);
      ASSERT_EQ(crc32(s), reference_crc32(s))
          << "len " << len << " align " << align;
      ASSERT_EQ(crc32(s, 0xDEADBEEFu), reference_crc32(s, 0xDEADBEEFu))
          << "seeded, len " << len << " align " << align;
    }
  }
}

// A segment holding "123456789" and a 48-byte payload, as the
// byte-at-a-time CRC wrote it: 16-byte 'EYWJ' v1 header at base 0, then
// per record u32 length and u32 CRC (little-endian) and the payload.
constexpr std::array<std::uint8_t, 89> kGoldenSegment{
    0x45, 0x59, 0x57, 0x4a, 0x01, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00,
    // record 0: length 9, CRC 0xCBF43926
    0x09, 0x00, 0x00, 0x00, 0x26, 0x39, 0xf4, 0xcb,
    0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
    // record 1: length 48, CRC 0xFF6682A2
    0x30, 0x00, 0x00, 0x00, 0xa2, 0x82, 0x66, 0xff,
    0x0b, 0x30, 0x55, 0x7a, 0x9f, 0xc4, 0xe9, 0x0e, 0x33, 0x58, 0x7d, 0xa2,
    0xc7, 0xec, 0x11, 0x36, 0x5b, 0x80, 0xa5, 0xca, 0xef, 0x14, 0x39, 0x5e,
    0x83, 0xa8, 0xcd, 0xf2, 0x17, 0x3c, 0x61, 0x86, 0xab, 0xd0, 0xf5, 0x1a,
    0x3f, 0x64, 0x89, 0xae, 0xd3, 0xf8, 0x1d, 0x42, 0x67, 0x8c, 0xb1, 0xd6};

std::vector<std::uint8_t> golden_payload_1() {
  std::vector<std::uint8_t> p(48);
  for (std::size_t i = 0; i < p.size(); ++i)
    p[i] = static_cast<std::uint8_t>(i * 37 + 11);
  return p;
}

/// mkdtemp under the working directory, removed on destruction.
struct ScratchDir {
  std::string path;
  ScratchDir() {
    char tmpl[] = "eyw-crc32-test.XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) throw std::runtime_error("mkdtemp");
    path = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

TEST(Crc32, GoldenJournalSegmentIsStable) {
  const std::vector<std::uint8_t> payload0(kCheckInput.begin(),
                                           kCheckInput.end());
  const std::vector<std::uint8_t> payload1 = golden_payload_1();
  EXPECT_EQ(crc32(payload1), 0xFF6682A2u);

  // Writing the two records reproduces the golden bytes exactly.
  ScratchDir written;
  {
    storage::Journal journal(written.path);
    const std::span<const std::uint8_t> run[] = {payload0, payload1};
    EXPECT_EQ(journal.append(run), 0u);
    journal.sync();
  }
  std::ifstream in(written.path + "/wal-00000000000000000000.seg",
                   std::ios::binary);
  const std::vector<std::uint8_t> bytes(std::istreambuf_iterator<char>(in),
                                        {});
  EXPECT_EQ(bytes, std::vector<std::uint8_t>(kGoldenSegment.begin(),
                                             kGoldenSegment.end()));

  // And the golden bytes replay as those two records.
  ScratchDir golden;
  {
    std::ofstream out(golden.path + "/wal-00000000000000000000.seg",
                      std::ios::binary);
    out.write(reinterpret_cast<const char*>(kGoldenSegment.data()),
              kGoldenSegment.size());
  }
  storage::Journal journal(golden.path);
  EXPECT_EQ(journal.next_index(), 2u);
  std::vector<std::vector<std::uint8_t>> seen;
  const auto stats = journal.replay(
      0, [&](std::uint64_t, std::span<const std::uint8_t> payload) {
        seen.emplace_back(payload.begin(), payload.end());
      });
  EXPECT_TRUE(stats.clean);
  EXPECT_EQ(stats.torn_bytes, 0u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], payload0);
  EXPECT_EQ(seen[1], payload1);
}

}  // namespace
}  // namespace eyw::util
