// Differential suite for the SHA-256 kernels. The SHA-NI compression must
// agree bit-for-bit with the portable scalar compression on single
// blocks, multi-block chains and unaligned input; those cases skip
// cleanly when SHA-NI is not compiled in or the CPU lacks it. Every
// available pad_fold backend (portable, shani, avx512) must fold exactly
// the pad an oracle builds from the incremental Sha256 API.
#include "crypto/sha256_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"
#include "util/cpu_features.hpp"
#include "util/rng.hpp"

namespace eyw::crypto {
namespace {

class Sha256KernelDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    shani_ = shani_sha256_kernel();
    if (shani_ == nullptr)
      GTEST_SKIP() << "SHA-NI kernel unavailable (not compiled in or CPU "
                      "lacks SHA extensions) — portable compression is the "
                      "only backend, nothing to differentiate";
  }

  const Sha256Kernel* shani_ = nullptr;
  const Sha256Kernel& portable_ = portable_sha256_kernel();
};

TEST_F(Sha256KernelDifferential, SingleBlockAgreesOnRandomInputs) {
  util::Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint8_t block[64];
    for (std::uint8_t& b : block) b = static_cast<std::uint8_t>(rng.next());
    std::uint32_t want[8], got[8];
    for (int i = 0; i < 8; ++i)
      want[i] = got[i] = static_cast<std::uint32_t>(rng.next());
    portable_.compress(want, block, 1);
    shani_->compress(got, block, 1);
    EXPECT_EQ(0, std::memcmp(want, got, sizeof(want))) << "trial " << trial;
  }
}

TEST_F(Sha256KernelDifferential, MultiBlockChainingAgrees) {
  util::Rng rng(42);
  // Chained compressions over every count a bulk update() might issue,
  // including the empty call.
  for (const std::size_t blocks : {0u, 1u, 2u, 3u, 7u, 16u, 65u}) {
    std::vector<std::uint8_t> data(blocks * 64);
    for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng.next());
    std::uint32_t want[8], got[8];
    for (int i = 0; i < 8; ++i)
      want[i] = got[i] = static_cast<std::uint32_t>(rng.next());
    portable_.compress(want, data.data(), blocks);
    shani_->compress(got, data.data(), blocks);
    EXPECT_EQ(0, std::memcmp(want, got, sizeof(want))) << blocks << " blocks";
  }
}

TEST_F(Sha256KernelDifferential, UnalignedBlockPointersAgree) {
  util::Rng rng(43);
  std::vector<std::uint8_t> backing(64 * 3 + 16);
  for (std::uint8_t& b : backing) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t off = 0; off < 16; ++off) {
    std::uint32_t want[8], got[8];
    for (int i = 0; i < 8; ++i)
      want[i] = got[i] = static_cast<std::uint32_t>(rng.next());
    portable_.compress(want, backing.data() + off, 3);
    shani_->compress(got, backing.data() + off, 3);
    EXPECT_EQ(0, std::memcmp(want, got, sizeof(want))) << "offset " << off;
  }
}

// The known-answer vectors guard the glue above the kernel (padding,
// digest byte order) — whichever backend is active must still be SHA-256.
TEST(Sha256KernelGlue, FipsVectorsHoldOnActiveKernel) {
  const Digest empty = sha256(std::string_view(""));
  const char* want_empty =
      "\xe3\xb0\xc4\x42\x98\xfc\x1c\x14\x9a\xfb\xf4\xc8\x99\x6f\xb9\x24"
      "\x27\xae\x41\xe4\x64\x9b\x93\x4c\xa4\x95\x99\x1b\x78\x52\xb8\x55";
  EXPECT_EQ(0, std::memcmp(empty.data(), want_empty, 32));

  const Digest abc = sha256(std::string_view("abc"));
  const char* want_abc =
      "\xba\x78\x16\xbf\x8f\x01\xcf\xea\x41\x41\x40\xde\x5d\xae\x22\x23"
      "\xb0\x03\x61\xa3\x96\x17\x7a\x9c\xb4\x10\xff\x61\xf2\x00\x15\xad";
  EXPECT_EQ(0, std::memcmp(abc.data(), want_abc, 32));

  // Two-block message (56 bytes forces the length into a second block).
  const Digest two = sha256(std::string_view(
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  const char* want_two =
      "\x24\x8d\x6a\x61\xd2\x06\x38\xb8\xe5\xc0\x26\x93\x0c\x3e\x60\x39"
      "\xa3\x3c\xe4\x59\x64\xff\x21\x67\xf6\xec\xed\xd4\x19\xdb\x06\xc1";
  EXPECT_EQ(0, std::memcmp(two.data(), want_two, 32));
}

// Expansion of a 32-byte seed goes through the active kernel's pad_fold;
// it must produce exactly the incremental-API stream for every length,
// including tails that are not a multiple of 4 or 32 bytes.
TEST(Sha256KernelGlue, ExpandFastPathMatchesIncrementalReference) {
  util::Rng rng(44);
  std::array<std::uint8_t, 32> seed;
  for (std::uint8_t& b : seed) b = static_cast<std::uint8_t>(rng.next());
  for (const std::size_t len :
       {0u, 1u, 3u, 31u, 32u, 33u, 64u, 100u, 144u, 4096u}) {
    const std::vector<std::uint8_t> fast = sha256_expand(seed, len);
    std::vector<std::uint8_t> want(len);
    std::uint64_t counter = 0;
    std::size_t off = 0;
    while (off < want.size()) {
      Sha256 h;
      h.update(std::span<const std::uint8_t>(seed.data(), seed.size()));
      h.update_u64(counter++);
      const Digest d = h.finish();
      const std::size_t take = std::min<std::size_t>(32, want.size() - off);
      std::memcpy(want.data() + off, d.data(), take);
      off += take;
    }
    EXPECT_EQ(fast, want) << "len " << len;
  }
}

std::vector<const Sha256Kernel*> available_kernels() {
  std::vector<const Sha256Kernel*> kernels{&portable_sha256_kernel()};
  if (const Sha256Kernel* k = shani_sha256_kernel()) kernels.push_back(k);
  if (const Sha256Kernel* k = avx512_sha256_kernel()) kernels.push_back(k);
  return kernels;
}

/// The pad as the incremental API defines it: cell m is the big-endian
/// u32 at byte 4(m mod 8) of SHA256(seed || u64_be(m / 8)).
std::vector<std::uint32_t> oracle_pad(const std::array<std::uint8_t, 32>& seed,
                                      std::size_t cells) {
  std::vector<std::uint32_t> pad(cells);
  Digest d{};
  for (std::size_t m = 0; m < cells; ++m) {
    if (m % 8 == 0) {
      Sha256 h;
      h.update(std::span<const std::uint8_t>(seed.data(), seed.size()));
      h.update_u64(m / 8);
      d = h.finish();
    }
    const std::uint8_t* p = d.data() + 4 * (m % 8);
    pad[m] = (static_cast<std::uint32_t>(p[0]) << 24) |
             (static_cast<std::uint32_t>(p[1]) << 16) |
             (static_cast<std::uint32_t>(p[2]) << 8) |
             static_cast<std::uint32_t>(p[3]);
  }
  return pad;
}

TEST(Sha256PadFold, EveryBackendMatchesTheIncrementalApiOracle) {
  // Counts around one block (8 cells) and one AVX-512 pass (128 cells),
  // both sides of the avx512 kernel's single-message cut over SHA-NI (9
  // blocks, 64 | 65 cells; the OPRF's 144-byte expansion is 36 cells),
  // the 4x256 sketch, a count that is neither, and the paper's 17x2719.
  // The accumulator starts random, sits 0-3 words into its buffer,
  // and has guard words after it that no backend may touch.
  util::Rng rng(46);
  constexpr std::size_t kGuard = 19;
  for (const std::size_t cells :
       {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 36u, 63u, 64u, 65u, 72u, 73u,
        127u, 128u, 129u, 1024u, 5000u, 46223u}) {
    std::array<std::uint8_t, 32> seed;
    for (std::uint8_t& b : seed) b = static_cast<std::uint8_t>(rng.next());
    const std::vector<std::uint32_t> pad = oracle_pad(seed, cells);
    for (const bool positive : {true, false}) {
      for (std::size_t off = 0; off < 4; ++off) {
        std::vector<std::uint32_t> backing(off + cells + kGuard);
        for (std::uint32_t& c : backing)
          c = static_cast<std::uint32_t>(rng.next());
        std::vector<std::uint32_t> want = backing;
        for (std::size_t m = 0; m < cells; ++m)
          want[off + m] = positive ? want[off + m] + pad[m]
                                   : want[off + m] - pad[m];
        for (const Sha256Kernel* kernel : available_kernels()) {
          std::vector<std::uint32_t> got = backing;
          kernel->pad_fold(got.data() + off, seed.data(), cells, positive);
          EXPECT_EQ(got, want) << kernel->name << ": " << cells
                               << " cells, positive=" << positive
                               << ", offset " << off;
        }
      }
    }
  }
}

TEST(Sha256KernelSelection, ActiveKernelRespectsEnvOverride) {
  // The crypto suite runs under three CI legs: auto, and
  // EYW_SHA256_KERNEL=portable and =shani forced.
  const std::string_view name = active_sha256_kernel().name;
  const char* env = ::getenv("EYW_SHA256_KERNEL");
  const std::string_view want = env != nullptr ? env : "";
  const Sha256Kernel* const shani = shani_sha256_kernel();
  const Sha256Kernel* const avx512 = avx512_sha256_kernel();
  if (want == "portable") {
    EXPECT_EQ(name, "portable");
  } else if (want == "shani") {
    EXPECT_EQ(name, shani != nullptr ? "shani" : "portable");
  } else {
    EXPECT_EQ(name, avx512 != nullptr  ? "avx512"
                    : shani != nullptr ? "shani"
                                       : "portable");
  }
}

TEST(Sha256KernelSelection, Avx512RunsOnlyWhereTheOsSavesZmmState) {
  // A host smoke check: an active avx512 kernel implies the OS saves
  // opmask and ZMM state here. It cannot fail on a host whose OS saves
  // that state, so it cannot catch a probe that skips XCR0; the verdict
  // logic is pinned by CpuFeatures.XstateVerdictTable.
  if (std::string_view(active_sha256_kernel().name) == "avx512") {
    EXPECT_TRUE(util::os_saves_xstate(util::kXcr0Avx512));
  }
}

TEST(Sha256KernelSelection, Avx512HashesOneMessageWithShaNiOrPortable) {
  const Sha256Kernel* const avx512 = avx512_sha256_kernel();
  if (avx512 == nullptr) GTEST_SKIP() << "AVX-512 kernel unavailable";
  const Sha256Kernel* const shani = shani_sha256_kernel();
  EXPECT_EQ(avx512->compress,
            (shani != nullptr ? shani : &portable_sha256_kernel())->compress);
}

}  // namespace
}  // namespace eyw::crypto
