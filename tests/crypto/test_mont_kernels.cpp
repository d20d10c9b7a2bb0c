// Differential agreement suite: the portable u128 kernel is the oracle,
// and the BMI2/ADX kernel must be bit-identical to it on every input —
// every limb count the dispatch table covers (1..33), the rolled fallback
// beyond it, aliased outputs, and the edge exponents of the ladder. The
// IFMA kernel's shared-exponent vector ladder must agree with the scalar
// ladders and modexp_basic at every ladder width. On hardware without ADX
// or IFMA those suites skip cleanly (the remaining kernels have nothing
// to disagree with); the batch/fixed-base agreement tests at the bottom
// run everywhere, on the active kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "crypto/bignum.hpp"
#include "crypto/mont_kernel.hpp"
#include "crypto/montgomery.hpp"
#include "util/cpu_features.hpp"
#include "util/rng.hpp"

namespace eyw::crypto {
namespace {

using u64 = std::uint64_t;

/// Random odd modulus with EXACTLY `limbs` limbs (top limb nonzero).
Bignum random_odd_modulus(util::Rng& rng, std::size_t limbs) {
  for (;;) {
    Bignum n = Bignum::random_bits(rng, limbs * 64);
    auto v = std::vector<u64>(n.limbs().begin(), n.limbs().end());
    v.resize(limbs, 0);
    v[limbs - 1] |= u64{1} << 63;  // pin the width
    v[0] |= 1;                     // odd
    Bignum fixed = Bignum::from_limbs(std::move(v));
    if (!fixed.is_one()) return fixed;
  }
}

/// Limbs of a random residue < n, padded to n's limb count.
std::vector<u64> random_residue(util::Rng& rng, const Bignum& n,
                                std::size_t limbs) {
  const Bignum r = Bignum::random_below(rng, n);
  std::vector<u64> v(r.limbs().begin(), r.limbs().end());
  v.resize(limbs, 0);
  return v;
}

u64 neg_inv64(u64 n0) {
  u64 x = n0;
  for (int i = 0; i < 5; ++i) x *= 2 - n0 * x;
  return ~x + 1;
}

class MontKernelDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    adx_ = adx_mont_kernel();
    if (adx_ == nullptr)
      GTEST_SKIP() << "ADX kernel unavailable (CPU or toolchain); "
                      "portable kernel is the only backend";
  }
  const MontKernel* adx_ = nullptr;
};

TEST_F(MontKernelDifferential, MulAgreesAtEveryFixedLimbCount) {
  util::Rng rng(0x6d6b31);
  const MontKernel& ref = portable_mont_kernel();
  for (std::size_t L = 1; L <= 33; ++L) {
    const Bignum n = random_odd_modulus(rng, L);
    const auto nl = std::vector<u64>(n.limbs().begin(), n.limbs().end());
    const u64 n0inv = neg_inv64(nl[0]);
    std::vector<u64> scratch(mont_kernel_scratch_limbs(L));
    for (int iter = 0; iter < 8; ++iter) {
      const auto a = random_residue(rng, n, L);
      const auto b = random_residue(rng, n, L);
      std::vector<u64> out_ref(L), out_adx(L);
      ref.mul(a.data(), b.data(), out_ref.data(), scratch.data(), nl.data(),
              L, n0inv);
      adx_->mul(a.data(), b.data(), out_adx.data(), scratch.data(),
                nl.data(), L, n0inv);
      ASSERT_EQ(out_ref, out_adx) << "mul mismatch at L=" << L;
    }
  }
}

TEST_F(MontKernelDifferential, SqrAgreesAtEveryFixedLimbCount) {
  util::Rng rng(0x6d6b32);
  const MontKernel& ref = portable_mont_kernel();
  for (std::size_t L = 1; L <= 33; ++L) {
    const Bignum n = random_odd_modulus(rng, L);
    const auto nl = std::vector<u64>(n.limbs().begin(), n.limbs().end());
    const u64 n0inv = neg_inv64(nl[0]);
    std::vector<u64> scratch(mont_kernel_scratch_limbs(L));
    for (int iter = 0; iter < 8; ++iter) {
      const auto a = random_residue(rng, n, L);
      std::vector<u64> out_ref(L), out_adx(L);
      ref.sqr(a.data(), out_ref.data(), scratch.data(), nl.data(), L, n0inv);
      adx_->sqr(a.data(), out_adx.data(), scratch.data(), nl.data(), L,
                n0inv);
      ASSERT_EQ(out_ref, out_adx) << "sqr mismatch at L=" << L;
      // Squaring must equal the general multiply with both operands equal.
      std::vector<u64> out_mul(L);
      adx_->mul(a.data(), a.data(), out_mul.data(), scratch.data(),
                nl.data(), L, n0inv);
      ASSERT_EQ(out_mul, out_adx) << "sqr != mul(a,a) at L=" << L;
    }
  }
}

TEST_F(MontKernelDifferential, RolledFallbackBeyondFixedLimbs) {
  // L > 33 leaves the dispatch table and runs the rolled jrcxz-loop rows.
  util::Rng rng(0x6d6b33);
  const MontKernel& ref = portable_mont_kernel();
  for (const std::size_t L : {34, 40, 48}) {
    const Bignum n = random_odd_modulus(rng, L);
    const auto nl = std::vector<u64>(n.limbs().begin(), n.limbs().end());
    const u64 n0inv = neg_inv64(nl[0]);
    std::vector<u64> scratch(mont_kernel_scratch_limbs(L));
    const auto a = random_residue(rng, n, L);
    const auto b = random_residue(rng, n, L);
    std::vector<u64> out_ref(L), out_adx(L);
    ref.mul(a.data(), b.data(), out_ref.data(), scratch.data(), nl.data(),
            L, n0inv);
    adx_->mul(a.data(), b.data(), out_adx.data(), scratch.data(), nl.data(),
              L, n0inv);
    EXPECT_EQ(out_ref, out_adx) << "fallback mul mismatch at L=" << L;
    ref.sqr(a.data(), out_ref.data(), scratch.data(), nl.data(), L, n0inv);
    adx_->sqr(a.data(), out_adx.data(), scratch.data(), nl.data(), L,
              n0inv);
    EXPECT_EQ(out_ref, out_adx) << "fallback sqr mismatch at L=" << L;
  }
}

TEST_F(MontKernelDifferential, OutputMayAliasEitherInput) {
  util::Rng rng(0x6d6b34);
  const MontKernel& ref = portable_mont_kernel();
  for (const std::size_t L : {1, 2, 7, 16, 32, 33, 40}) {
    const Bignum n = random_odd_modulus(rng, L);
    const auto nl = std::vector<u64>(n.limbs().begin(), n.limbs().end());
    const u64 n0inv = neg_inv64(nl[0]);
    std::vector<u64> scratch(mont_kernel_scratch_limbs(L));
    const auto a = random_residue(rng, n, L);
    const auto b = random_residue(rng, n, L);
    std::vector<u64> expected(L);
    ref.mul(a.data(), b.data(), expected.data(), scratch.data(), nl.data(),
            L, n0inv);
    // out == a
    std::vector<u64> buf = a;
    adx_->mul(buf.data(), b.data(), buf.data(), scratch.data(), nl.data(),
              L, n0inv);
    EXPECT_EQ(expected, buf) << "out==a aliasing at L=" << L;
    // out == b
    buf = b;
    adx_->mul(a.data(), buf.data(), buf.data(), scratch.data(), nl.data(),
              L, n0inv);
    EXPECT_EQ(expected, buf) << "out==b aliasing at L=" << L;
    // sqr in place
    ref.sqr(a.data(), expected.data(), scratch.data(), nl.data(), L, n0inv);
    buf = a;
    adx_->sqr(buf.data(), buf.data(), scratch.data(), nl.data(), L, n0inv);
    EXPECT_EQ(expected, buf) << "sqr out==a aliasing at L=" << L;
  }
}

TEST_F(MontKernelDifferential, ModexpEdgeExponents) {
  util::Rng rng(0x6d6b35);
  for (const std::size_t bits : {64, 256, 1024}) {
    const Bignum n = random_odd_modulus(rng, bits / 64);
    const Montgomery portable(n, portable_mont_kernel());
    const Montgomery adx(n, *adx_);
    const Bignum base = Bignum::random_below(rng, n);
    // x^0 = 1, x^1 = x, and the all-ones exponent (every window maximal).
    const Bignum all_ones = Bignum(1).shl(bits).sub(Bignum(1));
    for (const Bignum& e : {Bignum(0), Bignum(1), all_ones}) {
      EXPECT_EQ(portable.modexp(base, e), adx.modexp(base, e))
          << "modexp mismatch at " << bits << " bits";
    }
  }
}

TEST_F(MontKernelDifferential, FullPipelineAgreement) {
  // End to end through the Montgomery wrapper: same modulus, two pinned
  // contexts, random exponentiations must match bit for bit.
  util::Rng rng(0x6d6b36);
  const Bignum n = random_odd_modulus(rng, 16);  // 1024-bit
  const Montgomery portable(n, portable_mont_kernel());
  const Montgomery adx(n, *adx_);
  EXPECT_STREQ(portable.kernel_name(), "portable");
  EXPECT_STREQ(adx.kernel_name(), "adx");
  for (int i = 0; i < 4; ++i) {
    const Bignum base = Bignum::random_below(rng, n);
    const Bignum exp = Bignum::random_bits(rng, 1024);
    EXPECT_EQ(portable.modexp(base, exp), adx.modexp(base, exp));
    EXPECT_EQ(portable.modmul(base, exp.mod(n)), adx.modmul(base, exp.mod(n)));
  }
}

// ------------------------------------------------------------------------
// Shared-exponent batches. The ifma kernel's vector ladder must agree with
// the scalar ladder on adx and portable, and all three with
// modexp_basic, at every ladder width: moduli at the protocol sizes, just
// under each width's limit of 52L - 2 bits and just over it (the next
// width), with the bases the reduction can trip on.

/// Random odd modulus of exactly `bits` bits.
Bignum random_odd_modulus_bits(util::Rng& rng, std::size_t bits) {
  Bignum n = Bignum::random_bits(rng, bits);
  return n.is_odd() ? n : n.add(Bignum(1));
}

/// Bases 0, 1, N-1, N, N+1 and a value past 2N, then random residues up
/// to `count`: two ladder groups and a partial one for count = 19.
std::vector<Bignum> edge_and_random_bases(util::Rng& rng, const Bignum& n,
                                          std::size_t count) {
  std::vector<Bignum> bases = {Bignum(0),        Bignum(1),
                               n.sub(Bignum(1)), n,
                               n.add(Bignum(1)), n.shl(1).add(Bignum(5))};
  while (bases.size() < count) bases.push_back(Bignum::random_below(rng, n));
  return bases;
}

class MontLadderDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    ifma_ = ifma_mont_kernel();
    if (ifma_ == nullptr)
      GTEST_SKIP() << "IFMA kernel unavailable (CPU, OS or toolchain); "
                      "batches run the scalar ladder only";
    adx_ = adx_mont_kernel();
    ASSERT_NE(adx_, nullptr) << "ifma implies adx";
  }
  const MontKernel* ifma_ = nullptr;
  const MontKernel* adx_ = nullptr;
};

TEST_F(MontLadderDifferential, IfmaAdxPortableAndBasicAgreeAtEveryWidth) {
  util::Rng rng(0x6d6b40);
  // Protocol sizes, each width's limit (258, 518, 1038, 2078 bits) and
  // one bit past it, which moves to the next width or, past 2078, to
  // the scalar ladder.
  for (const std::size_t bits : {64, 255, 256, 258, 259, 512, 518, 519,
                                 1024, 1038, 1039, 2048, 2078, 2079}) {
    const Bignum n = random_odd_modulus_bits(rng, bits);
    const Montgomery ifma(n, *ifma_);
    const Montgomery adx(n, *adx_);
    const Montgomery portable(n, portable_mont_kernel());
    ASSERT_STREQ(ifma.kernel_name(), "ifma");
    const std::size_t count = bits >= 1039 ? 9 : 19;
    const std::vector<Bignum> bases = edge_and_random_bases(rng, n, count);
    // A modulus-width exponent (window 4) and a 40-bit one (window 2),
    // whose ladder modexp_basic can afford at every width.
    for (const Bignum& e :
         {Bignum::random_bits(rng, bits), Bignum::random_bits(rng, 40)}) {
      const std::vector<Bignum> want = portable.modexp_batch(bases, e);
      EXPECT_EQ(ifma.modexp_batch(bases, e), want)
          << bits << "-bit modulus, " << e.bit_length() << "-bit exponent";
      EXPECT_EQ(adx.modexp_batch(bases, e), want)
          << bits << "-bit modulus, " << e.bit_length() << "-bit exponent";
      for (std::size_t i = 0; i < bases.size(); ++i) {
        EXPECT_EQ(want[i], portable.modexp(bases[i], e)) << "base " << i;
        if (e.bit_length() <= 40 || bits <= 520)
          EXPECT_EQ(want[i], Bignum::modexp_basic(bases[i], e, n))
              << bits << "-bit modulus, base " << i;
      }
    }
  }
}

TEST_F(MontLadderDifferential, WidestModuliAtEachWidthReduceEdgeBases) {
  // All-ones moduli fill their width to the limit: every limb at its
  // maximum, so each accumulator holds the most it ever can.
  util::Rng rng(0x6d6b41);
  for (const std::size_t bits : {258, 518, 1038, 2078}) {
    const Bignum n = Bignum(1).shl(bits).sub(Bignum(1));
    const Montgomery ifma(n, *ifma_);
    const Montgomery portable(n, portable_mont_kernel());
    const std::vector<Bignum> bases = edge_and_random_bases(rng, n, 8);
    const Bignum all_ones = Bignum(1).shl(bits).sub(Bignum(1));
    for (const Bignum& e : {Bignum(1), Bignum(65537), all_ones}) {
      EXPECT_EQ(ifma.modexp_batch(bases, e), portable.modexp_batch(bases, e))
          << bits << "-bit all-ones modulus, " << e.bit_length()
          << "-bit exponent";
    }
  }
}

TEST_F(MontLadderDifferential, ZeroResiduesLeaveTheDomainCanonical) {
  // N = s^2 with base s: from the second power on, every product is a
  // nonzero multiple of N, which the ladder carries as N rather than 0
  // (its products stay below 2N, not below N), so only the final
  // subtraction makes the result the canonical 0.
  util::Rng rng(0x6d6b42);
  for (const std::size_t bits : {256, 512, 1024, 2048}) {
    const Bignum root = random_odd_modulus_bits(rng, bits / 2 - 1);
    const Bignum n = root.mul(root);
    const Montgomery ifma(n, *ifma_);
    const Montgomery portable(n, portable_mont_kernel());
    std::vector<Bignum> bases;
    for (std::uint64_t k = 1; k <= 8; ++k) bases.push_back(root.mul(Bignum(k)));
    for (const Bignum& e : {Bignum(1), Bignum(2), Bignum(65537),
                            Bignum::random_bits(rng, bits)}) {
      const std::vector<Bignum> got = ifma.modexp_batch(bases, e);
      EXPECT_EQ(got, portable.modexp_batch(bases, e))
          << bits << "-bit square modulus, " << e.bit_length()
          << "-bit exponent";
      if (e.bit_length() >= 2) {
        for (const Bignum& r : got) EXPECT_TRUE(r.is_zero());
      }
    }
  }
}

TEST(MontLadderDispatch, WidthsCoverTheProtocolModuli) {
  // 52L - 2 bits per width: 258, 518, 1038, 2078.
  EXPECT_EQ(mont_ladder_limbs(64), 5u);
  EXPECT_EQ(mont_ladder_limbs(256), 5u);
  EXPECT_EQ(mont_ladder_limbs(258), 5u);
  EXPECT_EQ(mont_ladder_limbs(259), 10u);
  EXPECT_EQ(mont_ladder_limbs(512), 10u);
  EXPECT_EQ(mont_ladder_limbs(518), 10u);
  EXPECT_EQ(mont_ladder_limbs(1024), 20u);
  EXPECT_EQ(mont_ladder_limbs(1039), 40u);
  EXPECT_EQ(mont_ladder_limbs(2048), 40u);
  EXPECT_EQ(mont_ladder_limbs(2078), 40u);
  EXPECT_EQ(mont_ladder_limbs(2079), 0u);
}

TEST(MontLadderDispatch, BatchLanesFollowTheLadder) {
  // A batch pass is one ladder group where the kernel's ladder covers the
  // width, and one base on the scalar kernels or past the widest width.
  util::Rng rng(0x6d6b41);
  const Bignum n256 = random_odd_modulus(rng, 4);
  const Bignum n2079 = Bignum(1).shl(2078).add(Bignum(1));
  EXPECT_EQ(Montgomery(n256, portable_mont_kernel()).batch_lanes(), 1u);
  if (const MontKernel* adx = adx_mont_kernel(); adx != nullptr)
    EXPECT_EQ(Montgomery(n256, *adx).batch_lanes(), 1u);
  if (const MontKernel* ifma = ifma_mont_kernel(); ifma != nullptr) {
    EXPECT_EQ(Montgomery(n256, *ifma).batch_lanes(), kMontLanes);
    EXPECT_EQ(Montgomery(n2079, *ifma).batch_lanes(), 1u);
  }
}

TEST(MontKernelSelection, ActiveKernelRespectsEnvOverride) {
  // The crypto suite runs under auto dispatch and with EYW_MONT_KERNEL
  // forced to adx and to portable.
  const std::string_view name = active_mont_kernel().name;
  const char* env = ::getenv("EYW_MONT_KERNEL");
  const std::string_view want = env != nullptr ? env : "";
  if (want == "portable") {
    EXPECT_EQ(name, "portable");
  } else if (want == "adx") {
    EXPECT_EQ(name, adx_mont_kernel() != nullptr ? "adx" : "portable");
  } else {
    EXPECT_EQ(name, ifma_mont_kernel() != nullptr  ? "ifma"
                    : adx_mont_kernel() != nullptr ? "adx"
                                                   : "portable");
  }
  if (name == "ifma") {
    EXPECT_TRUE(cpu_supports_ifma());
    EXPECT_TRUE(util::os_saves_xstate(util::kXcr0Avx512));
  }
}

// These run on whatever kernel is active: the vector ladder under auto
// dispatch on IFMA hardware, the scalar ladder otherwise.

TEST(ModexpBatch, MatchesSequentialModexp) {
  // Exponents of 32 to 608 bits (every window width and past the
  // modulus), at every batch size from one lane to two full groups and
  // a partial one.
  util::Rng rng(0x6d6b37);
  const Bignum n = random_odd_modulus(rng, 8);  // 512-bit
  const Montgomery mont(n);
  for (std::size_t bits = 32; bits <= 608; bits += 96) {
    const Bignum e = Bignum::random_bits(rng, bits);
    for (std::size_t k = 1; k <= 17; ++k) {
      std::vector<Bignum> bases;
      for (std::size_t i = 0; i < k; ++i)
        bases.push_back(Bignum::random_below(rng, n));
      const auto batch = mont.modexp_batch(bases, e);
      ASSERT_EQ(batch.size(), bases.size());
      for (std::size_t i = 0; i < k; ++i)
        EXPECT_EQ(batch[i], mont.modexp(bases[i], e))
            << bits << "-bit exponent, batch of " << k << ", lane " << i;
    }
  }
  EXPECT_TRUE(mont.modexp_batch({}, Bignum(3)).empty());
}

TEST(ModexpBatch, SharedExponentBroadcast) {
  util::Rng rng(0x6d6b38);
  const Bignum n = random_odd_modulus(rng, 8);
  const Montgomery mont(n);
  const Bignum e(65537);  // 17 bits: the public exponent
  std::vector<Bignum> bases;
  for (int i = 0; i < 5; ++i) bases.push_back(Bignum::random_below(rng, n));
  const auto batch = mont.modexp_batch(bases, e);
  for (std::size_t i = 0; i < bases.size(); ++i)
    EXPECT_EQ(batch[i], mont.modexp(bases[i], e));
}

TEST(ModexpBatch, ZeroAndOneExponents) {
  // x^0 = 1 and x^1 = x on every lane, base 0 included, next to a
  // full-width exponent on the same bases.
  util::Rng rng(0x6d6b39);
  const Bignum n = random_odd_modulus(rng, 4);
  const Montgomery mont(n);
  std::vector<Bignum> bases = {Bignum(0), Bignum(1)};
  for (int i = 0; i < 9; ++i) bases.push_back(Bignum::random_below(rng, n));
  for (const Bignum& r : mont.modexp_batch(bases, Bignum(0)))
    EXPECT_EQ(r, Bignum(1));
  EXPECT_EQ(mont.modexp_batch(bases, Bignum(1)), bases);
  const Bignum e = Bignum::random_bits(rng, 256);
  const auto batch = mont.modexp_batch(bases, e);
  for (std::size_t i = 0; i < bases.size(); ++i)
    EXPECT_EQ(batch[i], mont.modexp(bases[i], e)) << "lane " << i;
}

TEST(MontFixedBaseTest, MatchesPlainModexp) {
  util::Rng rng(0x6d6b3a);
  const Bignum n = random_odd_modulus(rng, 8);
  const Montgomery mont(n);
  const Bignum g = Bignum::random_below(rng, n);
  const MontFixedBase fixed(mont, g);
  EXPECT_EQ(fixed.base(), g);
  for (const std::size_t bits : {1, 13, 64, 200, 512}) {
    const Bignum e = Bignum::random_bits(rng, bits);
    EXPECT_EQ(fixed.modexp(e), mont.modexp(g, e)) << bits << "-bit exponent";
  }
  EXPECT_EQ(fixed.modexp(Bignum(0)), Bignum(1));
  // Wider than the modulus: falls back to the plain ladder.
  const Bignum wide = Bignum::random_bits(rng, 700);
  EXPECT_EQ(fixed.modexp(wide), mont.modexp(g, wide));
}

TEST(SharedMontgomeryCache, ReturnsSameContextForSameModulus) {
  util::Rng rng(0x6d6b3b);
  const Bignum n = random_odd_modulus(rng, 4);
  const auto a = Montgomery::shared_for(n);
  const auto b = Montgomery::shared_for(n);
  EXPECT_EQ(a.get(), b.get());
  const Bignum m = random_odd_modulus(rng, 4);
  EXPECT_NE(Montgomery::shared_for(m).get(), a.get());
}

}  // namespace
}  // namespace eyw::crypto
