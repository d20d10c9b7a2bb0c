#include "crypto/mont_kernel.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "util/cpu_features.hpp"

namespace eyw::crypto {

namespace detail {
#if defined(EYW_HAVE_ADX_KERNEL)
// Defined in montgomery_adx.cpp (compiled with -madx -mbmi2).
const MontKernel& adx_kernel_impl() noexcept;
#endif
#if defined(EYW_HAVE_IFMA_KERNEL)
// Defined in mont_ifma.cpp (compiled with -mavx512f -mavx512ifma).
void ifma_ladder(const MontLadderModulus& m, const std::uint64_t* bases,
                 const std::uint8_t* digits, std::size_t windows,
                 std::size_t window, std::uint64_t* out);
#endif
}  // namespace detail

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// a >= b over equal-length limb vectors.
bool geq(const u64* a, const u64* b, std::size_t len) noexcept {
  for (std::size_t i = len; i-- > 0;) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

/// a -= b (wrapping) over equal-length limb vectors.
void sub_in_place(u64* a, const u64* b, std::size_t len) noexcept {
  u64 borrow = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const u128 diff = static_cast<u128>(a[i]) - b[i] - borrow;
    a[i] = static_cast<u64>(diff);
    borrow = static_cast<u64>((diff >> 64) & 1);
  }
}

void portable_mul(const u64* a, const u64* b, u64* out, u64* __restrict t,
                  const u64* __restrict n, std::size_t L, u64 n0inv) {
  // Finely integrated operand scanning (Koc/Acar/Kaliski FIOS): each outer
  // iteration adds a[i]*b and m*N in ONE inner pass with two independent
  // carry chains, so the CPU can overlap the two multiply streams instead
  // of serializing on a single carry. The running value shifts one limb
  // per outer iteration; with a, b < N it stays below 2N at the end, so a
  // single conditional subtraction normalizes.
  std::fill(t, t + L + 1, 0);
  u64 t_hi = 0;  // limb L of the running value; provably <= 1
  for (std::size_t i = 0; i < L; ++i) {
    const u64 ai = a[i];
    u128 v = static_cast<u128>(ai) * b[0] + t[0];
    u64 carry_ab = static_cast<u64>(v >> 64);
    const u64 m = static_cast<u64>(v) * n0inv;
    u128 w = static_cast<u128>(m) * n[0] + static_cast<u64>(v);
    u64 carry_mn = static_cast<u64>(w >> 64);  // low limb cancels by choice of m
    for (std::size_t j = 1; j < L; ++j) {
      v = static_cast<u128>(ai) * b[j] + t[j] + carry_ab;
      carry_ab = static_cast<u64>(v >> 64);
      w = static_cast<u128>(m) * n[j] + static_cast<u64>(v) + carry_mn;
      carry_mn = static_cast<u64>(w >> 64);
      t[j - 1] = static_cast<u64>(w);
    }
    const u128 s = static_cast<u128>(t_hi) + carry_ab + carry_mn;
    t[L - 1] = static_cast<u64>(s);
    t_hi = static_cast<u64>(s >> 64);
  }
  if (t_hi != 0 || geq(t, n, L)) sub_in_place(t, n, L);
  std::copy(t, t + L, out);
}

void portable_sqr(const u64* a, u64* out, u64* __restrict t,
                  const u64* __restrict n, std::size_t L, u64 n0inv) {
  // Separated operand scanning for squares: build the full 2L-limb product
  // exploiting symmetry (cross terms once, doubled, plus the diagonal),
  // then run the L reduction rows. ~1.5 L^2 multiplies vs the 2 L^2 of the
  // general fused path; the exponentiation ladder is ~80% squarings.
  std::fill(t, t + 2 * L + 1, 0);

  // Cross products a[i]*a[j], i < j.
  for (std::size_t i = 0; i + 1 < L; ++i) {
    const u64 ai = a[i];
    u64 carry = 0;
    for (std::size_t j = i + 1; j < L; ++j) {
      const u128 v = static_cast<u128>(ai) * a[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(v);
      carry = static_cast<u64>(v >> 64);
    }
    t[i + L] = carry;
  }
  // Double, then add the diagonal a[i]^2.
  u64 shift_carry = 0;
  for (std::size_t k = 0; k < 2 * L; ++k) {
    const u64 nv = (t[k] << 1) | shift_carry;
    shift_carry = t[k] >> 63;
    t[k] = nv;
  }
  t[2 * L] = shift_carry;
  u64 carry = 0;
  for (std::size_t i = 0; i < L; ++i) {
    const u128 sq = static_cast<u128>(a[i]) * a[i];
    u128 v = static_cast<u128>(t[2 * i]) + static_cast<u64>(sq) + carry;
    t[2 * i] = static_cast<u64>(v);
    v = static_cast<u128>(t[2 * i + 1]) + static_cast<u64>(sq >> 64) +
        static_cast<u64>(v >> 64);
    t[2 * i + 1] = static_cast<u64>(v);
    carry = static_cast<u64>(v >> 64);
  }
  t[2 * L] += carry;

  // Montgomery reduction rows: clear one low limb per row.
  for (std::size_t i = 0; i < L; ++i) {
    const u64 m = t[i] * n0inv;
    u64 row_carry = 0;
    for (std::size_t j = 0; j < L; ++j) {
      const u128 v = static_cast<u128>(m) * n[j] + t[i + j] + row_carry;
      t[i + j] = static_cast<u64>(v);
      row_carry = static_cast<u64>(v >> 64);
    }
    for (std::size_t k = i + L; row_carry != 0; ++k) {
      const u128 v = static_cast<u128>(t[k]) + row_carry;
      t[k] = static_cast<u64>(v);
      row_carry = static_cast<u64>(v >> 64);
    }
  }
  // Result sits in t[L .. 2L-1] with a possible top bit in t[2L].
  if (t[2 * L] != 0 || geq(t + L, n, L)) sub_in_place(t + L, n, L);
  std::copy(t + L, t + 2 * L, out);
}

constexpr MontKernel kPortable{portable_mul, portable_sqr, nullptr,
                               "portable"};

const MontKernel* resolve_active() noexcept {
  const char* pref = std::getenv("EYW_MONT_KERNEL");
  const std::string_view want = pref != nullptr ? pref : "auto";
  const MontKernel* pick = nullptr;
  if (want == "portable")
    pick = &kPortable;
  else if (want == "adx")
    pick = adx_mont_kernel();
  else
    pick = ifma_mont_kernel() != nullptr ? ifma_mont_kernel()
                                         : adx_mont_kernel();
  // A requested kernel the build or CPU lacks degrades to portable — the
  // override is a test knob, not a correctness switch, and portable is
  // always right.
  return pick != nullptr ? pick : &kPortable;
}
}  // namespace

const MontKernel& portable_mont_kernel() noexcept { return kPortable; }

bool cpu_supports_adx() noexcept {
  // Scalar extensions on general-purpose registers: no OS state to check.
  const std::uint32_t ebx = util::cpuid7_ebx();
  return (ebx & util::kCpuid7Bmi2) != 0 && (ebx & util::kCpuid7Adx) != 0;
}

bool cpu_supports_ifma() noexcept {
  return util::ifma_kernel_usable(util::cpuid7_ebx(), util::read_xstate());
}

const MontKernel* adx_mont_kernel() noexcept {
#if defined(EYW_HAVE_ADX_KERNEL)
  static const bool usable = cpu_supports_adx();
  return usable ? &detail::adx_kernel_impl() : nullptr;
#else
  return nullptr;
#endif
}

const MontKernel* ifma_mont_kernel() noexcept {
#if defined(EYW_HAVE_ADX_KERNEL) && defined(EYW_HAVE_IFMA_KERNEL)
  // Single products stay on the ADX rows; only batches go vector-wide.
  static const MontKernel kernel{detail::adx_kernel_impl().mul,
                                 detail::adx_kernel_impl().sqr,
                                 detail::ifma_ladder, "ifma"};
  static const bool usable = cpu_supports_ifma();
  return usable ? &kernel : nullptr;
#else
  return nullptr;
#endif
}

const MontKernel& active_mont_kernel() noexcept {
  static const MontKernel* chosen = resolve_active();
  return *chosen;
}

}  // namespace eyw::crypto
