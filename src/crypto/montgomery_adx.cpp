// BMI2/ADX Montgomery kernel: CIOS with `mulx` and dual adcx/adox carry
// chains. Compiled as its own translation unit with `-madx -mbmi2` (see
// CMakeLists.txt); callers reach it only through active_mont_kernel(),
// which gates on CPUID, so no ADX instruction executes on hardware that
// lacks the extension.
//
// Why the shape below: an adcx/adox chain lives in EFLAGS, and any
// branch between two chain links clobbers it, forcing the compiler to
// spill carries to bytes and re-materialize them — exactly the
// serialization the portable kernel already suffers. So every
// multiply-accumulate row is a *fully unrolled* straight-line sequence,
// generated from a template on the row length; a switch dispatches the
// protocol's limb counts (1..kMaxFixedLimbs) to their specialization and
// anything larger to a rolled generic fallback that is still correct.
//
// Row layout (the standard mulx formulation): for one row `acc += x * y`,
// the low product halves ride the CF chain (adcx) into acc[j] while the
// high halves ride the OF chain (adox) into acc[j+1] — two independent
// carry chains the core can retire in parallel, fed by flag-neutral mulx.
// A CIOS outer iteration is two such rows (a_i * b, then m * N) over a
// window that walks one limb per iteration, which replaces the
// shift-down of the textbook formulation with pointer arithmetic.
#include "crypto/mont_kernel.hpp"

#if defined(EYW_HAVE_ADX_KERNEL)

#include <immintrin.h>

#include <array>
#include <cstddef>
#include <cstring>
#include <utility>

namespace eyw::crypto::detail {
namespace {

// The intrinsics speak unsigned long long; std::uint64_t is unsigned long
// on LP64, so the kernel works on a may_alias view of the same bytes.
using ull = unsigned long long __attribute__((may_alias));
using std::size_t;

/// Largest limb count with a fully unrolled specialization. 33 limbs =
/// 2112-bit moduli: covers every protocol size (RSA/DH 2048 = 32 limbs,
/// CRT halves, test moduli) with one limb of headroom; beyond it the
/// rolled fallback keeps the kernel total.
constexpr size_t kMaxFixedLimbs = 33;

bool geq(const ull* a, const ull* b, size_t len) noexcept {
  for (size_t i = len; i-- > 0;) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

void sub_in_place(ull* a, const ull* b, size_t len) noexcept {
  unsigned char borrow = 0;
  for (size_t i = 0; i < len; ++i)
    borrow = _subborrow_u64(borrow, a[i], b[i], &a[i]);
}

/// acc[0..R+1] += x * y[0..R-1]; returns the carry out of acc[R+1].
///
/// Inline asm rather than _addcarryx_u64: GCC does not model CF and OF as
/// two live carry chains, so the intrinsic form compiles to setc/movzbl
/// spills around every link — worse than the portable u128 loop. The asm
/// block IS the dual-chain formulation: per limb, one flag-neutral mulx,
/// then the low half joins acc[j] on the CF chain (adcx) while the
/// previous limb's high half joins the same register on the OF chain
/// (adox). Each acc limb is loaded and stored exactly once; the row is
/// unrolled with .rept (branches would not clobber EFLAGS, but a counter
/// decrement would). mov/lea are flag-transparent, which is what keeps
/// both chains alive across the glue instructions.
template <size_t R>
inline unsigned char macc_row(ull x, const ull* y, ull* acc) {
  unsigned char cf;
  ull lo, hi0, hi1, t;
  asm volatile(
      // hi0 = 0; xor also clears CF and OF, arming both chains.
      "xorl %k[hi0], %k[hi0]\n\t"
      ".set eyw_off, 0\n\t"
      ".rept %c[count]\n\t"
      "mulxq eyw_off(%[y]), %[lo], %[hi1]\n\t"
      "movq eyw_off(%[acc]), %[t]\n\t"
      "adcxq %[lo], %[t]\n\t"   // CF chain: + lo_j
      "adoxq %[hi0], %[t]\n\t"  // OF chain: + hi_{j-1}
      "movq %[t], eyw_off(%[acc])\n\t"
      "movq %[hi1], %[hi0]\n\t"
      ".set eyw_off, eyw_off+8\n\t"
      ".endr\n\t"
      // Close both chains: acc[R] += hi_{R-1} + CF + OF, then fold the
      // residual carries into acc[R+1].
      "movq eyw_off(%[acc]), %[t]\n\t"
      "adcxq %[hi0], %[t]\n\t"
      "movl $0, %k[lo]\n\t"
      "adoxq %[lo], %[t]\n\t"
      "movq %[t], eyw_off(%[acc])\n\t"
      "movq eyw_off+8(%[acc]), %[t]\n\t"
      "adcxq %[lo], %[t]\n\t"
      "adoxq %[lo], %[t]\n\t"
      "movq %[t], eyw_off+8(%[acc])\n\t"
      // At most one of CF/OF survives (both adds cannot overflow the same
      // limb), so OR them into the carry-out byte.
      "setc %[cf]\n\t"
      "seto %b[lo]\n\t"
      "orb %b[lo], %[cf]"
      : [cf] "=&r"(cf), [lo] "=&r"(lo), [hi0] "=&r"(hi0), [hi1] "=&r"(hi1),
        [t] "=&r"(t)
      : [y] "r"(y), [acc] "r"(acc), [count] "i"(R), "d"(x)
      : "cc", "memory");
  return cf;
}

/// Rolled-loop variant for the generic (L > kMaxFixedLimbs) fallback.
/// Same dual-chain body; the loop counter is maintained with lea/jrcxz,
/// the two x86 control-flow idioms that leave EFLAGS untouched.
inline unsigned char macc_row_any(ull x, const ull* y, ull* acc, size_t R) {
  unsigned char cf;
  ull lo, hi0, hi1, t;
  const ull* yp = y;
  ull* ap = acc;
  size_t cnt = R;
  asm volatile(
      "xorl %k[hi0], %k[hi0]\n\t"
      "1:\n\t"
      "mulxq (%[y]), %[lo], %[hi1]\n\t"
      "movq (%[acc]), %[t]\n\t"
      "adcxq %[lo], %[t]\n\t"
      "adoxq %[hi0], %[t]\n\t"
      "movq %[t], (%[acc])\n\t"
      "movq %[hi1], %[hi0]\n\t"
      "leaq 8(%[y]), %[y]\n\t"
      "leaq 8(%[acc]), %[acc]\n\t"
      "leaq -1(%%rcx), %%rcx\n\t"
      "jrcxz 2f\n\t"
      "jmp 1b\n\t"
      "2:\n\t"
      "movq (%[acc]), %[t]\n\t"
      "adcxq %[hi0], %[t]\n\t"
      "movl $0, %k[lo]\n\t"
      "adoxq %[lo], %[t]\n\t"
      "movq %[t], (%[acc])\n\t"
      "movq 8(%[acc]), %[t]\n\t"
      "adcxq %[lo], %[t]\n\t"
      "adoxq %[lo], %[t]\n\t"
      "movq %[t], 8(%[acc])\n\t"
      "setc %[cf]\n\t"
      "seto %b[lo]\n\t"
      "orb %b[lo], %[cf]"
      : [cf] "=&r"(cf), [lo] "=&r"(lo), [hi0] "=&r"(hi0), [hi1] "=&r"(hi1),
        [t] "=&r"(t), [y] "+&r"(yp), [acc] "+&r"(ap), "+c"(cnt)
      : "d"(x)
      : "cc", "memory");
  return cf;
}

inline void propagate(unsigned char carry, ull* p) {
  while (carry) {
    carry = _addcarry_u64(carry, *p, 0, p);
    ++p;
  }
}

/// CIOS multiply over a walking window: t starts zeroed (2L+2 limbs);
/// after L iterations the running value sits at t[L..2L] and one
/// conditional subtraction normalizes it below N.
template <size_t L>
void mul_fixed(const ull* a, const ull* b, ull* out, ull* t, const ull* n,
               ull n0inv) {
  std::memset(t, 0, (2 * L + 2) * sizeof(ull));
  for (size_t i = 0; i < L; ++i, ++t) {
    (void)macc_row<L>(a[i], b, t);         // t += a_i * b
    const ull m = t[0] * n0inv;
    (void)macc_row<L>(m, n, t);            // t += m * N; t[0] becomes 0
    // ++t is the division by 2^64. Both carry-outs are provably zero:
    // the running value stays < 2N (< 2^(64L+1)) at every step.
  }
  if (t[L] != 0 || geq(t, n, L)) sub_in_place(t, n, L);
  std::memcpy(out, t, L * sizeof(ull));
}

/// Cross-product rows of the dedicated squaring: row I adds
/// a[I] * a[I+1..L-1] at limb offset 2I+1. Each row is a straight-line
/// macc; the (tiny) carry out of the row window is propagated upward.
template <size_t L, size_t I>
inline void cross_rows(const ull* a, ull* t) {
  if constexpr (I + 1 < L) {
    constexpr size_t R = L - 1 - I;
    const unsigned char c = macc_row<R>(a[I], a + I + 1, t + 2 * I + 1);
    propagate(c, t + 2 * I + 1 + R + 2);
    cross_rows<L, I + 1>(a, t);
  }
}

/// Dedicated squaring: cross products once (triangle), doubled, plus the
/// diagonal — ~1.5 L^2 multiplies vs the 2 L^2 of the fused path — then L
/// Montgomery reduction rows over the same walking window as mul_fixed.
template <size_t L>
void sqr_fixed(const ull* a, ull* out, ull* t, const ull* n, ull n0inv) {
  std::memset(t, 0, (2 * L + 2) * sizeof(ull));
  cross_rows<L, 0>(a, t);

  // Double the triangle, then add the diagonal squares.
  unsigned char c = 0;
#pragma GCC unroll 67
  for (size_t k = 0; k < 2 * L; ++k)
    c = _addcarry_u64(c, t[k], t[k], &t[k]);
  (void)_addcarry_u64(c, t[2 * L], 0, &t[2 * L]);
  c = 0;
#pragma GCC unroll 34
  for (size_t i = 0; i < L; ++i) {
    ull hi;
    const ull lo = _mulx_u64(a[i], a[i], &hi);
    c = _addcarry_u64(c, t[2 * i], lo, &t[2 * i]);
    c = _addcarry_u64(c, t[2 * i + 1], hi, &t[2 * i + 1]);
  }
  (void)_addcarry_u64(c, t[2 * L], 0, &t[2 * L]);

  // Reduction rows: clear one low limb per row; the full 2L-limb product
  // means a row's carry can climb past its window, so propagate.
  for (size_t i = 0; i < L; ++i) {
    const ull m = t[i] * n0inv;
    const unsigned char rc = macc_row<L>(m, n, t + i);
    propagate(rc, t + i + L + 2);
  }
  if (t[2 * L] != 0 || geq(t + L, n, L)) sub_in_place(t + L, n, L);
  std::memcpy(out, t + L, L * sizeof(ull));
}

// ------------------------------------------------------- generic fallback
void mul_any(const ull* a, const ull* b, ull* out, ull* t, const ull* n,
             size_t L, ull n0inv) {
  std::memset(t, 0, (2 * L + 2) * sizeof(ull));
  for (size_t i = 0; i < L; ++i, ++t) {
    (void)macc_row_any(a[i], b, t, L);
    const ull m = t[0] * n0inv;
    (void)macc_row_any(m, n, t, L);
  }
  if (t[L] != 0 || geq(t, n, L)) sub_in_place(t, n, L);
  std::memcpy(out, t, L * sizeof(ull));
}

void sqr_any(const ull* a, ull* out, ull* t, const ull* n, size_t L,
             ull n0inv) {
  std::memset(t, 0, (2 * L + 2) * sizeof(ull));
  for (size_t i = 0; i + 1 < L; ++i) {
    const size_t R = L - 1 - i;
    const unsigned char c = macc_row_any(a[i], a + i + 1, t + 2 * i + 1, R);
    propagate(c, t + 2 * i + 1 + R + 2);
  }
  unsigned char c = 0;
  for (size_t k = 0; k < 2 * L; ++k) c = _addcarry_u64(c, t[k], t[k], &t[k]);
  (void)_addcarry_u64(c, t[2 * L], 0, &t[2 * L]);
  c = 0;
  for (size_t i = 0; i < L; ++i) {
    ull hi;
    const ull lo = _mulx_u64(a[i], a[i], &hi);
    c = _addcarry_u64(c, t[2 * i], lo, &t[2 * i]);
    c = _addcarry_u64(c, t[2 * i + 1], hi, &t[2 * i + 1]);
  }
  (void)_addcarry_u64(c, t[2 * L], 0, &t[2 * L]);
  for (size_t i = 0; i < L; ++i) {
    const ull m = t[i] * n0inv;
    const unsigned char rc = macc_row_any(m, n, t + i, L);
    propagate(rc, t + i + L + 2);
  }
  if (t[2 * L] != 0 || geq(t + L, n, L)) sub_in_place(t + L, n, L);
  std::memcpy(out, t + L, L * sizeof(ull));
}

// ------------------------------------------------- dispatch by limb count
using MulFixed = void (*)(const ull*, const ull*, ull*, ull*, const ull*,
                          ull);
using SqrFixed = void (*)(const ull*, ull*, ull*, const ull*, ull);

template <size_t... Ls>
constexpr auto make_mul_table(std::index_sequence<Ls...>) {
  // Index 0 is unused (L >= 1 always).
  return std::array<MulFixed, sizeof...(Ls)>{
      (Ls == 0 ? nullptr : &mul_fixed<(Ls == 0 ? 1 : Ls)>)...};
}

template <size_t... Ls>
constexpr auto make_sqr_table(std::index_sequence<Ls...>) {
  return std::array<SqrFixed, sizeof...(Ls)>{
      (Ls == 0 ? nullptr : &sqr_fixed<(Ls == 0 ? 1 : Ls)>)...};
}

constexpr auto kMulTable =
    make_mul_table(std::make_index_sequence<kMaxFixedLimbs + 1>{});
constexpr auto kSqrTable =
    make_sqr_table(std::make_index_sequence<kMaxFixedLimbs + 1>{});

void adx_mul(const std::uint64_t* a, const std::uint64_t* b,
             std::uint64_t* out, std::uint64_t* scratch,
             const std::uint64_t* n, size_t L, std::uint64_t n0inv) {
  const ull* av = reinterpret_cast<const ull*>(a);
  const ull* bv = reinterpret_cast<const ull*>(b);
  const ull* nv = reinterpret_cast<const ull*>(n);
  ull* ov = reinterpret_cast<ull*>(out);
  ull* t = reinterpret_cast<ull*>(scratch);
  if (L <= kMaxFixedLimbs) {
    kMulTable[L](av, bv, ov, t, nv, n0inv);
  } else {
    mul_any(av, bv, ov, t, nv, L, n0inv);
  }
}

void adx_sqr(const std::uint64_t* a, std::uint64_t* out,
             std::uint64_t* scratch, const std::uint64_t* n, size_t L,
             std::uint64_t n0inv) {
  const ull* av = reinterpret_cast<const ull*>(a);
  const ull* nv = reinterpret_cast<const ull*>(n);
  ull* ov = reinterpret_cast<ull*>(out);
  ull* t = reinterpret_cast<ull*>(scratch);
  if (L <= kMaxFixedLimbs) {
    kSqrTable[L](av, ov, t, nv, n0inv);
  } else {
    sqr_any(av, ov, t, nv, L, n0inv);
  }
}

constexpr MontKernel kAdx{adx_mul, adx_sqr, nullptr, "adx"};

}  // namespace

const MontKernel& adx_kernel_impl() noexcept { return kAdx; }

}  // namespace eyw::crypto::detail

#endif  // EYW_HAVE_ADX_KERNEL
