// Montgomery-form modular arithmetic over 64-bit limbs.
//
// The protocol's public-key hot path — RSA-OPRF blinding/evaluation and
// per-pair DH key agreement — is dominated by modexp over a fixed odd
// modulus. A Montgomery context precomputes everything that depends only on
// the modulus (N', R^2 mod N) once, then every multiplication is a single
// CIOS (coarsely integrated operand scanning) pass: one fused
// multiply-reduce instead of a schoolbook multiply followed by a quadratic
// divmod. Exponentiation uses a fixed 4-bit window, cutting multiplies per
// exponent bit from ~1.5 (square-and-multiply) to ~1.25/4.
//
// The CIOS pass itself is a pluggable kernel (crypto/mont_kernel.hpp): the
// portable u128 loop everywhere, a BMI2/ADX `mulx`/`adcx`/`adox` kernel
// selected by CPUID at runtime on hardware that has it, and the ifma
// kernel, which adds an AVX-512 IFMA ladder raising eight bases to one
// shared exponent per pass. A context captures the kernel once at
// construction; Montgomery(m, kernel) pins an explicit one (how the
// differential tests and benches compare backends).
//
// Batches share one exponent: a DH member's private key across its
// peers, dp/dq across an OPRF batch, e on the client. modexp_batch runs
// groups of up to kMontLanes bases on the vector ladder where the kernel
// has one and the modulus fits a ladder width, and a lone base, or every
// base on the other kernels, through one scalar ladder per base over the
// window digits it cuts once. Every path returns canonical residues, so
// results are bit-identical across kernels.
//
// Contexts are immutable after construction and safe to share across
// threads; the parallel round pipeline relies on this. shared_for()
// returns a process-wide cached context so repeated-modulus hot paths
// (client blinding against the oprf-server's fixed N, Bignum::modexp
// dispatch) skip the R^2-mod-N setup divmod.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "crypto/bignum.hpp"
#include "crypto/mont_kernel.hpp"

namespace eyw::crypto {

class Montgomery {
 public:
  /// Precompute a context for an odd modulus > 1, on the runtime-selected
  /// kernel. Throws std::invalid_argument otherwise (Montgomery reduction
  /// requires gcd(R, N) = 1, i.e. N odd).
  explicit Montgomery(const Bignum& modulus);
  /// Same, pinned to an explicit kernel (backend comparisons and tests).
  Montgomery(const Bignum& modulus, const MontKernel& kernel);

  /// Process-wide cached context for `modulus` (small MRU cache keyed by
  /// value). Hot paths that see the same modulus repeatedly — every call
  /// against the oprf-server's fixed public N — reuse the precomputation
  /// instead of redoing the setup divmod per call/instance.
  [[nodiscard]] static std::shared_ptr<const Montgomery> shared_for(
      const Bignum& modulus);

  [[nodiscard]] const Bignum& modulus() const noexcept { return modulus_; }
  /// Limbs per residue (the word size L of the CIOS loops).
  [[nodiscard]] std::size_t limb_count() const noexcept { return n_.size(); }
  /// Kernel this context runs on: "portable", "adx" or "ifma".
  [[nodiscard]] const char* kernel_name() const noexcept {
    return kernel_->name;
  }

  /// (a * b) mod N.
  [[nodiscard]] Bignum modmul(const Bignum& a, const Bignum& b) const;
  /// (base ^ exp) mod N via fixed 4-bit-window Montgomery exponentiation.
  [[nodiscard]] Bignum modexp(const Bignum& base, const Bignum& exp) const;

  /// bases[i]^exp mod N for every i, one shared exponent. Full groups of
  /// kMontLanes run on the kernel's vector ladder when it has one at this
  /// modulus' width; a partial group runs padded from kMontLadderMinLanes
  /// live lanes and on the scalar kernel below; without a ladder every
  /// base runs its own scalar ladder, as modexp() would. Results are
  /// identical to per-element modexp().
  [[nodiscard]] std::vector<Bignum> modexp_batch(
      std::span<const Bignum> bases, const Bignum& exp) const;
  /// Bases one modexp_batch pass raises: kMontLanes where the kernel's
  /// vector ladder covers this modulus' width, 1 otherwise. Callers that
  /// fan a batch out across threads chunk it by this, so that a scalar
  /// kernel still gets one task per base.
  [[nodiscard]] std::size_t batch_lanes() const noexcept;

  // Raw Montgomery-domain interface, for callers that chain many
  // operations on residues (e.g. the Miller-Rabin squaring ladder) and
  // want to pay the domain conversions only once. Vectors always have
  // exactly limb_count() limbs.

  /// aR mod N. `a` may be >= N (it is reduced first).
  [[nodiscard]] std::vector<std::uint64_t> to_mont(const Bignum& a) const;
  /// a / R mod N.
  [[nodiscard]] Bignum from_mont(const std::vector<std::uint64_t>& a) const;
  /// Montgomery product abR^-1 mod N of two domain values.
  [[nodiscard]] std::vector<std::uint64_t> mont_mul(
      const std::vector<std::uint64_t>& a,
      const std::vector<std::uint64_t>& b) const;
  /// modexp whose result stays in the Montgomery domain (callers that keep
  /// chaining domain operations skip the exit conversion).
  [[nodiscard]] std::vector<std::uint64_t> modexp_mont(
      const Bignum& base, const Bignum& exp) const;
  /// R mod N — the domain representation of 1.
  [[nodiscard]] const std::vector<std::uint64_t>& one_mont() const noexcept {
    return one_;
  }

 private:
  friend class MontFixedBase;

  /// Kernel trampoline: out <- a*b*R^-1 mod N. `scratch` must hold
  /// mont_kernel_scratch_limbs(L) limbs and may not alias anything; out
  /// may alias a or b.
  void cios(const std::uint64_t* a, const std::uint64_t* b,
            std::uint64_t* out, std::uint64_t* scratch) const;
  /// Kernel trampoline for the dedicated squaring: out <- a*a*R^-1 mod N.
  void cios_sqr(const std::uint64_t* a, std::uint64_t* out,
                std::uint64_t* scratch) const;
  /// The scalar ladder: base^exp in the domain, where `digits` are the
  /// exponent's `window`-bit digits, most significant first (nonzero).
  [[nodiscard]] std::vector<std::uint64_t> ladder_mont(
      const Bignum& base, std::span<const std::uint8_t> digits,
      std::size_t window) const;
  /// `a` reduced mod N, as L little-endian limbs.
  [[nodiscard]] std::vector<std::uint64_t> reduced_limbs(
      const Bignum& a) const;

  Bignum modulus_;
  const MontKernel* kernel_;        // captured once; never null
  std::vector<std::uint64_t> n_;    // modulus limbs, length L
  std::vector<std::uint64_t> rr_;   // R^2 mod N (domain-entry factor)
  std::vector<std::uint64_t> one_;  // R mod N
  std::uint64_t n0inv_ = 0;         // -N^-1 mod 2^64
};

/// Fixed-base exponentiation with a precomputed window table (HAC 14.109):
/// store base^(2^(w*i)) for every w-bit window of the exponent once, then
/// each exponentiation costs at most ceil(bits/w) + 2^w multiplications and
/// ZERO squarings. The DH roster raises the same generator g for every
/// keypair, so one table per group amortizes across the whole roster
/// (crypto::DhContext owns exactly that pairing).
///
/// The referenced Montgomery context must outlive the table. Immutable
/// after construction; safe to share across threads.
class MontFixedBase {
 public:
  /// Table sized to modulus-width exponents (every DH secret is < p).
  MontFixedBase(const Montgomery& mont, const Bignum& base);

  [[nodiscard]] const Bignum& base() const noexcept { return base_; }

  /// base^exp mod N. Exponents wider than the modulus fall back to the
  /// plain ladder (never wrong, just unamortized).
  [[nodiscard]] Bignum modexp(const Bignum& exp) const;
  /// Same, result left in the Montgomery domain.
  [[nodiscard]] std::vector<std::uint64_t> modexp_mont(
      const Bignum& exp) const;

 private:
  const Montgomery* mont_;
  Bignum base_;
  std::size_t window_;
  std::size_t max_bits_;
  std::vector<std::vector<std::uint64_t>> table_;  // base^(2^(w*i)), mont
};

}  // namespace eyw::crypto
