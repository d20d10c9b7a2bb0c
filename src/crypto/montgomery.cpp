#include "crypto/montgomery.hpp"

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <stdexcept>

namespace eyw::crypto {

namespace {
using u64 = std::uint64_t;

constexpr u64 kMask52 = (u64{1} << 52) - 1;

std::size_t window_bits_for(std::size_t exp_bits) noexcept {
  // Fixed window, sized to the exponent: the 2^w-2 table multiplies only
  // pay off once the ladder is long enough to amortize them (e = 65537 and
  // the g^2 probes in DH group generation would otherwise spend more on
  // the table than on the ladder).
  return exp_bits >= 128 ? 4 : exp_bits >= 24 ? 2 : 1;
}

std::size_t window_digit(const Bignum& exp, std::size_t window,
                         std::size_t w) noexcept {
  std::size_t v = 0;
  for (std::size_t b = 0; b < window; ++b)
    v |= static_cast<std::size_t>(exp.bit(w * window + b)) << b;
  return v;
}

/// A nonzero exponent cut into fixed windows, most significant first (the
/// first digit is nonzero).
struct WindowDigits {
  std::size_t window = 0;
  std::vector<std::uint8_t> digits;
};

WindowDigits window_digits(const Bignum& exp) {
  WindowDigits out;
  const std::size_t bits = exp.bit_length();
  out.window = window_bits_for(bits);
  const std::size_t windows = (bits + out.window - 1) / out.window;
  out.digits.resize(windows);
  for (std::size_t k = 0; k < windows; ++k)
    out.digits[k] = static_cast<std::uint8_t>(
        window_digit(exp, out.window, windows - 1 - k));
  return out;
}

/// Radix 2^64 -> radix 2^52: `out` gets the low 52 * out_limbs bits of x.
void to_radix52(std::span<const u64> x, u64* out, std::size_t out_limbs) {
  for (std::size_t k = 0; k < out_limbs; ++k) {
    const std::size_t limb = 52 * k / 64;
    const std::size_t off = 52 * k % 64;
    u64 v = limb < x.size() ? x[limb] >> off : 0;
    if (off > 12 && limb + 1 < x.size()) v |= x[limb + 1] << (64 - off);
    out[k] = v & kMask52;
  }
}

/// N as a `limbs`-wide vector ladder sees it, with R' = 2^(52 limbs):
/// -N^-1 mod 2^52 is the low bits of the radix-2^64 context's n0inv, and
/// R'^2 mod N takes one divmod. Built per batch, so contexts that never
/// batch (one per prime candidate in a prime search) never pay for it.
MontLadderModulus ladder_modulus(const Bignum& modulus, u64 n0inv,
                                 std::size_t limbs) {
  MontLadderModulus m;
  m.limbs = limbs;
  m.k0 = n0inv & kMask52;
  m.n.resize(limbs);
  to_radix52(modulus.limbs(), m.n.data(), limbs);
  const Bignum rr = Bignum(1).shl(104 * limbs).mod(modulus);
  m.rr.resize(limbs);
  to_radix52(rr.limbs(), m.rr.data(), limbs);
  return m;
}

/// Radix 2^52 -> radix 2^64, for a value that fits `out_limbs` limbs.
std::vector<u64> from_radix52(const u64* x, std::size_t limbs,
                              std::size_t out_limbs) {
  std::vector<u64> out(out_limbs, 0);
  for (std::size_t k = 0; k < limbs; ++k) {
    const std::size_t limb = 52 * k / 64;
    const std::size_t off = 52 * k % 64;
    if (limb < out_limbs) out[limb] |= x[k] << off;
    if (off > 12 && limb + 1 < out_limbs) out[limb + 1] |= x[k] >> (64 - off);
  }
  return out;
}
}  // namespace

Montgomery::Montgomery(const Bignum& modulus)
    : Montgomery(modulus, active_mont_kernel()) {}

Montgomery::Montgomery(const Bignum& modulus, const MontKernel& kernel)
    : modulus_(modulus), kernel_(&kernel) {
  if (modulus.is_zero() || modulus.is_one() || !modulus.is_odd())
    throw std::invalid_argument("Montgomery: modulus must be odd and > 1");
  const auto limbs = modulus.limbs();
  n_.assign(limbs.begin(), limbs.end());
  // -N^-1 mod 2^64 for odd N, by Newton iteration (doubles correct bits
  // per step: 5 iterations reach all 64 from the 3 that x = n provides).
  u64 x = n_[0];
  for (int i = 0; i < 5; ++i) x *= 2 - n_[0] * x;
  n0inv_ = ~x + 1;

  const std::size_t L = n_.size();
  // R^2 mod N with R = 2^(64L), via one divmod at setup.
  const Bignum r2 = Bignum(1).shl(128 * L).mod(modulus);
  rr_.assign(L, 0);
  const auto r2_limbs = r2.limbs();
  std::copy(r2_limbs.begin(), r2_limbs.end(), rr_.begin());

  const Bignum r1 = Bignum(1).shl(64 * L).mod(modulus);
  one_.assign(L, 0);
  const auto r1_limbs = r1.limbs();
  std::copy(r1_limbs.begin(), r1_limbs.end(), one_.begin());
}

std::shared_ptr<const Montgomery> Montgomery::shared_for(
    const Bignum& modulus) {
  // Tiny MRU list: the process only ever sees a handful of long-lived
  // moduli (the oprf-server's N, the DH group p, RSA p/q), so a linear
  // scan under one mutex beats a map; construction happens outside no
  // lock hazards because Montgomery's ctor only reads `modulus`.
  static std::mutex mu;
  static std::vector<std::shared_ptr<const Montgomery>> cache;
  constexpr std::size_t kMaxEntries = 16;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (auto it = cache.begin(); it != cache.end(); ++it) {
      if ((*it)->modulus() == modulus) {
        auto hit = *it;
        cache.erase(it);
        cache.insert(cache.begin(), hit);
        return hit;
      }
    }
  }
  auto fresh = std::make_shared<const Montgomery>(modulus);
  std::lock_guard<std::mutex> lock(mu);
  for (const auto& entry : cache) {
    if (entry->modulus() == modulus) return entry;  // raced: reuse theirs
  }
  cache.insert(cache.begin(), fresh);
  if (cache.size() > kMaxEntries) cache.pop_back();
  return fresh;
}

void Montgomery::cios(const u64* a, const u64* b, u64* out,
                      u64* scratch) const {
  kernel_->mul(a, b, out, scratch, n_.data(), n_.size(), n0inv_);
}

void Montgomery::cios_sqr(const u64* a, u64* out, u64* scratch) const {
  kernel_->sqr(a, out, scratch, n_.data(), n_.size(), n0inv_);
}

std::vector<u64> Montgomery::mont_mul(const std::vector<u64>& a,
                                      const std::vector<u64>& b) const {
  std::vector<u64> out(n_.size());
  std::vector<u64> scratch(mont_kernel_scratch_limbs(n_.size()));
  if (&a == &b) {
    cios_sqr(a.data(), out.data(), scratch.data());
  } else {
    cios(a.data(), b.data(), out.data(), scratch.data());
  }
  return out;
}

std::vector<u64> Montgomery::reduced_limbs(const Bignum& a) const {
  const Bignum reduced = a >= modulus_ ? a.mod(modulus_) : a;
  std::vector<u64> av(n_.size(), 0);
  const auto limbs = reduced.limbs();
  std::copy(limbs.begin(), limbs.end(), av.begin());
  return av;
}

std::vector<u64> Montgomery::to_mont(const Bignum& a) const {
  const std::size_t L = n_.size();
  const std::vector<u64> av = reduced_limbs(a);
  std::vector<u64> out(L);
  std::vector<u64> scratch(mont_kernel_scratch_limbs(L));
  cios(av.data(), rr_.data(), out.data(), scratch.data());
  return out;
}

Bignum Montgomery::from_mont(const std::vector<u64>& a) const {
  const std::size_t L = n_.size();
  std::vector<u64> one(L, 0);
  one[0] = 1;
  std::vector<u64> out(L);
  std::vector<u64> scratch(mont_kernel_scratch_limbs(L));
  cios(a.data(), one.data(), out.data(), scratch.data());
  return Bignum::from_limbs(std::move(out));
}

Bignum Montgomery::modmul(const Bignum& a, const Bignum& b) const {
  // Only a enters the domain: (aR) * b * R^-1 = a*b mod N. Two CIOS
  // passes total instead of the four of convert-both-then-exit.
  std::vector<u64> scratch(mont_kernel_scratch_limbs(n_.size()));
  std::vector<u64> am = to_mont(a);
  const std::vector<u64> bv = reduced_limbs(b);
  cios(am.data(), bv.data(), am.data(), scratch.data());
  return Bignum::from_limbs(std::move(am));
}

Bignum Montgomery::modexp(const Bignum& base, const Bignum& exp) const {
  return from_mont(modexp_mont(base, exp));
}

std::vector<u64> Montgomery::modexp_mont(const Bignum& base,
                                         const Bignum& exp) const {
  if (exp.is_zero()) return one_;  // x^0 = 1 mod N
  const WindowDigits wd = window_digits(exp);
  return ladder_mont(base, wd.digits, wd.window);
}

std::vector<u64> Montgomery::ladder_mont(const Bignum& base,
                                         std::span<const std::uint8_t> digits,
                                         std::size_t window) const {
  const std::size_t L = n_.size();
  std::vector<u64> scratch(mont_kernel_scratch_limbs(L));
  // base^d in the domain for digit d at [d * L]; entry 0 is never read.
  std::vector<u64> table((std::size_t{1} << window) * L);
  const auto entry = [&](std::size_t d) { return table.data() + d * L; };
  const std::vector<u64> reduced = reduced_limbs(base);
  cios(reduced.data(), rr_.data(), entry(1), scratch.data());
  for (std::size_t d = 2; d < (std::size_t{1} << window); ++d)
    cios(entry(d - 1), entry(1), entry(d), scratch.data());

  std::vector<u64> acc(entry(digits[0]), entry(digits[0]) + L);
  for (std::size_t w = 1; w < digits.size(); ++w) {
    for (std::size_t s = 0; s < window; ++s)
      cios_sqr(acc.data(), acc.data(), scratch.data());
    if (digits[w] != 0)
      cios(acc.data(), entry(digits[w]), acc.data(), scratch.data());
  }
  return acc;
}

std::size_t Montgomery::batch_lanes() const noexcept {
  return kernel_->ladder != nullptr &&
                 mont_ladder_limbs(modulus_.bit_length()) != 0
             ? kMontLanes
             : 1;
}

std::vector<Bignum> Montgomery::modexp_batch(std::span<const Bignum> bases,
                                             const Bignum& exp) const {
  const std::size_t K = bases.size();
  if (exp.is_zero()) return std::vector<Bignum>(K, Bignum(1));  // N > 1
  const WindowDigits wd = window_digits(exp);
  const std::size_t L = n_.size();
  const std::size_t width =
      kernel_->ladder != nullptr ? mont_ladder_limbs(modulus_.bit_length())
                                 : 0;
  const MontLadderModulus ladder =
      width != 0 && K >= kMontLadderMinLanes
          ? ladder_modulus(modulus_, n0inv_, width)
          : MontLadderModulus{};
  const std::size_t L52 = ladder.limbs;
  std::vector<Bignum> out;
  out.reserve(K);
  std::vector<u64> lanes(kMontLanes * L52);
  std::vector<u64> results(kMontLanes * L52);
  for (std::size_t off = 0; off < K; off += kMontLanes) {
    const std::span<const Bignum> group =
        bases.subspan(off, std::min(kMontLanes, K - off));
    if (L52 != 0 && group.size() >= kMontLadderMinLanes) {
      // Lanes past the group's end raise 0 and are dropped.
      std::fill(lanes.begin(), lanes.end(), 0);
      for (std::size_t i = 0; i < group.size(); ++i)
        to_radix52(reduced_limbs(group[i]), lanes.data() + i * L52, L52);
      kernel_->ladder(ladder, lanes.data(), wd.digits.data(),
                      wd.digits.size(), wd.window, results.data());
      for (std::size_t i = 0; i < group.size(); ++i)
        out.push_back(
            Bignum::from_limbs(from_radix52(results.data() + i * L52, L52, L)));
      continue;
    }
    // No ladder at this width, or too few live lanes to fill a pass: one
    // scalar ladder per base, over the digits cut once for the batch.
    for (const Bignum& base : group)
      out.push_back(from_mont(ladder_mont(base, wd.digits, wd.window)));
  }
  return out;
}

// ---------------------------------------------------------- MontFixedBase

MontFixedBase::MontFixedBase(const Montgomery& mont, const Bignum& base)
    : mont_(&mont),
      base_(base),
      window_(4),
      max_bits_(mont.modulus().bit_length()) {
  const std::size_t L = mont.limb_count();
  const std::size_t windows = (max_bits_ + window_ - 1) / window_;
  std::vector<u64> scratch(mont_kernel_scratch_limbs(L));
  // g_i = base^(2^(w*i)): one walk of max_bits_ squarings, storing every
  // w-th point — table cost == one plain exponentiation, paid once per
  // group and amortized over the whole roster.
  std::vector<u64> cur = mont.to_mont(base);
  table_.reserve(windows);
  for (std::size_t i = 0; i < windows; ++i) {
    table_.push_back(cur);
    for (std::size_t s = 0; s < window_; ++s)
      mont_->cios_sqr(cur.data(), cur.data(), scratch.data());
  }
}

Bignum MontFixedBase::modexp(const Bignum& exp) const {
  return mont_->from_mont(modexp_mont(exp));
}

std::vector<u64> MontFixedBase::modexp_mont(const Bignum& exp) const {
  const std::size_t bits = exp.bit_length();
  if (bits == 0) return mont_->one_mont();
  if (bits > max_bits_) return mont_->modexp_mont(base_, exp);

  const std::size_t L = mont_->limb_count();
  std::vector<u64> scratch(mont_kernel_scratch_limbs(L));
  const std::size_t windows =
      std::min(table_.size(), (bits + window_ - 1) / window_);

  // Yao / HAC 14.109 evaluation: base^exp = prod_j (prod_{e_i == j} g_i)^j.
  // B walks the digit values j from high to low accumulating the g_i with
  // digit j; A accumulates B once per j, so each group lands in A exactly
  // j times. No squarings at all — the table already carries them.
  std::vector<u64> a_acc;
  std::vector<u64> b_acc;
  bool a_one = true;
  bool b_one = true;
  for (std::size_t j = (std::size_t{1} << window_) - 1; j >= 1; --j) {
    for (std::size_t i = 0; i < windows; ++i) {
      if (window_digit(exp, window_, i) != j) continue;
      if (b_one) {
        b_acc = table_[i];
        b_one = false;
      } else {
        mont_->cios(b_acc.data(), table_[i].data(), b_acc.data(),
                    scratch.data());
      }
    }
    if (b_one) continue;  // nothing accumulated yet; A * 1 is a no-op
    if (a_one) {
      a_acc = b_acc;
      a_one = false;
    } else {
      mont_->cios(a_acc.data(), b_acc.data(), a_acc.data(), scratch.data());
    }
  }
  return a_one ? mont_->one_mont() : a_acc;
}

}  // namespace eyw::crypto
