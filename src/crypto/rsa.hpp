// Textbook RSA keypair generation and exponentiation primitives.
//
// Used only as the substrate of the RSA-based blind-signature OPRF
// (Jarecki-Liu style, Section 6 of the paper): the oprf-server holds d, the
// public (N, e) is published, and "signing" is a raw modular exponentiation
// on an already-hashed, blinded element. No padding is involved by design.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "crypto/bignum.hpp"
#include "crypto/montgomery.hpp"
#include "util/rng.hpp"

namespace eyw::crypto {

struct RsaPublicKey {
  Bignum n;
  Bignum e;

  /// Modulus size in whole bytes (ceiling).
  [[nodiscard]] std::size_t modulus_bytes() const {
    return (n.bit_length() + 7) / 8;
  }
};

struct RsaKeyPair {
  RsaPublicKey pub;
  Bignum d;
  // CRT components (Garner recombination): the private operation becomes
  // two half-size exponentiations mod p and mod q — ~4x fewer limb
  // operations than one full-size modexp. Keys built without them (all
  // zero) fall back to the plain d-exponentiation.
  Bignum p;
  Bignum q;
  Bignum dp;    // d mod (p-1)
  Bignum dq;    // d mod (q-1)
  Bignum qinv;  // q^-1 mod p

  [[nodiscard]] bool has_crt() const noexcept { return !p.is_zero(); }
};

/// Generate an RSA keypair with a modulus of `modulus_bits` bits and
/// public exponent 65537. `modulus_bits` must be >= 128 and even.
[[nodiscard]] RsaKeyPair rsa_generate(util::Rng& rng, std::size_t modulus_bits);

/// x^e mod n (public operation).
[[nodiscard]] Bignum rsa_public_apply(const RsaPublicKey& pub, const Bignum& x);

/// x^d mod n (private operation). Uses CRT when the key carries the
/// components. Builds Montgomery contexts per call; long-lived holders of a
/// key should use RsaPrivateContext instead.
[[nodiscard]] Bignum rsa_private_apply(const RsaKeyPair& key, const Bignum& x);

/// A private key plus its precomputed Montgomery contexts (mod p, mod q for
/// CRT keys; mod n otherwise). Immutable after construction and safe to
/// share across threads — the batch OPRF evaluation path relies on this.
class RsaPrivateContext {
 public:
  explicit RsaPrivateContext(RsaKeyPair key);

  [[nodiscard]] const RsaKeyPair& key() const noexcept { return key_; }
  [[nodiscard]] const RsaPublicKey& pub() const noexcept { return key_.pub; }

  /// x^d mod n, via CRT when available.
  [[nodiscard]] Bignum private_apply(const Bignum& x) const;

  /// Batch private operation, order preserved, results identical to
  /// per-element private_apply(). Both CRT halves run through
  /// Montgomery::modexp_batch, which raises eight elements per vector
  /// ladder pass to the shared dp (dq) where the kernel has one.
  [[nodiscard]] std::vector<Bignum> private_apply_batch(
      std::span<const Bignum> xs) const;

 private:
  RsaKeyPair key_;
  std::optional<Montgomery> mp_;  // mod p (CRT keys)
  std::optional<Montgomery> mq_;  // mod q (CRT keys)
  std::optional<Montgomery> mn_;  // mod n (fallback keys)
};

}  // namespace eyw::crypto
