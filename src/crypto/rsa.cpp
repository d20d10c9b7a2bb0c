#include "crypto/rsa.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "crypto/montgomery.hpp"
#include "crypto/prime.hpp"

namespace eyw::crypto {

RsaKeyPair rsa_generate(util::Rng& rng, std::size_t modulus_bits) {
  if (modulus_bits < 128 || modulus_bits % 2 != 0)
    throw std::invalid_argument("rsa_generate: modulus_bits must be even, >= 128");
  const Bignum e(65537);
  const Bignum one(1);
  const std::size_t half = modulus_bits / 2;
  for (;;) {
    const Bignum p = generate_rsa_prime(rng, half, e);
    Bignum q = generate_rsa_prime(rng, half, e);
    while (q == p) q = generate_rsa_prime(rng, half, e);
    const Bignum n = p.mul(q);
    if (n.bit_length() != modulus_bits) continue;  // product lost a bit
    const Bignum p1 = p.sub(one);
    const Bignum q1 = q.sub(one);
    const Bignum phi = p1.mul(q1);
    const Bignum d = Bignum::modinv(e, phi);
    return {.pub = {.n = n, .e = e},
            .d = d,
            .p = p,
            .q = q,
            .dp = d.mod(p1),
            .dq = d.mod(q1),
            .qinv = Bignum::modinv(q, p)};
  }
}

Bignum rsa_public_apply(const RsaPublicKey& pub, const Bignum& x) {
  if (x >= pub.n) throw std::invalid_argument("rsa_public_apply: x >= n");
  return Bignum::modexp(x, pub.e, pub.n);
}

namespace {
// CRT + Garner: m1 = x^dp mod p, m2 = x^dq mod q,
// m = m2 + q * (qinv * (m1 - m2) mod p).
Bignum crt_apply(const RsaKeyPair& key, const Montgomery& mp,
                 const Montgomery& mq, const Bignum& x) {
  const Bignum m1 = mp.modexp(x, key.dp);
  const Bignum m2 = mq.modexp(x, key.dq);
  const Bignum m2_mod_p = m2 >= key.p ? m2.mod(key.p) : m2;
  const Bignum diff =
      m1 >= m2_mod_p ? m1.sub(m2_mod_p) : m1.add(key.p).sub(m2_mod_p);
  const Bignum h = mp.modmul(key.qinv, diff);
  return m2.add(h.mul(key.q));
}
}  // namespace

Bignum rsa_private_apply(const RsaKeyPair& key, const Bignum& x) {
  if (x >= key.pub.n) throw std::invalid_argument("rsa_private_apply: x >= n");
  if (!key.has_crt()) return Bignum::modexp(x, key.d, key.pub.n);
  return crt_apply(key, Montgomery(key.p), Montgomery(key.q), x);
}

RsaPrivateContext::RsaPrivateContext(RsaKeyPair key) : key_(std::move(key)) {
  if (key_.has_crt()) {
    mp_.emplace(key_.p);
    mq_.emplace(key_.q);
  } else {
    mn_.emplace(key_.pub.n);
  }
}

Bignum RsaPrivateContext::private_apply(const Bignum& x) const {
  if (x >= key_.pub.n)
    throw std::invalid_argument("rsa_private_apply: x >= n");
  if (mp_) return crt_apply(key_, *mp_, *mq_, x);
  return mn_->modexp(x, key_.d);
}

std::vector<Bignum> RsaPrivateContext::private_apply_batch(
    std::span<const Bignum> xs) const {
  for (const Bignum& x : xs)
    if (x >= key_.pub.n)
      throw std::invalid_argument("rsa_private_apply: x >= n");
  if (!mp_) return mn_->modexp_batch(xs, key_.d);
  // Both CRT halves batch over their shared exponents; Garner
  // recombination is cheap (one modmul and one schoolbook multiply per
  // element).
  const std::vector<Bignum> m1 = mp_->modexp_batch(xs, key_.dp);
  const std::vector<Bignum> m2 = mq_->modexp_batch(xs, key_.dq);
  std::vector<Bignum> out;
  out.reserve(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const Bignum m2_mod_p = m2[i] >= key_.p ? m2[i].mod(key_.p) : m2[i];
    const Bignum diff = m1[i] >= m2_mod_p ? m1[i].sub(m2_mod_p)
                                          : m1[i].add(key_.p).sub(m2_mod_p);
    const Bignum h = mp_->modmul(key_.qinv, diff);
    out.push_back(m2[i].add(h.mul(key_.q)));
  }
  return out;
}

}  // namespace eyw::crypto
