#include "crypto/oprf.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/hex.hpp"
#include "util/thread_pool.hpp"

namespace eyw::crypto {

Bignum hash_to_zn(std::string_view input, const Bignum& n) {
  const std::size_t len = n.limb_count() * 8 + 16;  // oversample, then reduce
  std::uint64_t counter = 0;
  for (;;) {
    Sha256 seed;
    seed.update("eyw-oprf-h2zn");
    seed.update(input);
    seed.update_u64(counter++);
    const Digest d = seed.finish();
    const auto stream = sha256_expand(
        std::span<const std::uint8_t>(d.data(), d.size()), len);
    const Bignum v = Bignum::from_bytes_be(
        std::span<const std::uint8_t>(stream.data(), stream.size()));
    const Bignum reduced = v.mod(n);
    if (!reduced.is_zero() && !reduced.is_one()) return reduced;
  }
}

OprfServer::OprfServer(util::Rng& rng, std::size_t modulus_bits)
    : ctx_(rsa_generate(rng, modulus_bits)) {}

OprfServer::OprfServer(RsaKeyPair key) : ctx_(std::move(key)) {}

Bignum OprfServer::evaluate_blinded(const Bignum& blinded) const {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  return ctx_.private_apply(blinded);
}

std::vector<Bignum> OprfServer::evaluate_blinded_batch(
    std::span<const Bignum> blinded) const {
  // Two levels of parallelism: chunks of one ladder group fan out across
  // the thread pool, and within a chunk private_apply_batch raises all
  // kMontLanes elements to dp (dq) in one vector ladder pass.
  constexpr std::size_t kChunk = kMontLanes;
  const std::size_t chunks = (blinded.size() + kChunk - 1) / kChunk;
  std::vector<std::vector<Bignum>> parts(chunks);
  util::ThreadPool::shared().parallel_for(chunks, [&](std::size_t c) {
    const std::size_t off = c * kChunk;
    parts[c] = ctx_.private_apply_batch(
        blinded.subspan(off, std::min(kChunk, blinded.size() - off)));
  });
  std::vector<Bignum> out;
  out.reserve(blinded.size());
  for (auto& part : parts)
    for (Bignum& b : part) out.push_back(std::move(b));
  evaluations_.fetch_add(blinded.size(), std::memory_order_relaxed);
  return out;
}

OprfOutput OprfServer::evaluate_direct(std::string_view input) const {
  const Bignum h = hash_to_zn(input, ctx_.pub().n);
  const Bignum sig = ctx_.private_apply(h);
  const auto bytes = sig.to_bytes_be(ctx_.pub().modulus_bytes());
  Sha256 g;
  g.update("eyw-oprf-g");
  g.update(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  return {.prf = g.finish()};
}

OprfClient::OprfClient(RsaPublicKey server_public)
    : pub_(std::move(server_public)), mont_(Montgomery::shared_for(pub_.n)) {}

namespace {
/// r uniform in [2, N-1] and invertible mod N. A non-invertible r would
/// factor N, so in practice the first draw succeeds.
Bignum draw_blinding_factor(util::Rng& rng, const Bignum& n) {
  for (;;) {
    Bignum r = Bignum::random_below(rng, n);
    if (r.is_zero() || r.is_one()) continue;
    if (Bignum::gcd(r, n).is_one()) return r;
  }
}

OprfOutput output_hash(const Bignum& unblinded, std::size_t modulus_bytes) {
  const auto bytes = unblinded.to_bytes_be(modulus_bytes);
  Sha256 g;
  g.update("eyw-oprf-g");
  g.update(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  return {.prf = g.finish()};
}
}  // namespace

OprfBlinded OprfClient::blind(std::string_view input, util::Rng& rng) const {
  const Bignum h = hash_to_zn(input, pub_.n);
  const Bignum r = draw_blinding_factor(rng, pub_.n);
  const Bignum r_e = mont_->modexp(r, pub_.e);
  return {.blinded_element = mont_->modmul(h, r_e), .r = r};
}

std::vector<OprfBlinded> OprfClient::blind_batch(
    std::span<const std::string_view> inputs, util::Rng& rng) const {
  // Hashes and r-draws first, in input order — the rng consumes exactly
  // the sequence repeated blind() calls would, so the outputs (and any
  // seeded test fixture built on them) are bit-identical. The r^e ladders
  // then run as one shared-exponent batch.
  std::vector<Bignum> hs;
  std::vector<Bignum> rs;
  hs.reserve(inputs.size());
  rs.reserve(inputs.size());
  for (const std::string_view input : inputs) {
    hs.push_back(hash_to_zn(input, pub_.n));
    rs.push_back(draw_blinding_factor(rng, pub_.n));
  }
  const std::vector<Bignum> r_es =
      mont_->modexp_batch(std::span<const Bignum>(rs), pub_.e);
  std::vector<OprfBlinded> out;
  out.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    out.push_back({.blinded_element = mont_->modmul(hs[i], r_es[i]),
                   .r = std::move(rs[i])});
  return out;
}

OprfOutput OprfClient::finalize(std::string_view input,
                                const OprfBlinded& blinded,
                                const Bignum& server_response) const {
  const Bignum r_inv = Bignum::modinv(blinded.r, pub_.n);
  const Bignum unblinded = mont_->modmul(server_response, r_inv);
  // Verify the blind signature: unblinded^e must equal H(x). This makes a
  // malicious or misconfigured oprf-server detectable by every client.
  const Bignum h = hash_to_zn(input, pub_.n);
  if (mont_->modexp(unblinded, pub_.e) != h)
    throw std::runtime_error("OprfClient::finalize: invalid server response");
  return output_hash(unblinded, pub_.modulus_bytes());
}

std::vector<OprfOutput> OprfClient::finalize_batch(
    std::span<const std::string_view> inputs,
    std::span<const OprfBlinded> blinded,
    std::span<const Bignum> server_responses) const {
  if (inputs.size() != blinded.size() ||
      inputs.size() != server_responses.size())
    throw std::invalid_argument("OprfClient::finalize_batch: size mismatch");
  std::vector<Bignum> unblinded;
  unblinded.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Bignum r_inv = Bignum::modinv(blinded[i].r, pub_.n);
    unblinded.push_back(mont_->modmul(server_responses[i], r_inv));
  }
  // The verification exponentiations share e and batch across responses.
  const std::vector<Bignum> checks =
      mont_->modexp_batch(std::span<const Bignum>(unblinded), pub_.e);
  std::vector<OprfOutput> out;
  out.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (checks[i] != hash_to_zn(inputs[i], pub_.n))
      throw std::runtime_error(
          "OprfClient::finalize: invalid server response");
    out.push_back(output_hash(unblinded[i], pub_.modulus_bytes()));
  }
  return out;
}

}  // namespace eyw::crypto
