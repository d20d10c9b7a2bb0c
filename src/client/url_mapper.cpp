#include "client/url_mapper.hpp"

#include <set>
#include <stdexcept>

#include "proto/message.hpp"
#include "server/endpoint.hpp"

namespace eyw::client {

OprfUrlMapper::OprfUrlMapper(const crypto::OprfServer& server,
                             std::uint64_t id_space, std::uint64_t rng_seed)
    : own_endpoint_(std::make_unique<server::OprfEndpoint>(server)),
      own_transport_(std::make_unique<proto::LoopbackTransport>(
          [ep = own_endpoint_.get()](std::span<const std::uint8_t> frame) {
            return ep->handle(frame);
          })),
      transport_(own_transport_.get()),
      pub_(server.public_key()),
      oprf_client_(pub_),
      id_space_(id_space),
      rng_(rng_seed) {
  if (id_space_ == 0)
    throw std::invalid_argument("OprfUrlMapper: id_space == 0");
}

OprfUrlMapper::OprfUrlMapper(proto::Transport& transport,
                             crypto::RsaPublicKey server_public,
                             std::uint64_t id_space, std::uint64_t rng_seed)
    : transport_(&transport),
      pub_(std::move(server_public)),
      oprf_client_(pub_),
      id_space_(id_space),
      rng_(rng_seed) {
  if (id_space_ == 0)
    throw std::invalid_argument("OprfUrlMapper: id_space == 0");
}

OprfUrlMapper::~OprfUrlMapper() = default;

std::uint64_t OprfUrlMapper::map(std::string_view identity) {
  if (const auto it = cache_.find(identity); it != cache_.end())
    return it->second;
  const std::string_view fresh[1] = {identity};
  fill_cache(fresh);
  return cache_.find(identity)->second;
}

std::vector<std::uint64_t> OprfUrlMapper::map_batch(
    std::span<const std::string_view> identities) {
  // Unique cache misses, first-occurrence order (the order blinding draws
  // r values in, so a batch is deterministic for a given rng state).
  std::vector<std::string_view> fresh;
  std::set<std::string_view> seen;
  for (const std::string_view id : identities) {
    if (cache_.contains(id)) continue;
    if (seen.insert(id).second) fresh.push_back(id);
  }
  if (!fresh.empty())
    fill_cache(std::span<const std::string_view>(fresh.data(), fresh.size()));
  std::vector<std::uint64_t> ids;
  ids.reserve(identities.size());
  for (const std::string_view id : identities)
    ids.push_back(cache_.find(id)->second);
  return ids;
}

std::vector<std::uint64_t> OprfUrlMapper::map_batch(
    std::span<const std::string> identities) {
  std::vector<std::string_view> views(identities.begin(), identities.end());
  return map_batch(std::span<const std::string_view>(views.data(),
                                                     views.size()));
}

void OprfUrlMapper::fill_cache(std::span<const std::string_view> fresh) {
  // Respect the server's batch cap: a sweep larger than kMaxOprfBatch is
  // split into cap-sized frames (still one round trip per ~65k URLs)
  // instead of sending one oversized request the server must refuse.
  while (fresh.size() > proto::kMaxOprfBatch) {
    fill_cache(fresh.first(proto::kMaxOprfBatch));
    fresh = fresh.subspan(proto::kMaxOprfBatch);
  }

  // Step 1: blind every input locally — the r^e ladders share e and run
  // through modexp_batch (rng draw order matches serial blind() calls, so
  // a seeded fixture sees bit-identical frames).
  const std::vector<crypto::OprfBlinded> blinded =
      oprf_client_.blind_batch(fresh, rng_);
  proto::OprfEvalRequest request;
  request.element_bytes = static_cast<std::uint32_t>(pub_.modulus_bytes());
  request.elements.reserve(fresh.size());
  for (const crypto::OprfBlinded& b : blinded)
    request.elements.push_back(b.blinded_element);

  // Step 2: ONE round trip for the whole batch.
  const auto reply = transport_->exchange(request.encode(/*sender=*/0));
  const proto::Envelope env =
      proto::expect_reply(reply, proto::MsgKind::kOprfEvalResponse);
  const proto::OprfEvalResponse response = proto::OprfEvalResponse::decode(env);
  if (response.elements.size() != fresh.size())
    throw proto::ProtoError(proto::ErrorCode::kMalformed,
                            "oprf response count != request count");

  // Step 3: unblind (verifying each blind signature, batched) and fill
  // the cache.
  const std::vector<crypto::OprfOutput> outs = oprf_client_.finalize_batch(
      fresh, blinded,
      std::span<const crypto::Bignum>(response.elements.data(),
                                      response.elements.size()));
  for (std::size_t i = 0; i < fresh.size(); ++i)
    cache_.emplace(std::string(fresh[i]), outs[i].to_ad_id(id_space_));
  bytes_exchanged_ += fresh.size() * oprf_client_.bytes_per_evaluation();
}

HashUrlMapper::HashUrlMapper(std::uint64_t id_space) : id_space_(id_space) {
  if (id_space_ == 0)
    throw std::invalid_argument("HashUrlMapper: id_space == 0");
}

std::uint64_t HashUrlMapper::map(std::string_view identity) {
  const crypto::Digest d = crypto::sha256(identity);
  return crypto::digest_to_u64(d) % id_space_;
}

}  // namespace eyw::client
