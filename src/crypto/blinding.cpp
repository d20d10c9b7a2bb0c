#include "crypto/blinding.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/sha256_kernel.hpp"
#include "sketch/sketch_kernel.hpp"
#include "util/thread_pool.hpp"

namespace eyw::crypto {

BlindingParticipant::BlindingParticipant(
    const DhGroup& group, std::size_t index, DhKeyPair keypair,
    std::span<const Bignum> all_public_keys, util::ThreadPool* pool)
    : index_(index),
      pool_(pool != nullptr ? pool : &util::ThreadPool::shared()) {
  if (index >= all_public_keys.size())
    throw std::invalid_argument("BlindingParticipant: index out of roster");
  if (all_public_keys[index] != keypair.public_key)
    throw std::invalid_argument(
        "BlindingParticipant: roster disagrees with own public key");
  pair_keys_.resize(all_public_keys.size());
  // Every pair secret raises a peer's public key to this member's private
  // key: one shared exponent, so the roster goes through modexp_batch in
  // chunks of one batch pass, and the chunks fan out across cores. On a
  // vector ladder a chunk is kMontLanes peers and the own slot's lane is
  // computed and dropped (a 256-member roster is 32 passes either way);
  // elsewhere it is one peer, one modexp. Each chunk writes only its own
  // slots, and the batch returns what dh_shared_secret would, so the keys
  // are identical to the serial loop's.
  const Montgomery mont_p(group.p);
  const std::size_t lanes = mont_p.batch_lanes();
  const std::size_t chunks = (all_public_keys.size() + lanes - 1) / lanes;
  pool_->parallel_for(chunks, [&](std::size_t c) {
    const std::size_t off = c * lanes;
    const std::span<const Bignum> chunk = all_public_keys.subspan(
        off, std::min(lanes, all_public_keys.size() - off));
    if (chunk.size() == 1 && off == index_) return;  // only the own slot
    const std::vector<Bignum> secrets =
        mont_p.modexp_batch(chunk, keypair.private_key);
    for (std::size_t k = 0; k < chunk.size(); ++k) {
      if (off + k != index_)
        pair_keys_[off + k] = dh_secret_to_key(secrets[k]);
    }
  });
}

std::vector<BlindCell> BlindingParticipant::accumulate_pads(
    std::span<const std::size_t> peers, std::size_t cells,
    std::uint64_t round) const {
  // Pad expansion dominates (one SHA-256 stream per peer); split the peer
  // list into contiguous chunks, each with a private accumulator, then
  // fold the chunk accumulators in order. Wrapping 32-bit adds make the
  // result bit-identical to the serial loop for any chunking.
  std::vector<BlindCell> out(cells, 0);
  if (peers.empty()) return out;
  const std::size_t chunks = std::min(peers.size(), pool_->size() * 4);
  const std::size_t per_chunk = (peers.size() + chunks - 1) / chunks;
  const Sha256Kernel& sha = active_sha256_kernel();
  std::vector<std::vector<BlindCell>> partial(chunks);
  pool_->parallel_for(chunks, [&](std::size_t c) {
    auto& acc = partial[c];
    acc.assign(cells, 0);
    const std::size_t begin = c * per_chunk;
    const std::size_t end = std::min(peers.size(), begin + per_chunk);
    for (std::size_t k = begin; k < end; ++k) {
      // One pseudo-random pad per (pair, round), seeded by
      // SHA256(k_ij || round) and folded straight into the accumulator:
      // both ends of the pair derive the identical pad, and the lower
      // index subtracts what the higher one adds.
      const std::size_t j = peers[k];
      Sha256 seed;
      seed.update(std::span<const std::uint8_t>(pair_keys_[j].data(),
                                                pair_keys_[j].size()));
      seed.update_u64(round);
      const Digest d = seed.finish();
      sha.pad_fold(acc.data(), d.data(), cells, index_ > j);
    }
  });
  const sketch::SketchKernel& kernel = sketch::active_sketch_kernel();
  for (const auto& acc : partial) kernel.add_cells(out.data(), acc.data(), cells);
  return out;
}

std::vector<BlindCell> BlindingParticipant::blinding_vector(
    std::size_t cells, std::uint64_t round) const {
  std::vector<std::size_t> peers;
  peers.reserve(pair_keys_.size() - 1);
  for (std::size_t j = 0; j < pair_keys_.size(); ++j) {
    if (j != index_) peers.push_back(j);
  }
  return accumulate_pads(peers, cells, round);
}

std::vector<BlindCell> BlindingParticipant::blind(
    std::span<const BlindCell> cells, std::uint64_t round) const {
  std::vector<BlindCell> out = blinding_vector(cells.size(), round);
  sketch::active_sketch_kernel().add_cells(out.data(), cells.data(),
                                           cells.size());
  return out;
}

std::vector<BlindCell> BlindingParticipant::adjustment_for_missing(
    std::size_t cells, std::uint64_t round,
    std::span<const std::size_t> missing) const {
  for (std::size_t j : missing) {
    if (j == index_)
      throw std::invalid_argument("adjustment_for_missing: self in missing set");
    if (j >= pair_keys_.size())
      throw std::invalid_argument("adjustment_for_missing: unknown participant");
  }
  return accumulate_pads(missing, cells, round);
}

std::vector<BlindCell> aggregate_blinded(
    std::span<const std::vector<BlindCell>> reports) {
  if (reports.empty()) return {};
  const std::size_t cells = reports.front().size();
  std::vector<BlindCell> out(cells, 0);
  const sketch::SketchKernel& kernel = sketch::active_sketch_kernel();
  for (const auto& r : reports) {
    if (r.size() != cells)
      throw std::invalid_argument("aggregate_blinded: size mismatch");
    kernel.add_cells(out.data(), r.data(), cells);
  }
  return out;
}

void apply_adjustment(std::vector<BlindCell>& aggregate,
                      std::span<const BlindCell> adjustment) {
  if (aggregate.size() != adjustment.size())
    throw std::invalid_argument("apply_adjustment: size mismatch");
  sketch::active_sketch_kernel().sub_cells(aggregate.data(), adjustment.data(),
                                           aggregate.size());
}

std::size_t roster_bytes(const DhGroup& group, std::size_t participants) {
  if (participants == 0) return 0;
  return participants * group.element_bytes() +                // uploads
         participants * (participants - 1) * group.element_bytes();  // downloads
}

}  // namespace eyw::crypto
