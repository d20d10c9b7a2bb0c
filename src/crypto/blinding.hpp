// Additive random shares of zero (Kursawe et al., PETS'11 style), used to
// blind count-min-sketch cells before reporting them (Section 6).
//
// Participant i derives, for every peer j, a symmetric key k_ij from the
// DH shared secret y_j^{x_i}. The blinding factor for cell m at round s is
//   b_i[m] = sum_{j != i} P_ij[m] * (+1 if i > j, else -1)
// in wrapping 32-bit arithmetic (cells are 4 bytes, matching the paper),
// where the pad P_ij is the big-endian u32 stream
//   SHA256(d ‖ 0) ‖ SHA256(d ‖ 1) ‖ ...,   d = SHA256(k_ij ‖ s),
// with s and each counter as 8 bytes big-endian (crypto/sha256_kernel.hpp,
// pad_fold).
// Each pair (i, j) contributes +t to one participant and -t to the other,
// so sum_i b_i[m] == 0: cell-wise aggregation of all blinded reports yields
// the true aggregate.
//
// Fault tolerance (Section 6, "Fault-tolerance"): if some clients never
// report, the server announces the missing set and each reporting client
// answers with an adjustment that cancels exactly the terms it shared with
// the missing clients.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/dh.hpp"
#include "util/thread_pool.hpp"

namespace eyw::crypto {

/// Cell type of blinded vectors: 4 bytes, wrapping arithmetic.
using BlindCell = std::uint32_t;

class BlindingParticipant {
 public:
  /// `index` is this participant's position in `all_public_keys` (which is
  /// the published roster, identical for everyone). Pair-secret derivation
  /// and pad accumulation fan out over `pool` (nullptr = the process-wide
  /// shared pool); the participant keeps the pointer, which must outlive
  /// it. Results are bit-identical for any pool size.
  BlindingParticipant(const DhGroup& group, std::size_t index,
                      DhKeyPair keypair,
                      std::span<const Bignum> all_public_keys,
                      util::ThreadPool* pool = nullptr);

  [[nodiscard]] std::size_t index() const noexcept { return index_; }
  [[nodiscard]] std::size_t peers() const noexcept {
    return pair_keys_.size();
  }
  /// k_ij, the pad key shared with roster member `j` (j != index()).
  [[nodiscard]] const Digest& pair_key(std::size_t j) const {
    return pair_keys_.at(j);
  }

  /// b_i[m] for m in [0, cells) at round `round`.
  [[nodiscard]] std::vector<BlindCell> blinding_vector(
      std::size_t cells, std::uint64_t round) const;

  /// cells[m] + b_i[m] (wrapping) — the report sent to the server.
  [[nodiscard]] std::vector<BlindCell> blind(std::span<const BlindCell> cells,
                                             std::uint64_t round) const;

  /// Adjustment round: the summed terms this participant shares with the
  /// `missing` participants. The server subtracts (wrapping) each reporting
  /// participant's adjustment from the aggregate to cancel the residue left
  /// by the missing reports. Indices refer to the public-key roster; own
  /// index must not be in `missing`.
  [[nodiscard]] std::vector<BlindCell> adjustment_for_missing(
      std::size_t cells, std::uint64_t round,
      std::span<const std::size_t> missing) const;

 private:
  /// Signed wrapping sum of the pads shared with `peers`, expanded in
  /// parallel chunks (bit-identical to the serial loop for any chunking).
  [[nodiscard]] std::vector<BlindCell> accumulate_pads(
      std::span<const std::size_t> peers, std::size_t cells,
      std::uint64_t round) const;

  std::size_t index_;
  std::vector<Digest> pair_keys_;  // pair_keys_[j]; entry [index_] unused
  util::ThreadPool* pool_;         // never null after construction
};

/// Cell-wise wrapping sum of blinded vectors. All vectors must be same size.
[[nodiscard]] std::vector<BlindCell> aggregate_blinded(
    std::span<const std::vector<BlindCell>> reports);

/// Subtract an adjustment (wrapping) from an aggregate in place.
void apply_adjustment(std::vector<BlindCell>& aggregate,
                      std::span<const BlindCell> adjustment);

/// Bytes exchanged to publish the DH roster for `participants` clients:
/// each client uploads one group element and downloads the other N-1
/// (the "public bulletin board" of the paper).
[[nodiscard]] std::size_t roster_bytes(const DhGroup& group,
                                       std::size_t participants);

}  // namespace eyw::crypto
