// Sharded back-end front door: N BackendServer shards behind one
// RoundBackend surface (the ROADMAP's "sharding BackendServer aggregation"
// item).
//
// What shards and how:
//   * Ingestion — every report/adjustment is routed to exactly one shard
//     (shard_for(participant)), and each shard folds it into its running
//     blinded partial sum on arrival. Blinded cells only cancel in the
//     *global* sum, so per-shard state is meaningless ciphertext on its
//     own — a nice property: compromising one shard reveals nothing.
//   * Finalization — the shards' partial sums are merged cell-wise
//     (wrapping u32 addition is commutative, so the merge equals the
//     single-server sum bit for bit), then the ad-id space scan fans
//     across the pool exactly like the single-server path.
// The result is byte-identical to one BackendServer fed the same reports —
// asserted in tests/server/test_sharded_backend.cpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "server/backend.hpp"

namespace eyw::server {

class BackendCluster final : public RoundBackend {
 public:
  /// `shards` BackendServer instances, each configured with `config` (full
  /// CMS geometry — cells are not divisible across shards; the roster and
  /// id space are what get partitioned).
  BackendCluster(BackendConfig config, std::size_t shards);

  [[nodiscard]] const BackendConfig& config() const noexcept override {
    return config_;
  }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  /// Routing function: which shard owns `participant`'s submissions.
  [[nodiscard]] std::size_t shard_for(std::size_t participant) const noexcept {
    return participant % shards_.size();
  }
  /// Shard access for tests and the sharded endpoint.
  [[nodiscard]] BackendServer& shard(std::size_t s) { return *shards_[s]; }
  [[nodiscard]] const BackendServer& shard(std::size_t s) const {
    return *shards_[s];
  }

  void begin_round(std::uint64_t round, std::size_t roster_size) override;
  [[nodiscard]] std::uint64_t current_round() const noexcept override {
    return round_;
  }
  // Shard 0 receives begin_round on every open path (begin + restore), so
  // its flag speaks for the cluster.
  [[nodiscard]] bool round_open() const noexcept override {
    return shards_.front()->round_open();
  }
  void submit_report(std::size_t participant_index,
                     std::vector<crypto::BlindCell> blinded_cells) override;
  [[nodiscard]] std::vector<std::size_t> missing_participants() const override;
  void submit_adjustment(std::size_t participant_index,
                         std::vector<crypto::BlindCell> adjustment) override;

  /// Merge shard partial aggregates, unblind, scan the id space (fanned
  /// across `pool`), and derive the distribution + Users_th.
  [[nodiscard]] RoundResult finalize_round(
      util::ThreadPool* pool = nullptr) override;

  /// Cluster-wide snapshot: shard partial sums merged cell-wise, shard
  /// membership sets unioned — the same shape a single server produces,
  /// so one checkpoint format serves both.
  [[nodiscard]] RoundSnapshot snapshot_round() const override;
  /// Restore: membership is re-split by shard_for (so duplicate refusal
  /// and the missing scan keep working through shard routing); the merged
  /// base sum — indivisible once merged — seeds shard 0, which the
  /// finalize merge adds back in. Bit-identical because wrapping addition
  /// does not care where the base lives.
  void restore_round(const RoundSnapshot& snapshot) override;

  /// Estimated #Users / Users_th from the last finalized round (same
  /// query API as BackendServer, answered from the merged result).
  [[nodiscard]] std::optional<double> users_for(std::uint64_t ad_id) const;
  [[nodiscard]] std::optional<double> users_threshold() const;

  /// Payload bytes received across all shards this round.
  [[nodiscard]] std::size_t bytes_received() const noexcept;

 private:
  /// The shards' running partial sums added cell-wise.
  [[nodiscard]] std::vector<crypto::BlindCell> merged_cells() const;

  BackendConfig config_;
  // unique_ptr: BackendServer is polymorphic (RoundBackend), so neither
  // copyable nor movable, and vector needs relocation.
  std::vector<std::unique_ptr<BackendServer>> shards_;
  std::uint64_t round_ = 0;
  std::size_t roster_size_ = 0;
  // Atomic: the cluster-wide tallies are the only state submissions for
  // *different* shards share, and a sharded AsyncDispatcher applies such
  // submissions concurrently (same-shard submissions stay serialized on
  // one lane). Phase barriers order these against begin/finalize.
  std::atomic<std::size_t> reports_total_{0};
  std::atomic<std::size_t> adjustments_total_{0};
  std::optional<RoundResult> last_result_;
};

}  // namespace eyw::server
