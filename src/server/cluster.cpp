#include "server/cluster.hpp"

#include <stdexcept>

#include "sketch/sketch_kernel.hpp"

namespace eyw::server {

BackendCluster::BackendCluster(BackendConfig config, std::size_t shards)
    : config_(config) {
  if (shards == 0)
    throw std::invalid_argument("BackendCluster: shards == 0");
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s)
    shards_.push_back(std::make_unique<BackendServer>(config));
}

void BackendCluster::begin_round(std::uint64_t round,
                                 std::size_t roster_size) {
  round_ = round;
  roster_size_ = roster_size;
  reports_total_.store(0, std::memory_order_relaxed);
  adjustments_total_.store(0, std::memory_order_relaxed);
  // Every shard sees the full roster: indices are global, only the
  // submission stream is partitioned.
  for (auto& shard : shards_) shard->begin_round(round, roster_size);
}

void BackendCluster::submit_report(std::size_t participant_index,
                                   std::vector<crypto::BlindCell> cells) {
  if (participant_index >= roster_size_)
    throw std::invalid_argument("submit_report: index outside roster");
  shards_[shard_for(participant_index)]->submit_report(participant_index,
                                                       std::move(cells));
  reports_total_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::size_t> BackendCluster::missing_participants() const {
  // The shards stay authoritative: participant i reported iff its owning
  // shard received it. One pass over the roster, each index answered by
  // its routed shard — no materialized per-shard missing lists (each
  // would be near-roster-sized, since a shard only ever receives ~1/S of
  // the submissions).
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < roster_size_; ++i)
    if (!shards_[shard_for(i)]->has_report(i)) out.push_back(i);
  return out;
}

void BackendCluster::submit_adjustment(std::size_t participant_index,
                                       std::vector<crypto::BlindCell> adj) {
  if (participant_index >= roster_size_)
    throw std::invalid_argument("submit_adjustment: index outside roster");
  // Routed to the reporter's own shard, where the "adjustments come from
  // reporters only" check holds locally.
  shards_[shard_for(participant_index)]->submit_adjustment(participant_index,
                                                           std::move(adj));
  adjustments_total_.fetch_add(1, std::memory_order_relaxed);
}

RoundResult BackendCluster::finalize_round(util::ThreadPool* pool) {
  if (pool == nullptr) pool = &util::ThreadPool::shared();
  const std::size_t reports = reports_total_.load(std::memory_order_relaxed);
  const std::size_t adjustments =
      adjustments_total_.load(std::memory_order_relaxed);
  if (reports == 0)
    throw std::logic_error("finalize_round: no reports received");
  if (reports != roster_size_ && adjustments != reports) {
    throw std::logic_error(
        "finalize_round: missing clients but not all adjustments received");
  }

  last_result_ = finalize_from_cells(config_, merged_cells(), reports,
                                     roster_size_, *pool);
  return *last_result_;
}

std::vector<crypto::BlindCell> BackendCluster::merged_cells() const {
  // Wrapping u32 addition is commutative and associative, so the
  // shard-order sum of the running partial sums is bit-identical to the
  // single-server participant-order sum of the same reports.
  std::vector<crypto::BlindCell> cells(config_.cms_params.cells(), 0);
  for (const auto& shard : shards_)
    sketch::active_sketch_kernel().add_cells(
        cells.data(), shard->partial_aggregate().data(), cells.size());
  return cells;
}

RoundSnapshot BackendCluster::snapshot_round() const {
  RoundSnapshot merged;
  merged.round = round_;
  merged.roster = roster_size_;
  merged.bytes_received = bytes_received();
  merged.params = config_.cms_params;
  merged.base_cells = merged_cells();
  // One pass over the roster, each index answered by its routed shard,
  // yields the global lists already sorted.
  for (std::size_t p = 0; p < roster_size_; ++p) {
    const BackendServer& owner = *shards_[shard_for(p)];
    if (owner.has_report(p))
      merged.reporters.push_back(static_cast<std::uint32_t>(p));
    if (owner.has_adjustment(p))
      merged.adjusters.push_back(static_cast<std::uint32_t>(p));
  }
  return merged;
}

void BackendCluster::restore_round(const RoundSnapshot& snapshot) {
  // Refuse an inconsistent snapshot before any shard state changes (the
  // shards re-validate their own slices, but by then earlier shards were
  // already reset).
  check_membership_sets(snapshot);

  std::vector<RoundSnapshot> parts(shards_.size());
  for (std::size_t s = 0; s < parts.size(); ++s) {
    parts[s].round = snapshot.round;
    parts[s].roster = snapshot.roster;
    parts[s].params = snapshot.params;
  }
  for (const std::uint32_t p : snapshot.reporters)
    parts[shard_for(p)].reporters.push_back(p);
  for (const std::uint32_t p : snapshot.adjusters)
    parts[shard_for(p)].adjusters.push_back(p);
  // The merged base sum and byte tally are cluster-level facts; parking
  // them on shard 0 keeps finalize_round's merge and bytes_received()
  // exact without a per-shard split that does not exist.
  parts[0].base_cells = snapshot.base_cells;
  parts[0].bytes_received = snapshot.bytes_received;
  if (!snapshot.base_cells.empty() &&
      snapshot.base_cells.size() != config_.cms_params.cells())
    throw std::invalid_argument("restore_round: base-cell count mismatch");

  for (std::size_t s = 0; s < shards_.size(); ++s)
    shards_[s]->restore_round(parts[s]);
  round_ = snapshot.round;
  roster_size_ = snapshot.roster;
  reports_total_.store(snapshot.reporters.size(), std::memory_order_relaxed);
  adjustments_total_.store(snapshot.adjusters.size(),
                           std::memory_order_relaxed);
  last_result_.reset();
}

std::optional<double> BackendCluster::users_for(std::uint64_t ad_id) const {
  if (!last_result_) return std::nullopt;
  return static_cast<double>(last_result_->aggregate.query(ad_id));
}

std::optional<double> BackendCluster::users_threshold() const {
  if (!last_result_) return std::nullopt;
  return last_result_->users_threshold;
}

std::size_t BackendCluster::bytes_received() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->bytes_received();
  return total;
}

}  // namespace eyw::server
