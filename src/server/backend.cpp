#include "server/backend.hpp"

#include <algorithm>
#include <stdexcept>

#include "proto/message.hpp"
#include "sketch/serialize.hpp"
#include "sketch/sketch_kernel.hpp"
#include "util/thread_pool.hpp"

namespace eyw::server {

BackendServer::BackendServer(BackendConfig config) : config_(config) {
  if (config_.id_space == 0)
    throw std::invalid_argument("BackendServer: id_space == 0");
  if (config_.cms_params.cells() == 0)
    throw std::invalid_argument("BackendServer: empty CMS geometry");
  // A geometry that cannot travel as a report — above the sketch cell cap,
  // or whose encoded envelope payload (participant u32 + 'EYWS' frame)
  // would exceed the proto payload cap — is refused at configuration time
  // instead of as per-report Error frames mid-round. The short-circuit
  // keeps encoded_size() from overflowing on absurd dimensions.
  if (config_.cms_params.cells() > sketch::kMaxFrameCells ||
      4 + sketch::encoded_size(config_.cms_params) > proto::kMaxPayloadBytes)
    throw std::invalid_argument("BackendServer: geometry above wire caps");
  sum_.assign(config_.cms_params.cells(), 0);
}

void check_membership_sets(const RoundSnapshot& snapshot) {
  const auto sorted_unique = [&](const std::vector<std::uint32_t>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] >= snapshot.roster) return false;
      if (i > 0 && v[i] <= v[i - 1]) return false;
    }
    return true;
  };
  if (!sorted_unique(snapshot.reporters) || !sorted_unique(snapshot.adjusters))
    throw std::invalid_argument("restore_round: bad membership sets");
}

void BackendServer::begin_round(std::uint64_t round, std::size_t roster_size) {
  round_ = round;
  open_ = true;
  roster_size_ = roster_size;
  std::fill(sum_.begin(), sum_.end(), 0);
  reported_.assign(roster_size, false);
  adjusted_.assign(roster_size, false);
  reports_ = 0;
  adjustments_ = 0;
  bytes_received_ = 0;
}

void BackendServer::submit_report(std::size_t participant_index,
                                  std::vector<crypto::BlindCell> blinded_cells) {
  if (participant_index >= roster_size_)
    throw std::invalid_argument("submit_report: index outside roster");
  if (blinded_cells.size() != sum_.size())
    throw std::invalid_argument("submit_report: cell-count mismatch");
  // The bitmap covers snapshot-restored reporters too: after a
  // crash-recovery, a reporter whose pre-crash submission survived in the
  // checkpoint retrying its report is the common case, not a corner one.
  if (reported_[participant_index])
    throw std::invalid_argument("submit_report: duplicate report");
  // Wrapping u32 addition commutes, so folding on arrival is bit-identical
  // to summing every report in participant order at finalize.
  sketch::active_sketch_kernel().add_cells(sum_.data(), blinded_cells.data(),
                                           sum_.size());
  reported_[participant_index] = true;
  ++reports_;
  bytes_received_ += config_.cms_params.bytes();
}

std::vector<std::size_t> BackendServer::missing_participants() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < roster_size_; ++i)
    if (!reported_[i]) out.push_back(i);
  return out;
}

void BackendServer::submit_adjustment(
    std::size_t participant_index, std::vector<crypto::BlindCell> adjustment) {
  if (!has_report(participant_index))
    throw std::invalid_argument(
        "submit_adjustment: adjustments come from reporters only");
  if (adjustment.size() != sum_.size())
    throw std::invalid_argument("submit_adjustment: cell-count mismatch");
  if (adjusted_[participant_index])
    throw std::invalid_argument("submit_adjustment: duplicate adjustment");
  crypto::apply_adjustment(sum_, adjustment);
  adjusted_[participant_index] = true;
  ++adjustments_;
  bytes_received_ += config_.cms_params.bytes();
}

namespace {

/// The #Users distribution of [0, id_space) against the unblinded
/// aggregate, in one fused pass: each 4096-id chunk is queried into a
/// stack buffer and folded into its own tally, and the per-chunk tallies
/// are summed. Ids that correspond to no real ad mostly query to 0 and are
/// dropped; hash collisions inside the CMS are why the estimated threshold
/// sits slightly above the actual one (Figure 2). Every point query
/// returns one of the d·w cells, so no tally ever holds more than d·w
/// values. Integer sums commute, so the result is the same for any thread
/// count.
core::UsersDistribution scan_users_distribution(
    const sketch::CountMinSketch& aggregate, std::uint64_t id_space,
    util::ThreadPool& pool) {
  constexpr std::uint64_t kChunk = 4096;
  const std::uint64_t cells = aggregate.params().cells();
  std::vector<std::vector<core::UsersBin>> partial(
      static_cast<std::size_t>((id_space + kChunk - 1) / kChunk));
  pool.parallel_for(partial.size(), [&](std::size_t c) {
    const std::uint64_t begin = static_cast<std::uint64_t>(c) * kChunk;
    const auto n =
        static_cast<std::size_t>(std::min(kChunk, id_space - begin));
    std::uint32_t minima[kChunk];
    aggregate.query_range(begin, begin + n, std::span(minima, n));
    core::UsersTally tally(std::min<std::uint64_t>(n, cells));
    for (std::size_t i = 0; i < n; ++i)
      if (minima[i] != 0) tally.add(minima[i]);
    partial[c] = tally.bins();
  });

  core::UsersTally merged(std::min(id_space, cells));
  for (const auto& bins : partial)
    for (const core::UsersBin& b : bins) merged.add(b.value, b.weight);
  return merged.finish();
}

}  // namespace

RoundResult finalize_from_cells(const BackendConfig& config,
                                std::span<const crypto::BlindCell> cells,
                                std::size_t reports, std::size_t roster,
                                util::ThreadPool& pool) {
  RoundResult result{
      .aggregate = sketch::CountMinSketch::from_cells(
          config.cms_params, config.cms_hash_seed, cells),
      .distribution = {},
      .users_threshold = 0.0,
      .reports = reports,
      .roster = roster,
  };
  result.distribution =
      scan_users_distribution(result.aggregate, config.id_space, pool);
  result.users_threshold = result.distribution.threshold(config.users_rule);
  return result;
}

RoundResult BackendServer::finalize_round(util::ThreadPool* pool) {
  if (pool == nullptr) pool = &util::ThreadPool::shared();
  const std::size_t reports = reports_received();
  const std::size_t adjustments = adjustments_received();
  if (reports == 0)
    throw std::logic_error("finalize_round: no reports received");
  if (reports != roster_size_ && adjustments != reports) {
    throw std::logic_error(
        "finalize_round: missing clients but not all adjustments received");
  }

  last_result_ =
      finalize_from_cells(config_, sum_, reports, roster_size_, *pool);
  return *last_result_;
}

RoundSnapshot BackendServer::snapshot_round() const {
  RoundSnapshot snap;
  snap.round = round_;
  snap.roster = roster_size_;
  snap.bytes_received = bytes_received_;
  snap.params = config_.cms_params;
  snap.base_cells = sum_;
  // Scanning the bitmaps in index order yields the sorted lists directly.
  snap.reporters.reserve(reports_);
  snap.adjusters.reserve(adjustments_);
  for (std::size_t p = 0; p < roster_size_; ++p) {
    if (reported_[p]) snap.reporters.push_back(static_cast<std::uint32_t>(p));
    if (adjusted_[p]) snap.adjusters.push_back(static_cast<std::uint32_t>(p));
  }
  return snap;
}

void BackendServer::restore_round(const RoundSnapshot& snapshot) {
  if (snapshot.params != config_.cms_params)
    throw std::invalid_argument("restore_round: geometry != backend config");
  if (!snapshot.base_cells.empty() && snapshot.base_cells.size() != sum_.size())
    throw std::invalid_argument("restore_round: base-cell count mismatch");
  check_membership_sets(snapshot);
  if (!std::includes(snapshot.reporters.begin(), snapshot.reporters.end(),
                     snapshot.adjusters.begin(), snapshot.adjusters.end()))
    throw std::invalid_argument(
        "restore_round: adjuster outside the reporter set");

  begin_round(snapshot.round, snapshot.roster);
  if (!snapshot.base_cells.empty()) sum_ = snapshot.base_cells;
  for (const std::uint32_t p : snapshot.reporters) reported_[p] = true;
  for (const std::uint32_t p : snapshot.adjusters) adjusted_[p] = true;
  reports_ = snapshot.reporters.size();
  adjustments_ = snapshot.adjusters.size();
  bytes_received_ = snapshot.bytes_received;
}

std::optional<double> BackendServer::users_for(std::uint64_t ad_id) const {
  if (!last_result_) return std::nullopt;
  return static_cast<double>(last_result_->aggregate.query(ad_id));
}

std::optional<double> BackendServer::users_threshold() const {
  if (!last_result_) return std::nullopt;
  return last_result_->users_threshold;
}

}  // namespace eyw::server
