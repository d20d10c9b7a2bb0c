#include "server/backend.hpp"

#include <algorithm>
#include <stdexcept>

#include "proto/message.hpp"
#include "sketch/serialize.hpp"
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
}

void BackendServer::begin_round(std::uint64_t round, std::size_t roster_size) {
  round_ = round;
  open_ = true;
  roster_size_ = roster_size;
  reports_.clear();
  adjustments_.clear();
  restored_cells_.clear();
  restored_reporters_.clear();
  restored_adjusters_.clear();
  bytes_received_ = 0;
}

void BackendServer::submit_report(std::size_t participant_index,
                                  std::vector<crypto::BlindCell> blinded_cells) {
  if (participant_index >= roster_size_)
    throw std::invalid_argument("submit_report: index outside roster");
  if (blinded_cells.size() != config_.cms_params.cells())
    throw std::invalid_argument("submit_report: cell-count mismatch");
  // Duplicate refusal must see snapshot-restored reporters too: after a
  // crash-recovery, a reporter whose pre-crash submission survived in the
  // checkpoint retrying its report is the common case, not a corner one.
  if (restored_reporters_.contains(participant_index))
    throw std::invalid_argument("submit_report: duplicate report");
  if (!reports_.emplace(participant_index, std::move(blinded_cells)).second)
    throw std::invalid_argument("submit_report: duplicate report");
  bytes_received_ += config_.cms_params.bytes();
}

std::vector<std::size_t> BackendServer::missing_participants() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < roster_size_; ++i)
    if (!has_report(i)) out.push_back(i);
  return out;
}

void BackendServer::submit_adjustment(
    std::size_t participant_index, std::vector<crypto::BlindCell> adjustment) {
  if (!has_report(participant_index))
    throw std::invalid_argument(
        "submit_adjustment: adjustments come from reporters only");
  if (adjustment.size() != config_.cms_params.cells())
    throw std::invalid_argument("submit_adjustment: cell-count mismatch");
  if (restored_adjusters_.contains(participant_index))
    throw std::invalid_argument("submit_adjustment: duplicate adjustment");
  if (!adjustments_.emplace(participant_index, std::move(adjustment)).second)
    throw std::invalid_argument("submit_adjustment: duplicate adjustment");
  bytes_received_ += config_.cms_params.bytes();
}

std::vector<crypto::BlindCell> BackendServer::partial_aggregate() const {
  // Sum the blinded reports in place — no per-report copies. The restored
  // base (empty outside recovery) seeds the sum: wrapping u32 addition is
  // commutative, so "snapshot sum + live reports" is bit-identical to
  // summing every original report in participant order.
  const std::size_t n_cells = config_.cms_params.cells();
  std::vector<crypto::BlindCell> aggregate_cells =
      restored_cells_.empty() ? std::vector<crypto::BlindCell>(n_cells, 0)
                              : restored_cells_;
  for (const auto& [idx, cells] : reports_) {
    for (std::size_t m = 0; m < n_cells; ++m) aggregate_cells[m] += cells[m];
  }
  for (const auto& [idx, adj] : adjustments_)
    crypto::apply_adjustment(aggregate_cells, adj);
  return aggregate_cells;
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

  last_result_ = finalize_from_cells(config_, partial_aggregate(), reports,
                                     roster_size_, *pool);
  return *last_result_;
}

RoundSnapshot BackendServer::snapshot_round() const {
  RoundSnapshot snap;
  snap.round = round_;
  snap.roster = roster_size_;
  snap.bytes_received = bytes_received_;
  snap.params = config_.cms_params;
  snap.base_cells = partial_aggregate();
  snap.reporters.reserve(reports_received());
  for (const std::size_t p : restored_reporters_)
    snap.reporters.push_back(static_cast<std::uint32_t>(p));
  for (const auto& [p, cells] : reports_)
    snap.reporters.push_back(static_cast<std::uint32_t>(p));
  snap.adjusters.reserve(adjustments_received());
  for (const std::size_t p : restored_adjusters_)
    snap.adjusters.push_back(static_cast<std::uint32_t>(p));
  for (const auto& [p, cells] : adjustments_)
    snap.adjusters.push_back(static_cast<std::uint32_t>(p));
  // Both source containers are ordered but their ranges interleave.
  std::sort(snap.reporters.begin(), snap.reporters.end());
  std::sort(snap.adjusters.begin(), snap.adjusters.end());
  return snap;
}

void BackendServer::restore_round(const RoundSnapshot& snapshot) {
  if (snapshot.params != config_.cms_params)
    throw std::invalid_argument("restore_round: geometry != backend config");
  if (!snapshot.base_cells.empty() &&
      snapshot.base_cells.size() != config_.cms_params.cells())
    throw std::invalid_argument("restore_round: base-cell count mismatch");
  std::uint32_t prev = 0;
  bool first = true;
  for (const std::uint32_t p : snapshot.reporters) {
    if (p >= snapshot.roster || (!first && p <= prev))
      throw std::invalid_argument("restore_round: bad reporter set");
    prev = p;
    first = false;
  }
  std::set<std::size_t> reporters(snapshot.reporters.begin(),
                                  snapshot.reporters.end());
  for (const std::uint32_t p : snapshot.adjusters) {
    if (!reporters.contains(p))
      throw std::invalid_argument(
          "restore_round: adjuster outside the reporter set");
  }

  begin_round(snapshot.round, snapshot.roster);
  restored_cells_ = snapshot.base_cells;
  restored_reporters_ = std::move(reporters);
  restored_adjusters_.insert(snapshot.adjusters.begin(),
                             snapshot.adjusters.end());
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
