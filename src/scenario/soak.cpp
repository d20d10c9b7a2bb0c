#include "scenario/soak.hpp"

#include <optional>
#include <thread>

#include "scenario/churn.hpp"
#include "scenario/scenario.hpp"

namespace eyw::scenario {

namespace {

/// Wait for the stack to drain after a round: every scenario-side client
/// object is already destroyed, so the server should converge to zero
/// active connections and an empty dispatch queue; fds follow once the
/// reactor reaps the closed sockets. Returns the fd count that satisfied
/// the criterion (nullopt on timeout) — the caller must record THAT
/// observation, not a later re-read: background journal maintenance
/// (segment rotation, directory fsync) legitimately holds an extra fd for
/// a moment, and a re-read racing it is not a leak.
std::optional<std::size_t> settle(std::uint16_t stats_port,
                                  std::size_t fd_baseline) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::size_t fds = open_fds();
    if (stat(stats_port, "active_connections") == 0 &&
        stat(stats_port, "dispatch_pending") == 0 && fds <= fd_baseline)
      return fds;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return std::nullopt;
}

}  // namespace

SoakReport run_soak(server::Deployment& deployment,
                    std::uint64_t first_round, const SoakOptions& options) {
  const std::uint16_t stats_port = deployment.stats_port();
  SoakReport report;
  report.all_rounds_ok = true;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t round = first_round;

  // Warmup round before the fd baseline: long-lived resources are
  // allocated on first touch (the journal's first segment file, epoll
  // bookkeeping), and they belong in the baseline — only growth
  // *per subsequent round* is a leak.
  {
    const std::uint64_t warm_seed = options.seed + round;
    const ChurnOutcome warm = run_churn_round(
        deployment, round,
        ChurnSchedule::make(options.roster, options.churn_rate, warm_seed),
        warm_seed);
    if (!warm.ok()) {
      report.all_rounds_ok = false;
      report.first_failed_round = round;
      return report;
    }
    (void)settle(stats_port, static_cast<std::size_t>(-1));
    ++round;
  }
  const std::size_t fd_baseline = open_fds();
  // Pool/copy baselines join the fd baseline after warmup: the first round
  // legitimately misses while the pool fills and may journal through the
  // legacy path during recovery replay — only growth per subsequent round
  // is a regression.
  const std::uint64_t miss_baseline = stat(stats_port, "pool_misses");
  const std::uint64_t copy_baseline = stat(stats_port, "bytes_copied_ingest");
  for (;;) {
    const std::chrono::milliseconds elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    if (elapsed >= options.budget && report.rounds >= options.min_rounds)
      break;

    const std::uint64_t round_seed = options.seed + round;
    const ChurnSchedule schedule =
        ChurnSchedule::make(options.roster, options.churn_rate, round_seed);
    const ChurnOutcome outcome =
        run_churn_round(deployment, round, schedule, round_seed);

    SoakRound sample;
    sample.round = round;
    sample.round_ok = outcome.ok();
    const std::optional<std::size_t> settled_fds =
        settle(stats_port, fd_baseline);
    sample.settled = settled_fds.has_value();
    sample.open_fds = settled_fds.value_or(open_fds());
    sample.active_connections = stat(stats_port, "active_connections");
    sample.dispatch_pending = stat(stats_port, "dispatch_pending");
    sample.pool_misses = stat(stats_port, "pool_misses");
    sample.bytes_copied_ingest = stat(stats_port, "bytes_copied_ingest");
    sample.journal_reencodes = stat(stats_port, "journal_reencodes");
    report.samples.push_back(sample);
    ++report.rounds;

    if (!sample.round_ok && report.all_rounds_ok) {
      report.all_rounds_ok = false;
      report.first_failed_round = round;
    }
    ++round;
  }

  report.elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  report.fds_flat = true;
  report.channels_drained = true;
  report.queues_drained = true;
  report.pool_misses_flat = true;
  report.ingest_copies_flat = true;
  report.journal_reencodes_zero = true;
  for (const SoakRound& s : report.samples) {
    report.fds_flat = report.fds_flat && s.settled && s.open_fds <= fd_baseline;
    report.channels_drained =
        report.channels_drained && s.active_connections == 0;
    report.queues_drained = report.queues_drained && s.dispatch_pending == 0;
    report.pool_misses_flat =
        report.pool_misses_flat && s.pool_misses <= miss_baseline;
    report.ingest_copies_flat =
        report.ingest_copies_flat && s.bytes_copied_ingest <= copy_baseline;
    // Absolute zero, not a baseline: the deployment wires frame capture
    // into its endpoint, so even the warmup round must not re-encode.
    report.journal_reencodes_zero =
        report.journal_reencodes_zero && s.journal_reencodes == 0;
  }
  return report;
}

}  // namespace eyw::scenario
