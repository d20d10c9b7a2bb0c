// SoakRunner: back-to-back durable churn rounds against one long-lived,
// journaled server::Deployment for a bounded wall-clock budget, with leak
// detection between rounds.
//
// What a multi-round service leaks that a single-round test never sees:
// file descriptors (client channels reaped late, journal segments left
// open), reactor channels (server-side connection structs outliving their
// sockets), and dispatcher lanes (queue depth that never drains back to
// zero). After every round the runner waits for the stack to settle, then
// samples the fd count from /proc and every other gauge off /stats with
// scenario::stat, as an operator would. A soak passes only if every round
// finalized bit-identically to its control AND every gauge returned to its
// baseline every single round — zero growth, not "growth below a
// threshold", because on a fixed round shape any upward drift is a leak.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "server/deployment.hpp"

namespace eyw::scenario {

struct SoakOptions {
  /// Wall-clock budget; the round in flight when it expires still
  /// completes.
  std::chrono::milliseconds budget{60'000};
  /// At least this many rounds even if the budget is tiny (tests).
  std::size_t min_rounds = 3;
  std::size_t roster = 24;
  double churn_rate = 0.25;
  std::uint64_t seed = 1;
};

struct SoakRound {
  std::uint64_t round = 0;
  bool round_ok = false;       // churn outcome ok() (identical + counters)
  bool settled = false;        // stack drained within the settle window
  std::size_t open_fds = 0;    // process fds after settling
  std::size_t active_connections = 0;
  std::size_t dispatch_pending = 0;
  // Zero-copy ingest gauges (cumulative counters, sampled per round).
  std::uint64_t pool_misses = 0;
  std::uint64_t bytes_copied_ingest = 0;
  std::uint64_t journal_reencodes = 0;
};

struct SoakReport {
  std::size_t rounds = 0;
  std::chrono::milliseconds elapsed{0};
  std::vector<SoakRound> samples;
  bool all_rounds_ok = false;
  /// Zero-growth checks over the settled samples.
  bool fds_flat = false;
  bool channels_drained = false;  // active_connections == 0 every sample
  bool queues_drained = false;    // dispatch_pending == 0 every sample
  /// Frame buffers recycle in steady state: after the warmup round has
  /// populated the pool, a fixed round shape must not allocate (a rising
  /// miss count means frames leak out of the recycle loop) nor fall back
  /// to copying transforms (bytes_copied_ingest flat), and a journaling
  /// round must never re-encode a submission it captured off the wire.
  bool pool_misses_flat = false;
  bool ingest_copies_flat = false;
  bool journal_reencodes_zero = false;
  std::uint64_t first_failed_round = 0;

  [[nodiscard]] bool ok() const noexcept {
    return rounds > 0 && all_rounds_ok && fds_flat && channels_drained &&
           queues_drained && pool_misses_flat && ingest_copies_flat &&
           journal_reencodes_zero;
  }
};

/// Drive durable rounds against `deployment`, which must be journaled,
/// until the budget expires.
/// Round numbers continue from `first_round` (must be above any round the
/// deployment has already served — rounds only move forward).
[[nodiscard]] SoakReport run_soak(server::Deployment& deployment,
                                  std::uint64_t first_round,
                                  const SoakOptions& options);

}  // namespace eyw::scenario
