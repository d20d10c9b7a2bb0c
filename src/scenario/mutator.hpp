// Mutator peer: a hostile client hammering the backend endpoint with every
// malformed, truncated, replayed, stale and misrouted frame shape the wire
// catalogue admits — at line rate, over real TCP connections — and then
// proving, through the operator stats surface, that not one of them
// reached aggregation.
//
// The corpus is exact accounting, not fuzzing: every injected frame has a
// known expected ErrorCode, every pass is idempotent (a refusal leaves no
// state), and after `repeats` full passes the refusal counters must
// account for 100% of injected frames while the accepted counters moved
// by zero and the finalized aggregate is bit-identical to the honest
// control. Randomized fuzz coverage lives at the decoder layer
// (tests/proto); this scenario pins the end-to-end admission contract.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "proto/message.hpp"
#include "server/deployment.hpp"

namespace eyw::scenario {

/// One corpus entry: a complete length-framed TCP frame and the refusal
/// the endpoint must answer it with.
struct MutatorCase {
  std::string name;
  std::vector<std::uint8_t> frame;
  proto::ErrorCode expect;
  bool bumps_replay = false;  // refused_replay must move
  bool bumps_stale = false;   // refused_stale_round must move
};

struct MutatorCaseReport {
  std::string name;
  proto::ErrorCode expect;
  /// Code the server actually answered (kInternal when the reply could not
  /// be parsed at all).
  proto::ErrorCode got = proto::ErrorCode::kInternal;
  bool refused_as_expected = false;
};

struct MutatorOutcome {
  std::size_t injected = 0;        // total frames sent across all passes
  std::size_t refused = 0;         // answered with the expected Error code
  std::vector<MutatorCaseReport> cases;  // first-pass per-case verdicts
  /// Stats-endpoint deltas: refusals moved by exactly `injected`, every
  /// per-code bucket by its expected share, replay/stale sub-counters by
  /// theirs, and reports/adjustments_accepted by zero.
  bool counters_account = false;
  /// Missing list stayed empty and the finalized aggregate is
  /// bit-identical to the in-process honest control.
  bool aggregation_clean = false;
  std::uint64_t stats_refusals_delta = 0;

  [[nodiscard]] bool ok() const noexcept {
    return injected > 0 && refused == injected && counters_account &&
           aggregation_clean;
  }
};

/// The deterministic hostile corpus against `round` (which must be the
/// currently open round) for a roster of `roster` reporters whose reports
/// are already accepted. Exposed so the replayed-frame tests can reuse
/// exact entries.
[[nodiscard]] std::vector<MutatorCase> mutator_corpus(
    const server::BackendConfig& config, std::uint64_t round,
    std::size_t roster, std::size_t shards);

/// Run the full scenario against a fresh deployment round: open `round` with
/// a small honest roster, accept every honest report, inject the corpus
/// `repeats` times over raw TCP, then finalize and audit the counters over
/// the stats endpoint.
[[nodiscard]] MutatorOutcome run_mutator(server::Deployment& deployment,
                                         std::uint64_t round,
                                         std::size_t repeats = 5);

}  // namespace eyw::scenario
