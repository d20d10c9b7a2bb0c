// ChurnSchedule: seeded reporter churn in every round phase, against the
// real reactor stack.
//
// The paper's reporters are browser extensions on the open internet: they
// vanish before connecting, mid-frame, after connecting but before
// reporting, and after the round no longer needs them. Each style maps to
// a distinct server-side code path:
//
//   kHonest         full participation (report + adjustment)
//   kNeverConnects  no TCP connection at all            -> missing list
//   kConnectsIdle   connects, sends nothing, dies       -> missing list
//   kDiesMidReport  sends a partial frame, dies         -> missing list
//                   (the torn frame never completes the length prefix's
//                   promise, so it is discarded at the framing layer and
//                   never dispatched — nothing to refuse, nothing journaled)
//   kDiesAfterAdjust reports AND adjusts, then its connection dies in the
//                   finalize phase — the one post-report death the blinded
//                   aggregate tolerates by design. A reporter that died
//                   between report and adjustment would strand the round
//                   (its pads cannot be cancelled; finalize refuses), which
//                   is the documented protocol limitation, not a scenario
//                   bug — see docs/scenarios.md#threat-matrix.
//   kShed           submits on a multiplexed connection with a stream id
//                   above the server's per-connection cap -> refused with a
//                   hintless Error(kUnavailable) before dispatch (PR 9
//                   overload shedding). The frame never reaches the
//                   endpoint or the journal, so the missing list absorbs
//                   the reporter exactly like a never-connect.
//
// Everything is derived from one seed: the style assignment, the kill
// timeline, the missing list, and therefore the finalize result. Two runs
// with the same seed must produce identical digests — asserted in
// tests/scenario/ so churn coverage can never flake.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "server/backend.hpp"
#include "server/deployment.hpp"

namespace eyw::scenario {

enum class ChurnStyle : std::uint8_t {
  kHonest = 0,
  kNeverConnects = 1,
  kConnectsIdle = 2,
  kDiesMidReport = 3,
  kDiesAfterAdjust = 4,
  kShed = 5,
};

[[nodiscard]] const char* to_string(ChurnStyle style) noexcept;

/// Seeded style assignment for a roster: ~`rate` of the roster churns,
/// split across the four churn styles by the same rng stream.
struct ChurnSchedule {
  std::vector<ChurnStyle> styles;

  [[nodiscard]] static ChurnSchedule make(std::size_t roster, double rate,
                                          std::uint64_t seed);

  [[nodiscard]] std::size_t roster() const noexcept { return styles.size(); }
  /// Indices that end up on the missing list (never-connects, idle,
  /// mid-report deaths, overload sheds).
  [[nodiscard]] std::vector<std::size_t> expected_missing() const;
  /// Indices whose report is accepted (honest + dies-after-adjust).
  [[nodiscard]] std::vector<std::size_t> reporters() const;
};

struct ChurnOutcome {
  ChurnSchedule schedule;
  std::vector<std::size_t> missing;  // what the server reported
  // Optional only because RoundResult has no default state; both are
  // always set on return.
  std::optional<server::RoundResult> result;   // finalized over the socket
  std::optional<server::RoundResult> control;  // honest-subset-only
  bool identical = false;            // result == control, bit for bit
  bool missing_as_expected = false;
  /// Stats-endpoint assertions (read over HTTP, the operator surface).
  bool stats_ok = false;
  std::uint64_t stats_reports = 0;
  std::uint64_t stats_adjustments = 0;
  std::uint64_t stats_missing = 0;
  /// Overload-shed reporters (ChurnStyle::kShed): how many submitted, and
  /// whether every one was refused with the exact contract — a hintless
  /// Error(kUnavailable), nothing dispatched, nothing aggregated.
  std::size_t sheds_attempted = 0;
  bool sheds_refused_ok = true;
  /// FNV digest of schedule + missing list + aggregate cells: equal seeds
  /// must produce equal digests.
  std::uint64_t digest = 0;

  [[nodiscard]] bool ok() const noexcept {
    return identical && missing_as_expected && stats_ok && sheds_refused_ok;
  }
};

/// Run one full blinded round (real pairwise-DH blinding, real
/// adjustments) over `deployment`'s socket with the schedule's churn applied
/// in every phase, then finalize and compare bit-for-bit against the
/// honest-subset-only control. The control is the blinding identity: after
/// every reporter adjusts for the missing set, the aggregate equals the
/// plain cell sum of exactly the reporters — computed in-process through
/// the same finalize tail (finalize_from_cells).
[[nodiscard]] ChurnOutcome run_churn_round(server::Deployment& deployment,
                                           std::uint64_t round,
                                           const ChurnSchedule& schedule,
                                           std::uint64_t seed);

/// Deterministic synthetic plain cells for roster index `i` (what reporter
/// i would have counted this round).
[[nodiscard]] std::vector<crypto::BlindCell> plain_cells(
    const server::BackendConfig& config, std::size_t i);

}  // namespace eyw::scenario
