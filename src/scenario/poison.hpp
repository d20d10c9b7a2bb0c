// PoisonReporter: a roster member that participates in the blinding
// protocol correctly — real pairwise-DH pads, well-formed frames, valid
// rounds — but reports crafted cell contents instead of what it counted.
//
// This pins the blinded-aggregate trust model from the paper: the
// back-end cannot inspect report *content* (that is the privacy goal), so
// content poisoning is accepted by design and shifts the aggregate by
// exactly the poisoner's crafted contribution — no more (the pads still
// cancel), no less (wrapping arithmetic is exact). What the server CAN
// and must refuse is structural cheating: a poisoner re-reporting to
// double its weight is refused as a duplicate with the first submission
// standing. The scenario asserts both sides of that boundary bit-exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/blinding.hpp"
#include "server/deployment.hpp"

namespace eyw::scenario {

struct PoisonOutcome {
  /// The poisoner's second (different-bytes!) report was refused as a
  /// duplicate — first submission wins, weight cannot be doubled.
  bool re_report_refused = false;
  /// refused_replay moved on the stats surface for the re-report.
  bool counters_moved = false;
  /// Finalized aggregate == honest cells of everyone else + the crafted
  /// cells, bit for bit (through the shared finalize tail).
  bool shift_exact = false;
  /// aggregate - honest-world aggregate == crafted - honest cells of the
  /// poisoner, wrapping, cell for cell: the poisoner moved the result by
  /// exactly its own contribution and nothing else.
  bool shift_bounded = false;
  std::optional<server::RoundResult> result;

  [[nodiscard]] bool ok() const noexcept {
    return re_report_refused && counters_moved && shift_exact &&
           shift_bounded;
  }
};

/// The crafted cells the poisoner reports (deterministic, obviously not a
/// real sketch: a saturating high-bias pattern).
[[nodiscard]] std::vector<crypto::BlindCell> poison_cells(
    const server::BackendConfig& config);

/// One blinded round over `deployment`'s socket with `roster` reporters, all
/// honest except `poisoner`, who blinds crafted cells and then attempts a
/// second report. No one is missing (poisoning hides best in a clean
/// round).
[[nodiscard]] PoisonOutcome run_poison_round(server::Deployment& deployment,
                                             std::uint64_t round,
                                             std::size_t roster,
                                             std::size_t poisoner,
                                             std::uint64_t seed);

}  // namespace eyw::scenario
