// Named scenario registry — the operator-facing entry point behind
// `quickstart --scenario NAME [--seed S]` and the scenario test binary —
// plus the checks every scenario shares. Each scenario stands up its own
// fresh server::Deployment, runs, prints a human-readable verdict to
// stdout, and returns a process exit code, so CI can run them as plain
// commands. Everything here is deterministic given the scenario's seed.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "server/backend.hpp"

namespace eyw::scenario {

struct ScenarioOptions {
  std::uint64_t seed = 1;
  /// Roster size for churn30 (the acceptance floor is 256).
  std::size_t reporters = 256;
  /// Wall-clock budget for the soak scenario.
  std::chrono::milliseconds soak_budget{15'000};
  /// Scratch directory for journals + port files (crash-churn, soak).
  std::string work_dir = ".";
};

/// Every runnable scenario name, in documentation order.
[[nodiscard]] std::vector<std::string> scenario_names();

/// Run one named scenario end to end. Prints a report; returns 0 on pass,
/// 1 on scenario failure, 2 on unknown name. crash-churn re-execs this
/// binary as its server child, so the host's main() must hand `--serve`
/// to server::serve_main().
int run_scenario(const std::string& name, const ScenarioOptions& options);

/// Bit-for-bit round-result equality: aggregate cells, threshold,
/// #Users histogram, reports and roster must all match exactly — the
/// acceptance bar every scenario holds finalize to.
[[nodiscard]] bool results_identical(const server::RoundResult& want,
                                     const server::RoundResult& got);

/// Fetch + parse one counter off a deployment's stats endpoint — the
/// assertion path every scenario uses (goes over real HTTP, not through
/// the object).
[[nodiscard]] std::uint64_t stat(std::uint16_t stats_port,
                                 const std::string& name);

/// Open fds of this process (/proc/self/fd entries) — the soak's leak
/// metric. 0 when unreadable.
[[nodiscard]] std::size_t open_fds();

/// FNV-1a over a little-endian u64 stream: the digest scenarios publish
/// so two seeded runs can be compared without shipping full transcripts.
class Digest {
 public:
  void add(std::uint64_t v) noexcept {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace eyw::scenario
