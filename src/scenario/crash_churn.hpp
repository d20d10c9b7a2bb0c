// Crash-churn: kill -9 a journaled server *while churn is active* — idle
// connections open, a torn frame half-sent, part of the roster still
// unreported — then restart over the same journal and prove the recovered
// round is byte-for-byte the round that crashed:
//
//   * the missing list after recovery equals the missing list the crashed
//     server had answered (only accepted records replay; the torn frame
//     and the idle connection leave nothing),
//   * a byte-identical resubmission of an accepted report is refused as a
//     duplicate across the restart (the reporter set survived),
//   * the adjustment phase and finalize complete against the recovered
//     state bit-identically to the in-process control.
//
// The child server is this same binary re-exec'd as `--serve 0 --once
// --journal DIR --port-file PATH` (server::spawn_journaled_server, like
// quickstart --crash-demo): real process, real SIGKILL, real recovery
// path. The host's main() must hand `--serve` to server::serve_main().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace eyw::scenario {

struct CrashChurnOutcome {
  std::vector<std::size_t> missing_before;  // crashed server's answer
  std::vector<std::size_t> missing_after;   // recovered server's answer
  bool missing_match = false;
  bool duplicate_refused_after_recovery = false;
  bool recovery_clean = false;  // records_refused == 0, torn_bytes == 0
  std::uint64_t records_replayed = 0;
  bool finalize_identical = false;

  [[nodiscard]] bool ok() const noexcept {
    return missing_match && duplicate_refused_after_recovery &&
           recovery_clean && finalize_identical;
  }
};

/// Run the full scenario under `work_dir` (journal + port files live
/// there; must exist and be writable). The server child is spawned
/// twice — once to crash, once to recover.
[[nodiscard]] CrashChurnOutcome run_crash_churn(const std::string& work_dir);

}  // namespace eyw::scenario
