// The load generator: one process, at most nproc threads and connections,
// driving a server child over real TCP.
//
// Thread budget (nproc = 4 on the reference box): the main thread, the
// two ClientReactor shards, and at most one worker — the ThreadPool(2)
// worker handed to BlindingParticipant, or the OPRF thread. Connections:
// three mux connections carry the reports (and the OPRF stream on the
// first), one version-1 connection carries the control plane through the
// pipelined RemoteBackend.
//
// A pass is `setups` sessions of one workload against fresh server
// children; every session times its set-up, and only the last one runs
// the measured rounds. Every round's output is checked before the next
// begins; a wrong round throws RunFailure and the pass emits nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "kernels.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace eyw::bench {

/// A correctness gate failed: the run's numbers must not be reported.
class RunFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct PassOptions {
  std::uint64_t seed = 1;
  bool traced = false;
  std::size_t setups = 1;
  /// Scratch directory of this pass (server stats, spans, journals).
  std::string out_dir;
};

struct RoundStat {
  double wall_ms = 0.0;         ///< BeginRound sent -> RoundSummary decoded
  std::size_t reports = 0;      ///< acked reports
  std::size_t adjustments = 0;  ///< acked adjustments
  double drain_ms = 0.0;        ///< last ack after the last due time
  double server_cpu_ms = 0.0;   ///< server child CPU, all threads
};

/// Everything one pass measured. Times in the vectors are ns.
struct PassData {
  std::vector<double> setup_s;  ///< one per session
  double roster_setup_s = 0.0;  ///< generator DH roster (blinded only)
  std::vector<RoundStat> rounds;
  std::vector<Submission> subs;  ///< every submission of the measured rounds
  std::vector<double> blind_ns;         ///< BlindingParticipant::blind
  std::vector<double> blind_encode_ns;  ///< blind + encode
  std::vector<double> adjust_ns;        ///< adjustment_for_missing
  std::vector<OprfBatch> oprf;
  std::size_t control_calls = 0;
  double gen_cpu_s = 0.0;
  std::size_t server_peak_rss_kib = 0;
  std::size_t server_threads = 0;
  std::size_t gen_threads_max = 0;
  std::size_t gen_connections_max = 0;
  std::uint64_t client_retries = 0;
  std::map<std::string, std::string> server_stats;
  std::vector<ServerSpan> spans;  ///< traced passes only
  Kernels gen_kernels;
};

/// Run one pass of `spec`. Throws RunFailure when a gate fails.
[[nodiscard]] PassData run_pass(const WorkloadSpec& spec,
                                const PassOptions& options);

}  // namespace eyw::bench
