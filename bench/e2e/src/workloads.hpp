// The four workloads. Each drives paper-shaped rounds (BeginRound →
// reports → MissingQuery → adjustments when anyone is missing → Finalize)
// through the real server child; they differ in how reports arrive and in
// which layer dominates. Round counts follow from the run length alone, so
// a parent commit and a change do identical work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace eyw::bench {

enum class Loop {
  kClosed,   ///< fixed window of exchanges in flight; next sent on ack
  kOpen,     ///< seeded Poisson schedule; latency from the due time
  kBlinded,  ///< each report sent as soon as it is blinded
};

struct WorkloadSpec {
  std::string name;
  std::string why;
  Loop loop = Loop::kClosed;
  std::size_t roster = 0;  ///< reporters per round
  std::size_t rounds = 0;  ///< measured rounds (one untimed warm-up first)
  std::size_t window = 0;  ///< closed loop: exchanges in flight
  double rate = 0.0;       ///< open loop: reports per second
  bool journal = false;    ///< group-commit DurableBackend on the server
  std::uint64_t id_space = 10'000;
  std::size_t churn = 0;    ///< blinded: members that never report
  std::size_t dh_bits = 0;  ///< blinded: DH group size
  std::size_t oprf_batches = 0;  ///< OPRF batches over the measured rounds
  std::size_t oprf_batch_size = 32;
  double oprf_period_ms = 20.0;  ///< one batch due every period
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// The workload sized for a run of `seconds` measured seconds on the
/// reference box (4 cores); `smoke` shrinks it ~50x for tests.
/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] WorkloadSpec make_workload(const std::string& name,
                                         double seconds, bool smoke);

}  // namespace eyw::bench
