#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace eyw::bench {

namespace {

/// Measured rounds for a `seconds`-long run, from the rounds that fill ten
/// seconds on the reference box.
std::size_t rounds_for(std::size_t per_10s, double seconds) {
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(per_10s * seconds / 10.0)));
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "ingest_saturate", "ingest_paced_journal", "round_blinded_churn",
      "oprf_mixed"};
  return names;
}

WorkloadSpec make_workload(const std::string& name, double seconds,
                           bool smoke) {
  WorkloadSpec w;
  w.name = name;
  if (name == "ingest_saturate") {
    w.why =
        "closed loop at full ingest rate: per-frame proto, dispatch, "
        "endpoint and cluster cost; crypto and storage idle";
    w.loop = Loop::kClosed;
    w.roster = 32'768;
    w.window = 2048;
    w.rounds = rounds_for(45, seconds);
  } else if (name == "ingest_paced_journal") {
    w.why =
        "open-loop Poisson arrivals with the group-commit journal: "
        "queueing a closed loop hides, and the storage path";
    w.loop = Loop::kOpen;
    w.roster = 16'384;
    w.rate = 40'000.0;
    w.journal = true;
    w.rounds = rounds_for(24, seconds);
  } else if (name == "round_blinded_churn") {
    w.why =
        "the paper's blinded round with 20% churn: pads, adjustments and "
        "a 1M-id finalize dominate";
    w.loop = Loop::kBlinded;
    w.roster = 256;
    w.churn = 51;
    w.dh_bits = 256;
    w.id_space = 1'000'000;
    w.rounds = rounds_for(28, seconds);
  } else if (name == "oprf_mixed") {
    w.why =
        "RSA-1024 OPRF batches sharing lane 0, the reactor and the cores "
        "with open-loop report ingest";
    w.loop = Loop::kOpen;
    w.roster = 10'000;
    w.rate = 10'000.0;
    w.rounds = rounds_for(10, seconds);
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  if (smoke) {
    w.roster = std::max<std::size_t>(w.loop == Loop::kBlinded ? 16 : 64,
                                     w.roster / 50);
    w.churn = w.churn == 0 ? 0 : w.roster / 5;
    w.window = std::min(w.window, w.roster);
    w.rounds = 2;
  }
  if (name == "oprf_mixed") {
    // One batch due every period for as long as the rounds' schedule runs.
    const double schedule_ms = 1000.0 * static_cast<double>(w.roster) /
                               w.rate * static_cast<double>(w.rounds);
    w.oprf_batches = static_cast<std::size_t>(schedule_ms / w.oprf_period_ms);
  }
  return w;
}

}  // namespace eyw::bench
