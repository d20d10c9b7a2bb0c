// From pass records to named metrics. End-to-end metrics come from an
// untraced pass only; per-layer metrics come from a traced pass (plus the
// untraced pass of the same invocation, for the generator's own numbers
// and the tracing overhead). README.md maps every layer metric to the
// end-to-end metric and workload it should move.
#pragma once

#include <string>
#include <vector>

#include "generator.hpp"
#include "json.hpp"
#include "workloads.hpp"

namespace eyw::bench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Counts {
  std::size_t attempted = 0;  ///< submissions, control calls, OPRF batches
  std::size_t failed = 0;
};

[[nodiscard]] Counts count_operations(const PassData& pass);

/// The end-to-end metrics of an untraced pass; `detail` receives the
/// sample counts, tails and spreads behind them.
[[nodiscard]] std::vector<Metric> e2e_metrics(const WorkloadSpec& spec,
                                              const PassData& untraced,
                                              JsonObject& detail);

/// The per-layer metrics of a traced pass.
[[nodiscard]] std::vector<Metric> layer_metrics(const WorkloadSpec& spec,
                                                const PassData& untraced,
                                                const PassData& traced,
                                                JsonObject& detail);

/// Run-level gates (thread/connection budget, zero-copy journal path,
/// open-loop generator punctuality). Throws RunFailure naming the first
/// that fails.
/// `timing` enables the gates that only hold on an unloaded box at full
/// size (off for --smoke).
void check_gates(const WorkloadSpec& spec, const PassData& pass,
                 std::size_t nproc, bool timing);

}  // namespace eyw::bench
