#include "scenario/scenario.hpp"

#include <dirent.h>

#include <cstdio>
#include <filesystem>

#include "scenario/churn.hpp"
#include "scenario/crash_churn.hpp"
#include "scenario/mutator.hpp"
#include "scenario/poison.hpp"
#include "scenario/soak.hpp"
#include "server/deployment.hpp"
#include "server/stats_endpoint.hpp"

namespace eyw::scenario {

namespace {

int run_churn30(const ScenarioOptions& options) {
  // Two full runs with the same seed against two fresh deployments: the
  // acceptance bar is not just "the blinded round survives 30% churn"
  // but "it survives it deterministically" — identical kill timelines,
  // identical missing lists, bit-identical finalize, equal digests.
  const auto run_once = [&options] {
    server::Deployment deployment({.max_connections = 4096});
    const ChurnSchedule schedule =
        ChurnSchedule::make(options.reporters, 0.30, options.seed);
    ChurnOutcome outcome =
        run_churn_round(deployment, 1, schedule, options.seed);
    deployment.stop();
    return outcome;
  };
  const ChurnOutcome first = run_once();
  const ChurnOutcome second = run_once();
  const bool deterministic = first.digest == second.digest;
  std::printf(
      "churn30: roster=%zu missing=%zu reports=%llu adjustments=%llu\n"
      "  finalize identical to honest-subset control: %s\n"
      "  missing list as scheduled: %s\n"
      "  stats endpoint accounts (reports/adjustments/missing): %s\n"
      "  seeded determinism (digest %016llx == %016llx): %s\n",
      first.schedule.roster(), first.missing.size(),
      static_cast<unsigned long long>(first.stats_reports),
      static_cast<unsigned long long>(first.stats_adjustments),
      first.identical ? "yes" : "NO", first.missing_as_expected ? "yes" : "NO",
      first.stats_ok ? "yes" : "NO",
      static_cast<unsigned long long>(first.digest),
      static_cast<unsigned long long>(second.digest),
      deterministic ? "yes" : "NO");
  return first.ok() && second.ok() && deterministic ? 0 : 1;
}

int run_mutator_scenario(const ScenarioOptions& options) {
  (void)options;
  server::Deployment deployment;
  const MutatorOutcome outcome = run_mutator(deployment, 1);
  deployment.stop();
  std::printf(
      "mutator: injected=%zu refused-with-expected-code=%zu\n"
      "  refusal counters account for 100%% of injections: %s\n"
      "  zero hostile frames reached aggregation: %s\n",
      outcome.injected, outcome.refused,
      outcome.counters_account ? "yes" : "NO",
      outcome.aggregation_clean ? "yes" : "NO");
  for (const MutatorCaseReport& c : outcome.cases)
    if (!c.refused_as_expected)
      std::printf("  FAILED case %-26s expected code %u got %u\n",
                  c.name.c_str(), static_cast<unsigned>(c.expect),
                  static_cast<unsigned>(c.got));
  return outcome.ok() ? 0 : 1;
}

int run_poison_scenario(const ScenarioOptions& options) {
  server::Deployment deployment;
  const PoisonOutcome outcome =
      run_poison_round(deployment, 1, /*roster=*/6, /*poisoner=*/4,
                       options.seed);
  deployment.stop();
  std::printf(
      "poison: re-report refused as duplicate: %s (counter moved: %s)\n"
      "  aggregate == honest peers + crafted cells, bit for bit: %s\n"
      "  shift bounded by the poisoner's own contribution: %s\n",
      outcome.re_report_refused ? "yes" : "NO",
      outcome.counters_moved ? "yes" : "NO",
      outcome.shift_exact ? "yes" : "NO",
      outcome.shift_bounded ? "yes" : "NO");
  return outcome.ok() ? 0 : 1;
}

int run_soak_scenario(const ScenarioOptions& options) {
  // A fresh journal per run: a leftover from an earlier soak would be
  // recovered (that is the durability contract) and its open round would
  // refuse this run's BeginRound as a replay.
  const std::string journal = options.work_dir + "/soak-journal";
  std::error_code ec;
  std::filesystem::remove_all(journal, ec);
  server::Deployment deployment(
      {.journal = server::DurabilityConfig{.dir = journal}});
  SoakOptions soak;
  soak.budget = options.soak_budget;
  soak.seed = options.seed;
  const SoakReport report = run_soak(deployment, 1, soak);
  deployment.stop();
  std::printf(
      "soak: %zu durable churn rounds in %lld ms\n"
      "  every round finalized identical to control: %s\n"
      "  fds flat at baseline after every round: %s\n"
      "  reactor channels drained to zero every round: %s\n"
      "  dispatcher queue drained to zero every round: %s\n"
      "  frame-pool misses flat after warmup: %s\n"
      "  ingest copy fallback bytes flat after warmup: %s\n"
      "  journal re-encodes stayed at zero: %s\n",
      report.rounds, static_cast<long long>(report.elapsed.count()),
      report.all_rounds_ok ? "yes" : "NO",
      report.fds_flat ? "yes" : "NO", report.channels_drained ? "yes" : "NO",
      report.queues_drained ? "yes" : "NO",
      report.pool_misses_flat ? "yes" : "NO",
      report.ingest_copies_flat ? "yes" : "NO",
      report.journal_reencodes_zero ? "yes" : "NO");
  if (!report.all_rounds_ok)
    std::printf("  first failed round: %llu\n",
                static_cast<unsigned long long>(report.first_failed_round));
  return report.ok() ? 0 : 1;
}

int run_crash_churn_scenario(const ScenarioOptions& options) {
  const CrashChurnOutcome outcome = run_crash_churn(options.work_dir);
  std::printf(
      "crash-churn: kill -9 with %zu reported, %zu missing, torn frame in "
      "flight\n"
      "  missing list after recovery == before crash: %s\n"
      "  recovery replayed %llu records, refused 0, torn 0: %s\n"
      "  duplicate still refused across the crash: %s\n"
      "  adjustment + finalize on recovered state identical to control: "
      "%s\n",
      std::size_t{12} - outcome.missing_before.size(),
      outcome.missing_before.size(), outcome.missing_match ? "yes" : "NO",
      static_cast<unsigned long long>(outcome.records_replayed),
      outcome.recovery_clean ? "yes" : "NO",
      outcome.duplicate_refused_after_recovery ? "yes" : "NO",
      outcome.finalize_identical ? "yes" : "NO");
  return outcome.ok() ? 0 : 1;
}

}  // namespace

std::vector<std::string> scenario_names() {
  return {"churn30", "mutator", "poison", "soak", "crash-churn"};
}

int run_scenario(const std::string& name, const ScenarioOptions& options) {
  if (name == "churn30") return run_churn30(options);
  if (name == "mutator") return run_mutator_scenario(options);
  if (name == "poison") return run_poison_scenario(options);
  if (name == "soak") return run_soak_scenario(options);
  if (name == "crash-churn") return run_crash_churn_scenario(options);
  std::fprintf(stderr, "unknown scenario '%s'; have:", name.c_str());
  for (const std::string& n : scenario_names())
    std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool results_identical(const server::RoundResult& want,
                       const server::RoundResult& got) {
  const auto want_cells = want.aggregate.cells();
  const auto got_cells = got.aggregate.cells();
  bool identical = want_cells.size() == got_cells.size() &&
                   want.users_threshold == got.users_threshold &&
                   want.distribution == got.distribution &&
                   want.reports == got.reports && want.roster == got.roster;
  for (std::size_t i = 0; identical && i < want_cells.size(); ++i)
    identical = want_cells[i] == got_cells[i];
  return identical;
}

std::uint64_t stat(std::uint16_t stats_port, const std::string& name) {
  return server::stats_value(server::stats_http_get(stats_port), name);
}

std::size_t open_fds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::size_t count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  // Subtract ".", ".." and the dirfd opendir itself holds.
  return count >= 3 ? count - 3 : 0;
}

}  // namespace eyw::scenario
