// Soak scenario, test-sized: a couple of seconds of back-to-back durable
// churn rounds against one long-lived deployment must hold every leak
// gauge (fds, reactor channels, dispatcher depth) flat at its baseline.
#include <gtest/gtest.h>

#include <filesystem>

#include "scenario/soak.hpp"
#include "server/deployment.hpp"

namespace eyw::scenario {
namespace {

TEST(Soak, ShortSoakHoldsEveryGaugeFlat) {
  const std::string journal =
      (std::filesystem::temp_directory_path() / "eyw-test-soak-journal")
          .string();
  std::filesystem::remove_all(journal);

  SoakReport report;
  {
    server::Deployment deployment(
        {.journal = server::DurabilityConfig{.dir = journal}});
    SoakOptions options;
    options.budget = std::chrono::milliseconds(2'000);
    options.min_rounds = 3;
    options.roster = 12;
    options.seed = 5;
    report = run_soak(deployment, 1, options);
    deployment.stop();
  }
  std::filesystem::remove_all(journal);

  EXPECT_GE(report.rounds, 3u);
  EXPECT_TRUE(report.all_rounds_ok)
      << "first failed round: " << report.first_failed_round;
  std::string trajectory;
  for (const SoakRound& s : report.samples)
    trajectory += " " + std::to_string(s.open_fds) +
                  (s.settled ? "" : "(unsettled)");
  EXPECT_TRUE(report.fds_flat) << "fd trajectory:" << trajectory;
  EXPECT_TRUE(report.channels_drained);
  EXPECT_TRUE(report.queues_drained);
  // Zero-copy ingest discipline: after the warmup round fills the frame
  // pool, a fixed round shape must recycle every buffer (no new misses),
  // never hit the copying mux fallback, and journal captured wire bytes
  // instead of re-encoding submissions.
  std::string misses;
  for (const SoakRound& s : report.samples)
    misses += " " + std::to_string(s.pool_misses);
  EXPECT_TRUE(report.pool_misses_flat) << "pool miss trajectory:" << misses;
  EXPECT_TRUE(report.ingest_copies_flat);
  EXPECT_TRUE(report.journal_reencodes_zero);
  EXPECT_TRUE(report.ok());
  // Every sample actually settled — an unsettled stack would mean the
  // zero-growth numbers were read mid-drain.
  for (const SoakRound& s : report.samples) EXPECT_TRUE(s.settled);
}

}  // namespace
}  // namespace eyw::scenario
