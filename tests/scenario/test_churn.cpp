// Churn scenario: a blinded round survives reporter churn in every phase
// and — the seeded-determinism contract — does so identically on every
// run with the same seed, across fresh server deployments.
#include <gtest/gtest.h>

#include "scenario/churn.hpp"
#include "scenario/scenario.hpp"
#include "server/deployment.hpp"

namespace eyw::scenario {
namespace {

ChurnOutcome run_once(std::size_t roster, std::uint64_t seed) {
  server::Deployment deployment;
  const ChurnOutcome outcome =
      run_churn_round(deployment, 1, ChurnSchedule::make(roster, 0.30, seed),
                      seed);
  deployment.stop();
  return outcome;
}

TEST(ChurnSchedule, PartitionsRosterAndPinsIndexZeroHonest) {
  const ChurnSchedule schedule = ChurnSchedule::make(64, 0.30, 9);
  ASSERT_EQ(schedule.roster(), 64u);
  EXPECT_EQ(schedule.styles[0], ChurnStyle::kHonest);

  // reporters() and expected_missing() partition the roster exactly.
  const auto reporters = schedule.reporters();
  const auto missing = schedule.expected_missing();
  EXPECT_EQ(reporters.size() + missing.size(), schedule.roster());
  std::vector<bool> seen(schedule.roster(), false);
  for (const std::size_t i : reporters) seen[i] = true;
  for (const std::size_t i : missing) {
    EXPECT_FALSE(seen[i]) << "index " << i << " in both partitions";
    seen[i] = true;
  }
  for (const bool s : seen) EXPECT_TRUE(s);

  // 30% nominal churn leaves a usable quorum but a non-trivial missing
  // list at this roster size.
  EXPECT_GT(missing.size(), 4u);
  EXPECT_GT(reporters.size(), 32u);
}

TEST(ChurnSchedule, SeedDeterminesStyles) {
  const auto a = ChurnSchedule::make(48, 0.30, 7);
  const auto b = ChurnSchedule::make(48, 0.30, 7);
  const auto c = ChurnSchedule::make(48, 0.30, 8);
  EXPECT_EQ(a.styles, b.styles);
  EXPECT_NE(a.styles, c.styles);
}

TEST(ChurnRound, SurvivesChurnIdenticalToHonestSubsetControl) {
  const ChurnOutcome outcome = run_once(48, 21);
  EXPECT_TRUE(outcome.identical);
  EXPECT_TRUE(outcome.missing_as_expected);
  EXPECT_TRUE(outcome.stats_ok);
  ASSERT_TRUE(outcome.ok());
  // The schedule at this seed actually churns someone — otherwise the
  // scenario degenerates to a plain honest round.
  EXPECT_FALSE(outcome.missing.empty());
  EXPECT_EQ(outcome.stats_missing, outcome.missing.size());
}

TEST(ChurnRound, ShedReportersAreRefusedAndAbsorbedBitExactly) {
  // Force a schedule where overload sheds definitely occur (rate 1.0 on a
  // roster this size yields every style). Each kShed reporter opens a
  // stream id above the deployed per-connection cap, so every one must be
  // refused with a hintless kUnavailable, land on the missing list, and
  // leave the finalize bit-identical to the honest-subset control.
  server::Deployment deployment;
  const ChurnSchedule schedule = ChurnSchedule::make(48, 1.0, 17);
  std::size_t shed = 0;
  for (const ChurnStyle s : schedule.styles)
    if (s == ChurnStyle::kShed) ++shed;
  ASSERT_GT(shed, 0u) << "seed 17 must schedule at least one kShed";

  const ChurnOutcome outcome = run_churn_round(deployment, 1, schedule, 17);
  EXPECT_EQ(outcome.sheds_attempted, shed);
  EXPECT_TRUE(outcome.sheds_refused_ok)
      << "a shed reporter saw something other than hintless kUnavailable";
  EXPECT_TRUE(outcome.identical)
      << "shed attempts must not perturb the aggregate";
  EXPECT_TRUE(outcome.missing_as_expected);
  EXPECT_TRUE(outcome.stats_ok);
  // The operator surface tells the same story: the reactor counted every
  // shed, and none of those frames was admitted as a report.
  EXPECT_GE(stat(deployment.stats_port(), "streams_shed"), shed);
  EXPECT_EQ(stat(deployment.stats_port(), "round_reports"),
            outcome.schedule.reporters().size());
  deployment.stop();
}

TEST(ChurnRound, SameSeedIsBitIdenticalAcrossDeployments) {
  const ChurnOutcome a = run_once(48, 33);
  const ChurnOutcome b = run_once(48, 33);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Identical kill timeline, identical missing list, bit-identical
  // finalize — compressed into one digest, then re-checked structurally.
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.missing, b.missing);
  ASSERT_TRUE(a.result.has_value());
  ASSERT_TRUE(b.result.has_value());
  EXPECT_TRUE(results_identical(*a.result, *b.result));
}

TEST(ChurnRound, DifferentSeedsDiverge) {
  const ChurnOutcome a = run_once(32, 101);
  const ChurnOutcome b = run_once(32, 102);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.digest, b.digest);
}

}  // namespace
}  // namespace eyw::scenario
