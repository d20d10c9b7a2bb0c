// Poison scenario: both sides of the blinded-aggregate trust boundary.
// Content poisoning is accepted by design and shifts the aggregate by
// exactly the poisoner's own contribution; structural cheating (a second
// report to double the weight) is refused as a duplicate.
#include <gtest/gtest.h>

#include "scenario/poison.hpp"
#include "server/deployment.hpp"

namespace eyw::scenario {
namespace {

TEST(Poison, ShiftIsExactlyThePoisonersContribution) {
  server::Deployment deployment;
  const PoisonOutcome outcome = run_poison_round(
      deployment, 1, /*roster=*/6, /*poisoner=*/4, /*seed=*/77);
  deployment.stop();

  EXPECT_TRUE(outcome.shift_exact);
  EXPECT_TRUE(outcome.shift_bounded);
  EXPECT_TRUE(outcome.re_report_refused);
  EXPECT_TRUE(outcome.counters_moved);
  EXPECT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome.result.has_value());
}

TEST(Poison, HoldsForOtherRosterPositionsAndSeeds) {
  server::Deployment deployment;
  const PoisonOutcome outcome = run_poison_round(
      deployment, 1, /*roster=*/5, /*poisoner=*/0, /*seed=*/3);
  deployment.stop();
  EXPECT_TRUE(outcome.ok());
}

}  // namespace
}  // namespace eyw::scenario
