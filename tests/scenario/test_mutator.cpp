// Mutator scenario: every hostile frame in the corpus is refused with its
// expected code, the refusal counters account for 100% of the injections,
// and the finalized aggregate never saw any of it.
#include <gtest/gtest.h>

#include "scenario/mutator.hpp"
#include "server/deployment.hpp"

namespace eyw::scenario {
namespace {

TEST(Mutator, CorpusCoversEveryRefusalFamily) {
  const auto corpus = mutator_corpus(server::default_config(), /*round=*/1,
                                     /*roster=*/6, /*shards=*/2);
  ASSERT_GT(corpus.size(), 15u);

  bool saw_replay = false, saw_stale = false;
  std::vector<bool> saw_code(16, false);
  for (const MutatorCase& c : corpus) {
    saw_replay = saw_replay || c.bumps_replay;
    saw_stale = saw_stale || c.bumps_stale;
    saw_code[static_cast<std::size_t>(c.expect)] = true;
  }
  EXPECT_TRUE(saw_replay);
  EXPECT_TRUE(saw_stale);
  // The families the endpoint can actually answer for a framed envelope.
  using proto::ErrorCode;
  for (const ErrorCode code :
       {ErrorCode::kBadMagic, ErrorCode::kBadVersion, ErrorCode::kUnknownKind,
        ErrorCode::kTruncated, ErrorCode::kTrailingBytes, ErrorCode::kMalformed,
        ErrorCode::kGeometryMismatch, ErrorCode::kRejected}) {
    EXPECT_TRUE(saw_code[static_cast<std::size_t>(code)])
        << "no corpus case expects code " << static_cast<unsigned>(code);
  }
}

TEST(Mutator, EveryInjectionRefusedAndAccountedFor) {
  server::Deployment deployment;
  const MutatorOutcome outcome = run_mutator(deployment, 1, /*repeats=*/3);
  deployment.stop();

  EXPECT_GT(outcome.injected, 0u);
  EXPECT_EQ(outcome.refused, outcome.injected);
  EXPECT_TRUE(outcome.counters_account);
  EXPECT_TRUE(outcome.aggregation_clean);
  EXPECT_EQ(outcome.stats_refusals_delta, outcome.injected);
  for (const MutatorCaseReport& c : outcome.cases) {
    EXPECT_TRUE(c.refused_as_expected)
        << c.name << ": expected code " << static_cast<unsigned>(c.expect)
        << " got " << static_cast<unsigned>(c.got);
  }
  EXPECT_TRUE(outcome.ok());
}

}  // namespace
}  // namespace eyw::scenario
