// Crash-churn: SIGKILL a journaled server while churn is active (idle
// connection open, torn frame half-sent, roster partially reported),
// restart over the same journal, and prove the recovered round is the
// round that crashed. The server child is this same test binary re-exec'd
// with --serve (see main.cpp).
#include <gtest/gtest.h>

#include <filesystem>

#include "scenario/crash_churn.hpp"

namespace eyw::scenario {
namespace {

TEST(CrashChurn, RecoveredRoundIsTheRoundThatCrashed) {
  const std::string work_dir =
      (std::filesystem::temp_directory_path() / "eyw-test-crash-churn")
          .string();
  std::filesystem::create_directories(work_dir);

  const CrashChurnOutcome outcome = run_crash_churn(work_dir);

  EXPECT_TRUE(outcome.missing_match)
      << "missing before: " << outcome.missing_before.size()
      << " after: " << outcome.missing_after.size();
  EXPECT_TRUE(outcome.recovery_clean);
  EXPECT_GE(outcome.records_replayed, 8u);
  EXPECT_TRUE(outcome.duplicate_refused_after_recovery);
  EXPECT_TRUE(outcome.finalize_identical);
  EXPECT_TRUE(outcome.ok());

  std::filesystem::remove_all(work_dir);
}

}  // namespace
}  // namespace eyw::scenario
