#include <gtest/gtest.h>

#include <algorithm>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "server/backend.hpp"
#include "server/round.hpp"

namespace eyw::server {
namespace {

const sketch::CmsParams kParams{.depth = 4, .width = 64};

BackendConfig backend_config() {
  return {.cms_params = kParams,
          .cms_hash_seed = 5,
          .id_space = 500,
          .users_rule = core::ThresholdRule::kMean};
}

TEST(Backend, RejectsBadConfig) {
  EXPECT_THROW(BackendServer({.cms_params = kParams, .id_space = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      BackendServer({.cms_params = {.depth = 0, .width = 0}, .id_space = 5}),
      std::invalid_argument);
}

TEST(Backend, ReportValidation) {
  BackendServer b(backend_config());
  b.begin_round(0, 3);
  EXPECT_THROW(b.submit_report(5, std::vector<crypto::BlindCell>(kParams.cells())),
               std::invalid_argument);  // outside roster
  EXPECT_THROW(b.submit_report(0, std::vector<crypto::BlindCell>(7)),
               std::invalid_argument);  // wrong geometry
  b.submit_report(0, std::vector<crypto::BlindCell>(kParams.cells()));
  EXPECT_THROW(b.submit_report(0, std::vector<crypto::BlindCell>(kParams.cells())),
               std::invalid_argument);  // duplicate
}

TEST(Backend, MissingParticipantsTracked) {
  BackendServer b(backend_config());
  b.begin_round(0, 4);
  b.submit_report(1, std::vector<crypto::BlindCell>(kParams.cells()));
  b.submit_report(3, std::vector<crypto::BlindCell>(kParams.cells()));
  const auto missing = b.missing_participants();
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0], 0u);
  EXPECT_EQ(missing[1], 2u);
}

TEST(Backend, AdjustmentsOnlyFromReporters) {
  BackendServer b(backend_config());
  b.begin_round(0, 3);
  b.submit_report(0, std::vector<crypto::BlindCell>(kParams.cells()));
  EXPECT_THROW(b.submit_adjustment(2, std::vector<crypto::BlindCell>(kParams.cells())),
               std::invalid_argument);
  b.submit_adjustment(0, std::vector<crypto::BlindCell>(kParams.cells()));
  EXPECT_THROW(b.submit_adjustment(0, std::vector<crypto::BlindCell>(kParams.cells())),
               std::invalid_argument);
}

TEST(Backend, FinalizeRequiresReportsAndAdjustments) {
  BackendServer b(backend_config());
  b.begin_round(0, 2);
  EXPECT_THROW(b.finalize_round(), std::logic_error);  // no reports
  b.submit_report(0, std::vector<crypto::BlindCell>(kParams.cells()));
  // One missing client, no adjustment yet.
  EXPECT_THROW(b.finalize_round(), std::logic_error);
  b.submit_adjustment(0, std::vector<crypto::BlindCell>(kParams.cells()));
  const auto result = b.finalize_round();
  EXPECT_EQ(result.reports, 1u);
  EXPECT_EQ(result.roster, 2u);
}

TEST(Backend, PlaintextRoundComputesThreshold) {
  // Reports without blinding (all-zero blinding factors) act as plaintext:
  // verify the distribution and threshold math end to end.
  BackendServer b(backend_config());
  b.begin_round(0, 3);
  // Three "clients" each report a sketch; ads 1 and 2 seen by all three,
  // ad 3 by one.
  for (std::size_t u = 0; u < 3; ++u) {
    sketch::CountMinSketch cms(kParams, 5);
    cms.update(1);
    cms.update(2);
    if (u == 0) cms.update(3);
    const auto cells = cms.cells();
    b.submit_report(u, {cells.begin(), cells.end()});
  }
  const auto result = b.finalize_round();
  EXPECT_DOUBLE_EQ(*b.users_for(1), 3.0);
  EXPECT_DOUBLE_EQ(*b.users_for(2), 3.0);
  EXPECT_DOUBLE_EQ(*b.users_for(3), 1.0);
  // Distribution {3, 3, 1}: mean = 7/3.
  EXPECT_NEAR(result.users_threshold, 7.0 / 3.0, 1e-9);
  EXPECT_EQ(*b.users_threshold(), result.users_threshold);
}

TEST(Backend, NoResultBeforeFirstRound) {
  BackendServer b(backend_config());
  EXPECT_FALSE(b.users_for(1).has_value());
  EXPECT_FALSE(b.users_threshold().has_value());
}

TEST(Backend, BytesReceivedAccounting) {
  BackendServer b(backend_config());
  b.begin_round(0, 2);
  b.submit_report(0, std::vector<crypto::BlindCell>(kParams.cells()));
  EXPECT_EQ(b.bytes_received(), kParams.bytes());
}

TEST(Backend, RestoreRefusesRepeatedOrUnsortedMembership) {
  BackendServer b(backend_config());
  RoundSnapshot snap{.round = 1,
                     .roster = 4,
                     .params = kParams,
                     .base_cells = {},
                     .reporters = {1, 3},
                     .adjusters = {3, 3}};
  // A repeated adjuster would be counted twice and could pass finalize's
  // "all adjustments received" guard.
  EXPECT_THROW(b.restore_round(snap), std::invalid_argument);
  snap.adjusters = {3, 1};
  EXPECT_THROW(b.restore_round(snap), std::invalid_argument);
  snap.adjusters = {1, 3};
  b.restore_round(snap);
  EXPECT_EQ(b.adjustments_received(), 2u);
}

TEST(Backend, RetainedRoundStateIsCellsPlusRoster) {
  // Submissions are folded into one running sum on arrival, so the round
  // holds O(cells + roster) bytes however many reports it accepted — not
  // one 4 KB vector per reporter (~17 MB here).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(__GLIBC__)
  GTEST_SKIP() << "needs glibc's own malloc for mallinfo2";
#else
  constexpr std::size_t kReporters = 4096;
  const sketch::CmsParams params{.depth = 4, .width = 256};
  BackendServer b({.cms_params = params, .cms_hash_seed = 5, .id_space = 500});
  b.begin_round(0, kReporters);
  const std::size_t before = mallinfo2().uordblks;
  for (std::size_t p = 0; p < kReporters; ++p)
    b.submit_report(p, std::vector<crypto::BlindCell>(params.cells(), 1));
  const std::size_t after = mallinfo2().uordblks;
  EXPECT_EQ(b.reports_received(), kReporters);
  EXPECT_LT(after - std::min(after, before), std::size_t{1} << 20)
      << "round state grew from " << before << " to " << after << " bytes";
#endif
}

// End-to-end coordinator round over real crypto, small parameters.
class RoundTest : public ::testing::Test {
 protected:
  static const crypto::DhGroup& group() {
    static const crypto::DhGroup g = [] {
      util::Rng rng(2048);
      return crypto::DhGroup::generate(rng, 128);
    }();
    return g;
  }
};

TEST_F(RoundTest, FullRoundRecoversCounts) {
  client::HashUrlMapper mapper(500);
  const client::ExtensionConfig ecfg{
      .detector = {}, .cms_params = kParams, .cms_hash_seed = 5};
  std::vector<client::BrowserExtension> exts;
  for (core::UserId u = 0; u < 4; ++u) exts.emplace_back(u, ecfg, mapper);
  for (auto& e : exts) e.observe_ad("https://everyone.test", 1, 0);
  exts[0].observe_ad("https://rare.test", 2, 0);

  BackendServer backend(backend_config());
  RoundCoordinator coordinator(
      group(), std::span<client::BrowserExtension>(exts), backend, 9);
  const auto result = coordinator.run_full_round(0);
  EXPECT_EQ(result.reports, 4u);
  EXPECT_DOUBLE_EQ(*backend.users_for(mapper.map("https://everyone.test")),
                   4.0);
  EXPECT_DOUBLE_EQ(*backend.users_for(mapper.map("https://rare.test")), 1.0);
  EXPECT_GT(coordinator.traffic().report_bytes, 0u);
  EXPECT_EQ(coordinator.traffic().adjustment_bytes, 0u);
}

TEST_F(RoundTest, MissingClientRecoveredByAdjustmentRound) {
  client::HashUrlMapper mapper(500);
  const client::ExtensionConfig ecfg{
      .detector = {}, .cms_params = kParams, .cms_hash_seed = 5};
  std::vector<client::BrowserExtension> exts;
  for (core::UserId u = 0; u < 5; ++u) exts.emplace_back(u, ecfg, mapper);
  for (auto& e : exts) e.observe_ad("https://everyone.test", 1, 0);

  BackendServer backend(backend_config());
  RoundCoordinator coordinator(
      group(), std::span<client::BrowserExtension>(exts), backend, 10);
  const std::vector<std::size_t> reporting{0, 2, 3, 4};  // client 1 dark
  const auto result = coordinator.run_round(0, reporting);
  EXPECT_EQ(result.reports, 4u);
  // Count reflects the 4 reporters only, exactly.
  EXPECT_DOUBLE_EQ(*backend.users_for(mapper.map("https://everyone.test")),
                   4.0);
  EXPECT_GT(coordinator.traffic().adjustment_bytes, 0u);
}

TEST_F(RoundTest, RoundsAreIndependent) {
  client::HashUrlMapper mapper(500);
  const client::ExtensionConfig ecfg{
      .detector = {}, .cms_params = kParams, .cms_hash_seed = 5};
  std::vector<client::BrowserExtension> exts;
  for (core::UserId u = 0; u < 3; ++u) exts.emplace_back(u, ecfg, mapper);
  BackendServer backend(backend_config());
  RoundCoordinator coordinator(
      group(), std::span<client::BrowserExtension>(exts), backend, 11);

  for (auto& e : exts) e.observe_ad("https://w1.test", 1, 0);
  (void)coordinator.run_full_round(1);
  EXPECT_DOUBLE_EQ(*backend.users_for(mapper.map("https://w1.test")), 3.0);

  for (auto& e : exts) e.start_new_period();
  exts[0].observe_ad("https://w2.test", 1, 7);
  (void)coordinator.run_full_round(2);
  EXPECT_DOUBLE_EQ(*backend.users_for(mapper.map("https://w2.test")), 1.0);
  EXPECT_DOUBLE_EQ(*backend.users_for(mapper.map("https://w1.test")), 0.0);
}

TEST_F(RoundTest, RejectsReporterOutsideRoster) {
  client::HashUrlMapper mapper(500);
  const client::ExtensionConfig ecfg{
      .detector = {}, .cms_params = kParams, .cms_hash_seed = 5};
  std::vector<client::BrowserExtension> exts;
  exts.emplace_back(0, ecfg, mapper);
  BackendServer backend(backend_config());
  RoundCoordinator coordinator(
      group(), std::span<client::BrowserExtension>(exts), backend, 12);
  const std::vector<std::size_t> reporting{3};
  EXPECT_THROW((void)coordinator.run_round(0, reporting),
               std::invalid_argument);
}

}  // namespace
}  // namespace eyw::server
