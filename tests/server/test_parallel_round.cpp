// Determinism of the parallel round pipeline: for identical seeds, the
// multi-threaded coordinator must produce a bit-identical RoundResult to
// the serial path — same aggregate cells, same distribution, same
// threshold.
#include <gtest/gtest.h>

#include "server/backend.hpp"
#include "server/round.hpp"

namespace eyw::server {
namespace {

const sketch::CmsParams kParams{.depth = 5, .width = 128};

BackendConfig backend_config() {
  return {.cms_params = kParams,
          .cms_hash_seed = 21,
          .id_space = 2'000,
          .users_rule = core::ThresholdRule::kMean};
}

const crypto::DhGroup& group() {
  static const crypto::DhGroup g = [] {
    util::Rng rng(4096);
    return crypto::DhGroup::generate(rng, 128);
  }();
  return g;
}

std::vector<client::BrowserExtension> make_extensions(
    client::UrlMapper& mapper, std::size_t count) {
  const client::ExtensionConfig ecfg{
      .detector = {}, .cms_params = kParams, .cms_hash_seed = 21};
  std::vector<client::BrowserExtension> exts;
  exts.reserve(count);
  for (core::UserId u = 0; u < count; ++u) exts.emplace_back(u, ecfg, mapper);
  for (auto& e : exts) {
    for (int a = 0; a < 12; ++a) {
      e.observe_ad("https://ad.test/" + std::to_string((e.user() * 5 + a) % 40),
                   static_cast<core::DomainId>(a % 3), 0);
    }
  }
  return exts;
}

void expect_identical(const RoundResult& a, const RoundResult& b) {
  const auto ca = a.aggregate.cells();
  const auto cb = b.aggregate.cells();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i)
    ASSERT_EQ(ca[i], cb[i]) << "cell " << i;
  EXPECT_EQ(a.users_threshold, b.users_threshold);  // bitwise, not NEAR
  EXPECT_EQ(a.distribution.histogram(), b.distribution.histogram());
  EXPECT_EQ(a.reports, b.reports);
  EXPECT_EQ(a.roster, b.roster);
}

TEST(ParallelRound, FullRoundMatchesSerialBitForBit) {
  client::HashUrlMapper mapper(2'000);
  auto exts_serial = make_extensions(mapper, 12);
  auto exts_parallel = make_extensions(mapper, 12);

  BackendServer backend_serial(backend_config());
  BackendServer backend_parallel(backend_config());
  RoundCoordinator serial(group(),
                          std::span<client::BrowserExtension>(exts_serial),
                          backend_serial, 77, /*threads=*/1);
  RoundCoordinator parallel(group(),
                            std::span<client::BrowserExtension>(exts_parallel),
                            backend_parallel, 77, /*threads=*/4);

  const RoundResult a = serial.run_full_round(3);
  const RoundResult b = parallel.run_full_round(3);
  expect_identical(a, b);
  EXPECT_EQ(serial.traffic().report_bytes, parallel.traffic().report_bytes);
}

TEST(ParallelRound, AdjustmentRoundMatchesSerialBitForBit) {
  client::HashUrlMapper mapper(2'000);
  auto exts_serial = make_extensions(mapper, 10);
  auto exts_parallel = make_extensions(mapper, 10);

  BackendServer backend_serial(backend_config());
  BackendServer backend_parallel(backend_config());
  RoundCoordinator serial(group(),
                          std::span<client::BrowserExtension>(exts_serial),
                          backend_serial, 99, /*threads=*/1);
  RoundCoordinator parallel(group(),
                            std::span<client::BrowserExtension>(exts_parallel),
                            backend_parallel, 99, /*threads=*/4);

  const std::vector<std::size_t> reporting{0, 1, 3, 4, 6, 8, 9};  // 2,5,7 dark
  const RoundResult a = serial.run_round(5, reporting);
  const RoundResult b = parallel.run_round(5, reporting);
  expect_identical(a, b);
  EXPECT_GT(parallel.traffic().adjustment_bytes, 0u);
}

TEST(ParallelRound, QueryManyAgreesWithPerIdQueries) {
  client::HashUrlMapper mapper(2'000);
  auto exts = make_extensions(mapper, 6);
  BackendServer backend(backend_config());
  RoundCoordinator coordinator(
      group(), std::span<client::BrowserExtension>(exts), backend, 55);
  const RoundResult result = coordinator.run_full_round(0);

  // The finalize scan used query_range; re-check every id with the scalar
  // query path.
  for (std::uint64_t id = 0; id < 2'000; ++id) {
    const double users = *backend.users_for(id);
    EXPECT_EQ(users, static_cast<double>(result.aggregate.query(id)))
        << "id=" << id;
  }
}

TEST(ParallelRound, FinalizeWithExplicitPoolMatchesDefault) {
  BackendServer a(backend_config());
  BackendServer b(backend_config());
  for (BackendServer* s : {&a, &b}) {
    s->begin_round(0, 3);
    sketch::CountMinSketch cms(kParams, 21);
    cms.update(7);
    const auto cells = cms.cells();
    s->submit_report(1, {cells.begin(), cells.end()});
    s->submit_adjustment(1,
                         std::vector<crypto::BlindCell>(kParams.cells(), 0));
  }
  util::ThreadPool pool(4);
  const RoundResult ra = a.finalize_round(&pool);
  const RoundResult rb = b.finalize_round();
  expect_identical(ra, rb);
}

TEST(ParallelRound, FinalizeGuardsMissingClientsFromInternalState) {
  // The adjustment-completeness guard is answered from reports-vs-roster
  // state, not from any caller-supplied missing list.
  BackendServer b(backend_config());
  b.begin_round(0, 3);
  b.submit_report(0, std::vector<crypto::BlindCell>(kParams.cells(), 0));
  EXPECT_THROW((void)b.finalize_round(), std::logic_error);
}

}  // namespace
}  // namespace eyw::server
