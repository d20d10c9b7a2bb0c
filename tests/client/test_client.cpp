#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "client/extension.hpp"
#include "client/url_mapper.hpp"
#include "server/endpoint.hpp"

namespace eyw::client {
namespace {

constexpr core::ThresholdRule kMean = core::ThresholdRule::kMean;

const crypto::OprfServer& oprf_server() {
  static const crypto::OprfServer s = [] {
    util::Rng rng(31337);
    return crypto::OprfServer(rng, 256);
  }();
  return s;
}

TEST(HashUrlMapper, StableAndInRange) {
  HashUrlMapper m(1000);
  const auto a = m.map("https://x.test/ad");
  EXPECT_EQ(a, m.map("https://x.test/ad"));
  EXPECT_LT(a, 1000u);
  EXPECT_NE(a, m.map("https://x.test/other"));
}

TEST(HashUrlMapper, RejectsZeroSpace) {
  EXPECT_THROW(HashUrlMapper(0), std::invalid_argument);
}

TEST(OprfUrlMapper, CachesPerUniqueIdentity) {
  OprfUrlMapper m(oprf_server(), 5000, 1);
  const auto before = oprf_server().evaluations();
  const auto id1 = m.map("https://a.test");
  const auto id2 = m.map("https://a.test");
  EXPECT_EQ(id1, id2);
  EXPECT_EQ(oprf_server().evaluations(), before + 1);  // single evaluation
  EXPECT_EQ(m.cache_size(), 1u);
  (void)m.map("https://b.test");
  EXPECT_EQ(m.cache_size(), 2u);
  EXPECT_EQ(m.bytes_exchanged(), 2 * 2 * 32u);  // 2 evals x 2 x 32B elements
}

TEST(OprfUrlMapper, MapBatchMatchesRepeatedMapInOneRoundTrip) {
  // Same server, two mappers: one maps URL by URL, one ships the whole
  // batch. Ids must be identical; round trips must collapse to one.
  std::vector<std::string> urls;
  for (int i = 0; i < 8; ++i)
    urls.push_back("https://batch.test/" + std::to_string(i));
  urls.push_back(urls[0]);  // a duplicate costs nothing

  OprfUrlMapper one_by_one(oprf_server(), 5000, 4);
  std::vector<std::uint64_t> expected;
  for (const auto& url : urls) expected.push_back(one_by_one.map(url));
  EXPECT_EQ(one_by_one.transport_stats().round_trips(), 8u);  // per miss

  OprfUrlMapper batched(oprf_server(), 5000, 5);
  const auto ids = batched.map_batch(urls);
  EXPECT_EQ(ids, expected);
  EXPECT_EQ(batched.transport_stats().round_trips(), 1u);  // one for all
  EXPECT_EQ(batched.cache_size(), 8u);

  // A second batch over warm cache goes nowhere near the network.
  const auto again = batched.map_batch(urls);
  EXPECT_EQ(again, expected);
  EXPECT_EQ(batched.transport_stats().round_trips(), 1u);

  // A mixed batch pays exactly one more round trip for the new URLs.
  urls.push_back("https://batch.test/new");
  (void)batched.map_batch(urls);
  EXPECT_EQ(batched.transport_stats().round_trips(), 2u);
}

TEST(OprfUrlMapper, MapBatchEmptyIsFree) {
  OprfUrlMapper m(oprf_server(), 5000, 6);
  EXPECT_TRUE(m.map_batch(std::span<const std::string_view>{}).empty());
  EXPECT_EQ(m.transport_stats().round_trips(), 0u);
}

TEST(OprfUrlMapper, ExternalTransportAndFaults) {
  // Transport-first construction: the mapper speaks to an OprfEndpoint
  // through a caller-owned channel, and a dropped response surfaces as a
  // protocol error instead of a bogus id.
  eyw::server::OprfEndpoint endpoint(oprf_server());
  proto::LoopbackTransport net(
      [&](std::span<const std::uint8_t> f) { return endpoint.handle(f); });
  {
    OprfUrlMapper direct(oprf_server(), 5000, 7);
    OprfUrlMapper remote(net, oprf_server().public_key(), 5000, 8);
    EXPECT_EQ(remote.map("https://x.test/ad"), direct.map("https://x.test/ad"));
  }
  {
    proto::FaultInjectingTransport faulty(
        net, {.action = proto::FaultPlan::Action::kDropResponse, .nth = 0});
    OprfUrlMapper unlucky(faulty, oprf_server().public_key(), 5000, 9);
    EXPECT_THROW((void)unlucky.map("https://y.test/ad"), proto::ProtoError);
    // The failed evaluation cached nothing; a retry succeeds.
    EXPECT_EQ(unlucky.cache_size(), 0u);
    EXPECT_EQ(unlucky.map("https://y.test/ad"),
              OprfUrlMapper(oprf_server(), 5000, 10).map("https://y.test/ad"));
  }
}

TEST(OprfUrlMapper, AgreesAcrossClients) {
  // Two different extensions must map the same URL to the same ad id —
  // that is the whole point of the keyed mapping.
  OprfUrlMapper m1(oprf_server(), 5000, 2);
  OprfUrlMapper m2(oprf_server(), 5000, 3);
  for (int i = 0; i < 10; ++i) {
    const std::string url = "https://shop.test/" + std::to_string(i);
    EXPECT_EQ(m1.map(url), m2.map(url));
  }
}

ExtensionConfig test_config() {
  return {.detector = {},
          .cms_params = {.depth = 4, .width = 64},
          .cms_hash_seed = 5};
}

TEST(BrowserExtension, ObservationFeedsDetectorAndPeriodSet) {
  HashUrlMapper mapper(10'000);
  BrowserExtension ext(7, test_config(), mapper);
  ext.observe_ad("https://ad1.test", 1, 0);
  ext.observe_ad("https://ad1.test", 2, 0);
  ext.observe_ad("https://ad2.test", 1, 1);
  EXPECT_EQ(ext.period_ads().size(), 2u);
  EXPECT_EQ(ext.detector().domains_for(ext.ad_id("https://ad1.test")), 2u);
  EXPECT_EQ(ext.user(), 7u);
}

TEST(BrowserExtension, SketchCountsUniqueAdsOnce) {
  HashUrlMapper mapper(10'000);
  BrowserExtension ext(1, test_config(), mapper);
  for (int d = 0; d < 5; ++d)
    ext.observe_ad("https://same.test", static_cast<core::DomainId>(d), 0);
  const auto cms = ext.build_sketch();
  EXPECT_EQ(cms.total_count(), 1u);  // one user-contribution per unique ad
  EXPECT_EQ(cms.query(ext.ad_id("https://same.test")), 1u);
}

TEST(BrowserExtension, NewPeriodClearsReportNotDetector) {
  HashUrlMapper mapper(10'000);
  BrowserExtension ext(1, test_config(), mapper);
  ext.observe_ad("https://a.test", 1, 0);
  ext.start_new_period();
  EXPECT_TRUE(ext.period_ads().empty());
  EXPECT_EQ(ext.build_sketch().total_count(), 0u);
  // Sliding-window state survives the reporting-period boundary.
  EXPECT_EQ(ext.detector().domains_for(ext.ad_id("https://a.test")), 1u);
}

TEST(BrowserExtension, AuditMatchesDetectorRule) {
  HashUrlMapper mapper(10'000);
  BrowserExtension ext(1, test_config(), mapper);
  // 4 distinct ad-serving domains satisfy the min-data rule.
  ext.observe_ad("https://follow.test", 1, 0);
  ext.observe_ad("https://follow.test", 2, 0);
  ext.observe_ad("https://follow.test", 3, 1);
  ext.observe_ad("https://oneoff.test", 4, 1);
  // follow.test: 3 domains >= threshold ((3+1)/2 = 2); few users.
  EXPECT_EQ(ext.audit("https://follow.test", 1.0, 2.5, kMean),
            core::Verdict::kTargeted);
  // Seen by too many users: rejected.
  EXPECT_EQ(ext.audit("https://follow.test", 50.0, 2.5, kMean),
            core::Verdict::kNonTargeted);
  // Not following: rejected.
  EXPECT_EQ(ext.audit("https://oneoff.test", 1.0, 2.5, kMean),
            core::Verdict::kNonTargeted);
}

TEST(BrowserExtension, AuditAbstainsWithoutMinData) {
  HashUrlMapper mapper(10'000);
  BrowserExtension ext(1, test_config(), mapper);
  ext.observe_ad("https://a.test", 1, 0);
  EXPECT_EQ(ext.audit("https://a.test", 1.0, 5.0, kMean),
            core::Verdict::kInsufficientData);
}

TEST(BrowserExtension, BlindedReportHidesAndCancels) {
  HashUrlMapper mapper(10'000);
  util::Rng rng(8);
  const crypto::DhGroup group = crypto::DhGroup::generate(rng, 128);
  std::vector<crypto::DhKeyPair> keys;
  std::vector<crypto::Bignum> publics;
  for (int i = 0; i < 3; ++i) {
    keys.push_back(crypto::dh_keygen(group, rng));
    publics.push_back(keys.back().public_key);
  }
  std::vector<BrowserExtension> exts;
  std::vector<crypto::BlindingParticipant> parts;
  for (std::size_t i = 0; i < 3; ++i) {
    exts.emplace_back(static_cast<core::UserId>(i), test_config(), mapper);
    parts.emplace_back(group, i, keys[i],
                       std::span<const crypto::Bignum>(publics));
    exts.back().observe_ad("https://common.test", 1, 0);
  }
  std::vector<std::vector<crypto::BlindCell>> reports;
  for (std::size_t i = 0; i < 3; ++i)
    reports.push_back(exts[i].build_blinded_report(parts[i], 0));
  // Single report differs from the plaintext sketch (blinded).
  const auto plain = exts[0].build_sketch();
  std::size_t equal = 0;
  for (std::size_t c = 0; c < plain.cells().size(); ++c)
    equal += reports[0][c] == plain.cells()[c];
  EXPECT_LT(equal, plain.cells().size() / 4);
  // Aggregation cancels the blinding: the common ad counts 3 users.
  const auto agg = crypto::aggregate_blinded(reports);
  const auto cms = sketch::CountMinSketch::from_cells(
      plain.params(), plain.hash_seed(), agg);
  EXPECT_EQ(cms.query(mapper.map("https://common.test")), 3u);
}

}  // namespace
}  // namespace eyw::client
