// The sharded back-end front door: a BackendCluster fed the same reports
// as a single BackendServer must produce byte-identical aggregates and an
// identical Users_th — sharding is a deployment choice, not a semantics
// change. Also covers the ShardedSubmit wire path and the cluster's
// fault-tolerance bookkeeping.
#include <gtest/gtest.h>

#include "proto/message.hpp"
#include "server/cluster.hpp"
#include "server/endpoint.hpp"
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

const crypto::DhGroup& group() {
  static const crypto::DhGroup g = [] {
    util::Rng rng(4096);
    return crypto::DhGroup::generate(rng, 128);
  }();
  return g;
}

/// Identical fleet of extensions for every backend under test: same seed
/// -> same keys -> same blinded cells, so results must match exactly.
std::vector<client::BrowserExtension> make_fleet(client::UrlMapper& mapper,
                                                 std::size_t n) {
  const client::ExtensionConfig ecfg{
      .detector = {}, .cms_params = kParams, .cms_hash_seed = 5};
  std::vector<client::BrowserExtension> exts;
  for (std::size_t u = 0; u < n; ++u)
    exts.emplace_back(static_cast<core::UserId>(u), ecfg, mapper);
  for (auto& e : exts) {
    e.observe_ad("https://everyone.test", 1, 0);
    if (e.user() % 3 == 0) e.observe_ad("https://thirds.test", 2, 0);
  }
  exts[0].observe_ad("https://rare.test", 3, 0);
  return exts;
}

TEST(BackendCluster, RejectsZeroShards) {
  EXPECT_THROW(BackendCluster(backend_config(), 0), std::invalid_argument);
}

TEST(BackendCluster, NoResultBeforeFirstRound) {
  BackendCluster cluster(backend_config(), 3);
  EXPECT_FALSE(cluster.users_for(1).has_value());
  EXPECT_FALSE(cluster.users_threshold().has_value());
}

TEST(BackendCluster, FullRoundMatchesSingleServerExactly) {
  client::HashUrlMapper mapper(500);

  BackendServer single(backend_config());
  auto exts_a = make_fleet(mapper, 9);
  RoundCoordinator ca(group(), std::span<client::BrowserExtension>(exts_a),
                      single, /*seed=*/77);
  const RoundResult ra = ca.run_full_round(0);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    BackendCluster cluster(backend_config(), shards);
    auto exts_b = make_fleet(mapper, 9);
    RoundCoordinator cb(group(), std::span<client::BrowserExtension>(exts_b),
                        cluster, /*seed=*/77);
    const RoundResult rb = cb.run_full_round(0);

    // Aggregate cells byte-identical, distribution identical, same
    // threshold — and through the same query API.
    const auto cells_a = ra.aggregate.cells();
    const auto cells_b = rb.aggregate.cells();
    ASSERT_EQ(cells_a.size(), cells_b.size());
    for (std::size_t m = 0; m < cells_a.size(); ++m)
      ASSERT_EQ(cells_a[m], cells_b[m]) << "cell " << m << " shards=" << shards;
    EXPECT_EQ(ra.distribution.histogram(), rb.distribution.histogram());
    EXPECT_EQ(ra.users_threshold, rb.users_threshold);
    EXPECT_EQ(rb.reports, 9u);
    EXPECT_EQ(*cluster.users_for(mapper.map("https://everyone.test")),
              *single.users_for(mapper.map("https://everyone.test")));
    EXPECT_EQ(*cluster.users_threshold(), *single.users_threshold());
  }
}

TEST(BackendCluster, MissingClientAdjustmentRoundMatchesSingleServer) {
  client::HashUrlMapper mapper(500);
  const std::vector<std::size_t> reporting{0, 2, 3, 5, 6};  // 1, 4 dark

  BackendServer single(backend_config());
  auto exts_a = make_fleet(mapper, 7);
  RoundCoordinator ca(group(), std::span<client::BrowserExtension>(exts_a),
                      single, /*seed=*/78);
  const RoundResult ra = ca.run_round(0, reporting);

  BackendCluster cluster(backend_config(), 3);
  auto exts_b = make_fleet(mapper, 7);
  RoundCoordinator cb(group(), std::span<client::BrowserExtension>(exts_b),
                      cluster, /*seed=*/78);
  const RoundResult rb = cb.run_round(0, reporting);

  EXPECT_EQ(ra.users_threshold, rb.users_threshold);
  EXPECT_EQ(ra.distribution.histogram(), rb.distribution.histogram());
  EXPECT_EQ(rb.reports, reporting.size());
  EXPECT_EQ(*cluster.users_for(mapper.map("https://everyone.test")),
            static_cast<double>(reporting.size()));
}

TEST(BackendCluster, TracksMissingAcrossShards) {
  BackendCluster cluster(backend_config(), 2);
  cluster.begin_round(0, 5);
  cluster.submit_report(1, std::vector<crypto::BlindCell>(kParams.cells()));
  cluster.submit_report(4, std::vector<crypto::BlindCell>(kParams.cells()));
  const auto missing = cluster.missing_participants();
  EXPECT_EQ(missing, (std::vector<std::size_t>{0, 2, 3}));
  // Reports landed on their routed shards only.
  EXPECT_EQ(cluster.shard(0).reports_received(), 1u);  // participant 4
  EXPECT_EQ(cluster.shard(1).reports_received(), 1u);  // participant 1
  EXPECT_EQ(cluster.bytes_received(), 2 * kParams.bytes());
}

TEST(BackendCluster, RejectsOutOfRosterAndDuplicates) {
  BackendCluster cluster(backend_config(), 2);
  cluster.begin_round(0, 3);
  EXPECT_THROW(
      cluster.submit_report(7, std::vector<crypto::BlindCell>(kParams.cells())),
      std::invalid_argument);
  cluster.submit_report(2, std::vector<crypto::BlindCell>(kParams.cells()));
  EXPECT_THROW(
      cluster.submit_report(2, std::vector<crypto::BlindCell>(kParams.cells())),
      std::invalid_argument);
  // Adjustment from a non-reporter is refused by the owning shard.
  EXPECT_THROW(cluster.submit_adjustment(
                   0, std::vector<crypto::BlindCell>(kParams.cells())),
               std::invalid_argument);
}

TEST(ShardedSubmit, FrontDoorAcceptsCorrectlyRoutedFramesOnly) {
  BackendCluster cluster(backend_config(), 3);
  BackendEndpoint endpoint(cluster);
  cluster.begin_round(2, 6);

  std::vector<std::uint32_t> cells(kParams.cells(), 7);
  const proto::BlindedReport report{
      .participant = 4, .params = kParams, .cells = cells};
  proto::ShardedSubmit sub;
  sub.inner = report.encode(/*round=*/2);

  // Wrong shard (participant 4 routes to shard 1): explicit rejection.
  sub.shard = 0;
  {
    const auto reply = endpoint.handle(sub.encode(4, 2));
    try {
      (void)proto::expect_reply(reply, proto::MsgKind::kAck);
      FAIL() << "misrouted frame was accepted";
    } catch (const proto::ProtoError& e) {
      EXPECT_EQ(e.code(), proto::ErrorCode::kRejected);
    }
  }
  EXPECT_EQ(cluster.shard(1).reports_received(), 0u);

  // Wrapper sender disagreeing with the inner submission's sender:
  // refused before it reaches a shard. Routing (e.g. the sharded
  // dispatcher's lane choice) keys on the outer sender without decoding
  // the payload, so a mismatched wrapper would ride the wrong
  // serialization lane.
  {
    sub.shard = static_cast<std::uint32_t>(cluster.shard_for(4));
    const auto reply = endpoint.handle(sub.encode(/*sender=*/5, 2));
    try {
      (void)proto::expect_reply(reply, proto::MsgKind::kAck);
      FAIL() << "sender-mismatched wrapper was accepted";
    } catch (const proto::ProtoError& e) {
      EXPECT_EQ(e.code(), proto::ErrorCode::kRejected);
    }
    EXPECT_EQ(cluster.shard(1).reports_received(), 0u);
  }

  // A submission stamped with a different round than the one open:
  // refused (blinded pads only cancel within their own round, and a
  // sharded dispatcher may apply frames from different connections
  // concurrently — a stale frame must never leak across a round
  // boundary).
  {
    const auto reply = endpoint.handle(report.encode(/*round=*/1));
    try {
      (void)proto::expect_reply(reply, proto::MsgKind::kAck);
      FAIL() << "stale-round report was accepted";
    } catch (const proto::ProtoError& e) {
      EXPECT_EQ(e.code(), proto::ErrorCode::kRejected);
    }
    EXPECT_EQ(cluster.shard(1).reports_received(), 0u);
  }

  // Correct shard: accepted and applied.
  sub.shard = static_cast<std::uint32_t>(cluster.shard_for(4));
  EXPECT_NO_THROW((void)proto::expect_reply(endpoint.handle(sub.encode(4, 2)),
                                            proto::MsgKind::kAck));
  EXPECT_EQ(cluster.shard(1).reports_received(), 1u);

  // A non-sharded backend refuses the wrapper outright.
  BackendServer single(backend_config());
  BackendEndpoint single_endpoint(single);
  single.begin_round(2, 6);
  try {
    (void)proto::expect_reply(single_endpoint.handle(sub.encode(4, 2)),
                              proto::MsgKind::kAck);
    FAIL() << "non-sharded backend accepted sharded-submit";
  } catch (const proto::ProtoError& e) {
    EXPECT_EQ(e.code(), proto::ErrorCode::kRejected);
  }
}

TEST(RoundTrafficMeasured, EqualsTransportByteTotalsExactly) {
  // The acceptance bar of the proto redesign: RoundTraffic is the sum of
  // encoded frame bytes that actually crossed the two channels — nothing
  // estimated, nothing missed.
  client::HashUrlMapper mapper(500);
  BackendCluster cluster(backend_config(), 2);
  auto exts = make_fleet(mapper, 6);
  RoundCoordinator c(group(), std::span<client::BrowserExtension>(exts),
                     cluster, /*seed=*/79);
  const std::vector<std::size_t> reporting{0, 1, 3, 4, 5};  // client 2 dark
  const RoundResult result = c.run_round(0, reporting);

  const auto& t = c.traffic();
  EXPECT_GT(t.roster_bytes, 0u);
  EXPECT_GT(t.report_bytes, 0u);
  EXPECT_GT(t.adjustment_bytes, 0u);
  EXPECT_GT(t.threshold_bytes, 0u);
  EXPECT_EQ(t.total(), c.uplink_stats().total_bytes() +
                           c.downlink_stats().total_bytes());

  // Every client decoded the same Users_th the server computed.
  for (const double th : c.client_thresholds())
    EXPECT_EQ(th, result.users_threshold);

  // Report payload dominates: the measured report bytes must cover the
  // raw cells of every reporter plus framing.
  EXPECT_GE(t.report_bytes, reporting.size() * kParams.bytes());
}

}  // namespace
}  // namespace eyw::server
