// The sharded back-end front door: a BackendCluster fed the same reports
// as a single BackendServer must produce byte-identical aggregates and an
// identical Users_th — sharding is a deployment choice, not a semantics
// change. Also covers the ShardedSubmit wire path and the cluster's
// fault-tolerance bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string_view>

#include "proto/message.hpp"
#include "server/cluster.hpp"
#include "server/endpoint.hpp"
#include "server/round.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

// One accepted submission of the arrival-order sweep below.
struct Arrival {
  std::size_t participant;
  bool adjustment;
};

void submit(RoundBackend& backend, const Arrival& a,
            const std::vector<std::vector<crypto::BlindCell>>& reports,
            const std::vector<std::vector<crypto::BlindCell>>& adjustments) {
  if (a.adjustment)
    backend.submit_adjustment(a.participant, adjustments[a.participant]);
  else
    backend.submit_report(a.participant, reports[a.participant]);
}

TEST(RunningSum, ArrivalOrderAndRestorePointNeverChangeTheRound) {
  // Folding each submission into a running sum on arrival, and splitting a
  // round across snapshot + restore at any point, must equal an oracle
  // that sums every report in participant order and then subtracts every
  // adjustment — for the single server and for 2- and 3-shard clusters.
  constexpr std::size_t kRoster = 64;
  constexpr std::uint64_t kRound = 9;
  const BackendConfig config = backend_config();
  const std::vector<std::function<std::unique_ptr<RoundBackend>()>> makers{
      [&] { return std::make_unique<BackendServer>(config); },
      [&] { return std::make_unique<BackendCluster>(config, 2); },
      [&] { return std::make_unique<BackendCluster>(config, 3); },
  };

  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);
    std::vector<bool> reports_in(kRoster, true);
    for (const std::size_t p : rng.sample_indices(kRoster, 16))
      reports_in[p] = false;
    std::vector<std::vector<crypto::BlindCell>> reports(kRoster);
    std::vector<std::vector<crypto::BlindCell>> adjustments(kRoster);
    std::vector<Arrival> arrivals;
    for (std::size_t p = 0; p < kRoster; ++p) {
      if (!reports_in[p]) continue;
      for (auto* cells : {&reports[p], &adjustments[p]}) {
        cells->resize(kParams.cells());
        for (auto& c : *cells) c = static_cast<crypto::BlindCell>(rng.next());
      }
      arrivals.push_back({p, false});
    }
    // Reports arrive shuffled; adjustments (which need their reporter's
    // report first) arrive shuffled after them.
    rng.shuffle(arrivals);
    std::vector<Arrival> adjusting = arrivals;
    for (auto& a : adjusting) a.adjustment = true;
    rng.shuffle(adjusting);
    arrivals.insert(arrivals.end(), adjusting.begin(), adjusting.end());

    // The oracle state after the first k arrivals.
    const auto oracle = [&](std::size_t k) {
      std::vector<bool> reported(kRoster, false), adjusted(kRoster, false);
      for (std::size_t i = 0; i < k; ++i)
        (arrivals[i].adjustment ? adjusted : reported)[arrivals[i].participant] =
            true;
      RoundSnapshot snap;
      snap.base_cells.assign(kParams.cells(), 0);
      for (std::size_t p = 0; p < kRoster; ++p) {
        if (!reported[p]) continue;
        snap.reporters.push_back(static_cast<std::uint32_t>(p));
        for (std::size_t m = 0; m < kParams.cells(); ++m)
          snap.base_cells[m] += reports[p][m];
      }
      for (std::size_t p = 0; p < kRoster; ++p) {
        if (!adjusted[p]) continue;
        snap.adjusters.push_back(static_cast<std::uint32_t>(p));
        for (std::size_t m = 0; m < kParams.cells(); ++m)
          snap.base_cells[m] -= adjustments[p][m];
      }
      return snap;
    };
    const auto missing_of = [&](const RoundSnapshot& snap) {
      std::vector<std::size_t> missing;
      for (std::size_t p = 0, r = 0; p < kRoster; ++p) {
        if (r < snap.reporters.size() && snap.reporters[r] == p)
          ++r;
        else
          missing.push_back(p);
      }
      return missing;
    };
    const RoundSnapshot full = oracle(arrivals.size());
    util::ThreadPool pool(1);
    const RoundResult expected = finalize_from_cells(
        config, full.base_cells, full.reporters.size(), kRoster, pool);

    const auto expect_duplicate = [&](RoundBackend& backend, const Arrival& a) {
      try {
        submit(backend, a, reports, adjustments);
        ADD_FAILURE() << "resubmission of " << a.participant << " accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string_view(e.what()).find("duplicate"),
                  std::string_view::npos)
            << e.what();
      }
    };

    for (std::size_t b = 0; b < makers.size(); ++b) {
      for (std::size_t k = 0; k <= arrivals.size(); ++k) {
        SCOPED_TRACE(testing::Message()
                     << "seed " << seed << " backend " << b << " k " << k);
        const auto before = makers[b]();
        before->begin_round(kRound, kRoster);
        for (std::size_t i = 0; i < k; ++i)
          submit(*before, arrivals[i], reports, adjustments);
        const RoundSnapshot snap = before->snapshot_round();
        const RoundSnapshot want = oracle(k);
        ASSERT_EQ(snap.base_cells, want.base_cells);
        ASSERT_EQ(snap.reporters, want.reporters);
        ASSERT_EQ(snap.adjusters, want.adjusters);
        ASSERT_EQ(before->missing_participants(), missing_of(want));

        const auto after = makers[b]();
        after->restore_round(snap);
        for (std::size_t i = k; i < arrivals.size(); ++i)
          submit(*after, arrivals[i], reports, adjustments);
        // Resubmissions from either side of the restore point, of both
        // kinds, are replays.
        for (const std::size_t i :
             {std::size_t{0}, arrivals.size() - 1, k == 0 ? 0 : k - 1,
              k == arrivals.size() ? k - 1 : k})
          expect_duplicate(*after, arrivals[i]);

        const RoundSnapshot end = after->snapshot_round();
        ASSERT_EQ(end.base_cells, full.base_cells);
        ASSERT_EQ(end.reporters, full.reporters);
        ASSERT_EQ(end.adjusters, full.adjusters);
        ASSERT_EQ(after->missing_participants(), missing_of(full));
        const RoundResult got = after->finalize_round(&pool);
        ASSERT_TRUE(std::ranges::equal(got.aggregate.cells(),
                                       expected.aggregate.cells()));
        ASSERT_EQ(got.distribution.histogram(),
                  expected.distribution.histogram());
        ASSERT_EQ(got.users_threshold, expected.users_threshold);
      }
    }
  }
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
