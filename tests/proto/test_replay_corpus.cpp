// Replayed-frame corpus: a byte-identical resubmission of every envelope
// kind the endpoint ACCEPTS into round state must be refused with
// kRejected and counted on refused_replay — replay is not "idempotent
// success", it is an attack (doubling a report's weight, re-opening a
// round to wipe its submissions). Read-only control queries are the
// deliberate exception: replaying a query is just asking again.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "proto/message.hpp"
#include "server/cluster.hpp"
#include "server/endpoint.hpp"

namespace eyw {
namespace {

constexpr std::uint64_t kRound = 7;
constexpr std::uint32_t kRoster = 4;

server::BackendConfig small_config() {
  return {.cms_params = {.depth = 2, .width = 32},
          .cms_hash_seed = 5,
          .id_space = 64,
          .users_rule = core::ThresholdRule::kMean};
}

std::vector<crypto::BlindCell> cells_for(const server::BackendConfig& config,
                                         std::uint32_t i) {
  std::vector<crypto::BlindCell> cells(config.cms_params.cells());
  for (std::size_t c = 0; c < cells.size(); ++c)
    cells[c] = i * 97 + static_cast<crypto::BlindCell>(c);
  return cells;
}

proto::MsgKind kind_of(const std::vector<std::uint8_t>& reply) {
  return proto::decode_envelope(reply).kind;
}

proto::ErrorCode code_of(const std::vector<std::uint8_t>& reply) {
  const proto::Envelope env = proto::decode_envelope(reply);
  return env.kind == proto::MsgKind::kError
             ? proto::ErrorReply::decode(env).code
             : proto::ErrorCode::kOk;
}

class ReplayCorpusTest : public ::testing::Test {
 protected:
  ReplayCorpusTest()
      : config_(small_config()),
        cluster_(config_, 2),
        endpoint_(cluster_, /*serve_control=*/true) {}

  /// Replay `frame` byte-identically and assert the full refusal
  /// contract: kRejected on the wire, refusals / refused_by_code /
  /// refused_replay each moved by exactly one, accepted counters frozen.
  void expect_replay_refused(const std::vector<std::uint8_t>& frame,
                             const char* what) {
    const server::EndpointCounters& c = endpoint_.counters();
    const std::uint64_t refusals = c.refusals.load();
    const std::uint64_t replays = c.refused_replay.load();
    const std::uint64_t rejected =
        c.refused_by_code[static_cast<std::size_t>(proto::ErrorCode::kRejected)]
            .load();
    const std::uint64_t reports = c.reports_accepted.load();
    const std::uint64_t adjustments = c.adjustments_accepted.load();

    EXPECT_EQ(code_of(endpoint_.handle(frame)), proto::ErrorCode::kRejected)
        << what;
    EXPECT_EQ(c.refusals.load(), refusals + 1) << what;
    EXPECT_EQ(c.refused_replay.load(), replays + 1) << what;
    EXPECT_EQ(
        c.refused_by_code[static_cast<std::size_t>(proto::ErrorCode::kRejected)]
            .load(),
        rejected + 1)
        << what;
    EXPECT_EQ(c.reports_accepted.load(), reports) << what;
    EXPECT_EQ(c.adjustments_accepted.load(), adjustments) << what;
  }

  server::BackendConfig config_;
  server::BackendCluster cluster_;
  server::BackendEndpoint endpoint_;
};

TEST_F(ReplayCorpusTest, EveryAcceptedKindRefusesByteIdenticalResubmission) {
  // ---- first submissions: every accepted kind, accepted once ----------
  const auto begin = proto::BeginRound{.roster = kRoster}.encode(kRound);
  ASSERT_EQ(kind_of(endpoint_.handle(begin)), proto::MsgKind::kAck);

  const auto report0 = proto::BlindedReport{.participant = 0,
                                            .params = config_.cms_params,
                                            .cells = cells_for(config_, 0)}
                           .encode(kRound);
  ASSERT_EQ(kind_of(endpoint_.handle(report0)), proto::MsgKind::kAck);

  // Participant 1 reports through the ShardedSubmit wrapper (the cluster
  // ingestion path), with the shard id the routing function assigns.
  const auto inner = proto::BlindedReport{.participant = 1,
                                          .params = config_.cms_params,
                                          .cells = cells_for(config_, 1)}
                         .encode(kRound);
  const auto sharded =
      proto::ShardedSubmit{
          .shard = static_cast<std::uint32_t>(cluster_.shard_for(1)),
          .inner = inner}
          .encode(/*sender=*/1, kRound);
  ASSERT_EQ(kind_of(endpoint_.handle(sharded)), proto::MsgKind::kAck);

  // Reporters 0 and 1 adjust for the missing {2, 3}.
  const auto adjustment0 =
      proto::Adjustment{.participant = 0,
                        .params = config_.cms_params,
                        .cells = std::vector<crypto::BlindCell>(
                            config_.cms_params.cells(), 1)}
          .encode(kRound);
  ASSERT_EQ(kind_of(endpoint_.handle(adjustment0)), proto::MsgKind::kAck);

  ASSERT_EQ(endpoint_.counters().reports_accepted.load(), 2u);
  ASSERT_EQ(endpoint_.counters().adjustments_accepted.load(), 1u);

  // ---- the corpus: byte-identical replays, one per accepted kind ------
  expect_replay_refused(begin, "BeginRound replay");
  expect_replay_refused(report0, "BlindedReport replay");
  expect_replay_refused(sharded, "ShardedSubmit replay");
  expect_replay_refused(adjustment0, "Adjustment replay");

  // ---- read-only control queries are idempotent, not replays ----------
  const auto missing_query = proto::encode_envelope(
      proto::MsgKind::kMissingQuery, proto::kServerSender, kRound, {});
  const std::uint64_t refusals = endpoint_.counters().refusals.load();
  const auto first = endpoint_.handle(missing_query);
  const auto second = endpoint_.handle(missing_query);
  EXPECT_EQ(kind_of(first), proto::MsgKind::kMissingList);
  EXPECT_EQ(first, second);  // same answer, byte for byte
  EXPECT_EQ(endpoint_.counters().refusals.load(), refusals);
}

TEST_F(ReplayCorpusTest, MuxTransitCannotLaunderAReplay) {
  // PR 9 frames travel wrapped as version-2 stream envelopes and are
  // unwrapped at the connection layer before dispatch. The unwrap must
  // reproduce the version-1 bytes exactly — otherwise a replayed report
  // arriving via a mux connection would hash differently and slip past
  // byte-identical replay detection. Corpus entry: the same report, once
  // direct and once through the transforms a mux transit really runs —
  // the client's one-pass prefix + stream wrap, then the server's
  // in-place strip of the frame its assembler cut out of the stream.
  ASSERT_EQ(kind_of(endpoint_.handle(
                proto::BeginRound{.roster = kRoster}.encode(kRound))),
            proto::MsgKind::kAck);
  const auto report = proto::BlindedReport{.participant = 3,
                                           .params = config_.cms_params,
                                           .cells = cells_for(config_, 3)}
                          .encode(kRound);
  ASSERT_EQ(kind_of(endpoint_.handle(report)), proto::MsgKind::kAck);

  std::vector<std::uint8_t> wire = report;
  proto::mux_frame_with_prefix_inplace(wire, /*stream=*/12);
  std::vector<std::uint8_t> transited(wire.begin() + 4, wire.end());
  ASSERT_EQ(proto::strip_stream_inplace(transited), 12u);
  ASSERT_EQ(transited, report);
  expect_replay_refused(transited, "mux-transited replay");
}

TEST_F(ReplayCorpusTest, HelloIsNotReplayProtected) {
  // Capability negotiation is per connection and carries no round state:
  // replaying a Hello (e.g. a client reconnecting) is not an attack, so
  // the endpoint answers it the same way every time. The endpoint itself
  // never normally sees Hello — FrameServer answers it at the connection
  // layer — but a defense-in-depth decode must not crash or double-count.
  const auto hello = proto::Hello{.capabilities = proto::kCapMux}.encode(0);
  const auto first = endpoint_.handle(hello);
  const auto second = endpoint_.handle(hello);
  EXPECT_EQ(first, second);
  EXPECT_EQ(endpoint_.counters().refused_replay.load(), 0u);
}

TEST_F(ReplayCorpusTest, ReplayRefusalLeavesFirstSubmissionStanding) {
  ASSERT_EQ(kind_of(endpoint_.handle(
                proto::BeginRound{.roster = kRoster}.encode(kRound))),
            proto::MsgKind::kAck);
  const auto report = proto::BlindedReport{.participant = 2,
                                           .params = config_.cms_params,
                                           .cells = cells_for(config_, 2)}
                          .encode(kRound);
  ASSERT_EQ(kind_of(endpoint_.handle(report)), proto::MsgKind::kAck);
  expect_replay_refused(report, "duplicate report");

  // The missing list still shows everyone but participant 2: the refusal
  // neither dropped the original report nor admitted the copy.
  const auto reply = endpoint_.handle(proto::encode_envelope(
      proto::MsgKind::kMissingQuery, proto::kServerSender, kRound, {}));
  auto list = proto::MissingList::decode(proto::decode_envelope(reply));
  std::sort(list.missing.begin(), list.missing.end());
  EXPECT_EQ(list.missing, (std::vector<std::uint32_t>{0, 1, 3}));
}

}  // namespace
}  // namespace eyw
