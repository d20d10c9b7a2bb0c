// The wire API: envelope framing, every typed message, the transport
// layer, fault injection, and the endpoints' error-reply behavior.
// Decoders here parse untrusted bytes, so the negative tests are the
// point: truncation at every byte boundary, bad magic/version/kind, and
// oversized declared counts must all fail loudly and allocation-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "client/url_mapper.hpp"
#include "proto/message.hpp"
#include "proto/transport.hpp"
#include "proto/wire.hpp"
#include "server/backend.hpp"
#include "server/endpoint.hpp"

namespace eyw::proto {
namespace {

const sketch::CmsParams kParams{.depth = 2, .width = 8};

std::vector<std::uint32_t> sample_cells() {
  std::vector<std::uint32_t> cells(kParams.cells());
  for (std::size_t i = 0; i < cells.size(); ++i)
    cells[i] = static_cast<std::uint32_t>(0x1000 + i * 17);
  return cells;
}

/// Patch a little-endian u32 in place.
void patch_u32(std::vector<std::uint8_t>& bytes, std::size_t offset,
               std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
}

ErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ProtoError& e) {
    return e.code();
  }
  return ErrorCode::kOk;
}

TEST(Wire, ReaderRejectsOverruns) {
  const std::vector<std::uint8_t> bytes{1, 2, 3};
  WireReader r(bytes);
  EXPECT_EQ(r.u16(), 0x0201u);
  EXPECT_THROW((void)r.u32(), ProtoError);
}

TEST(Wire, ReaderFlagsTrailingBytes) {
  const std::vector<std::uint8_t> bytes{1, 2, 3, 4};
  WireReader r(bytes);
  (void)r.u16();
  EXPECT_EQ(code_of([&] { r.expect_done(); }), ErrorCode::kTrailingBytes);
}

TEST(Envelope, HeaderRoundTrip) {
  const std::vector<std::uint8_t> payload{9, 8, 7};
  const auto frame = encode_envelope(MsgKind::kAck, /*sender=*/42,
                                     /*round=*/7, payload);
  EXPECT_EQ(frame.size(), kEnvelopeHeaderBytes + payload.size());
  const Envelope env = decode_envelope(frame);
  EXPECT_EQ(env.kind, MsgKind::kAck);
  EXPECT_EQ(env.sender, 42u);
  EXPECT_EQ(env.round, 7u);
  EXPECT_EQ(env.payload, payload);
}

TEST(Envelope, TruncationAtEveryByteBoundary) {
  const proto::BlindedReport report{
      .participant = 3, .params = kParams, .cells = sample_cells()};
  const auto frame = report.encode(/*round=*/5);
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_THROW(
        (void)decode_envelope(
            std::span<const std::uint8_t>(frame.data(), cut)),
        ProtoError)
        << "cut=" << cut;
  }
  EXPECT_NO_THROW((void)decode_envelope(frame));
}

TEST(Envelope, BadMagicVersionKindCodes) {
  auto frame = encode_ack();
  frame[0] ^= 0xff;
  EXPECT_EQ(code_of([&] { (void)decode_envelope(frame); }),
            ErrorCode::kBadMagic);

  frame = encode_ack();
  frame[4] = 0x7f;
  EXPECT_EQ(code_of([&] { (void)decode_envelope(frame); }),
            ErrorCode::kBadVersion);

  frame = encode_ack();
  frame[6] = 0x63;  // kind 99: not in the catalogue
  EXPECT_EQ(code_of([&] { (void)decode_envelope(frame); }),
            ErrorCode::kUnknownKind);
}

TEST(Envelope, PeekKindMatchesDecodeWithoutThrowing) {
  const auto ack = encode_ack();
  EXPECT_EQ(peek_kind(ack), MsgKind::kAck);

  auto bad_magic = encode_ack();
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(peek_kind(bad_magic), std::nullopt);

  auto bad_version = encode_ack();
  bad_version[4] = 0x7f;
  EXPECT_EQ(peek_kind(bad_version), std::nullopt);

  auto unknown = encode_ack();
  unknown[6] = 0x63;
  EXPECT_EQ(peek_kind(unknown), std::nullopt);

  const std::vector<std::uint8_t> shorty{0x45, 0x59};
  EXPECT_EQ(peek_kind(shorty), std::nullopt);
}

TEST(Envelope, TrailingGarbageRejected) {
  auto frame = encode_ack();
  frame.push_back(0);
  EXPECT_EQ(code_of([&] { (void)decode_envelope(frame); }),
            ErrorCode::kTrailingBytes);
}

TEST(Envelope, OversizedDeclaredPayloadRejectedBeforeAllocation) {
  // The length field claims 4 GB; the check must fire on the declared
  // value, not after trying to consume it.
  auto frame = encode_ack();
  patch_u32(frame, kEnvelopeHeaderBytes - 4, 0xffffffffu);
  EXPECT_EQ(code_of([&] { (void)decode_envelope(frame); }),
            ErrorCode::kOversized);
}

TEST(Messages, RosterAnnounceRoundTrip) {
  RosterAnnounce roster;
  roster.element_bytes = 16;
  for (std::uint64_t k = 1; k <= 5; ++k)
    roster.public_keys.push_back(crypto::Bignum(0xabcd000 + k));
  const auto frame = roster.encode(/*round=*/3);
  const RosterAnnounce back = RosterAnnounce::decode(decode_envelope(frame));
  EXPECT_EQ(back.element_bytes, 16u);
  ASSERT_EQ(back.public_keys.size(), 5u);
  for (std::uint64_t k = 1; k <= 5; ++k)
    EXPECT_EQ(back.public_keys[k - 1], crypto::Bignum(0xabcd000 + k));
}

TEST(Messages, RosterOversizedCountRejected) {
  // Craft a payload declaring 2^21 keys backed by zero bytes of material:
  // the count cap must fire before any element reads.
  WireWriter w;
  w.u32(32);          // element_bytes
  w.u32(1u << 21);    // count, above kMaxRosterKeys
  const auto payload = w.take();
  const auto frame = encode_envelope(MsgKind::kRosterAnnounce, kServerSender,
                                     0, payload);
  EXPECT_EQ(code_of([&] {
              (void)RosterAnnounce::decode(decode_envelope(frame));
            }),
            ErrorCode::kOversized);
}

TEST(Messages, BlindedReportRoundTrip) {
  const BlindedReport report{
      .participant = 9, .params = kParams, .cells = sample_cells()};
  const auto frame = report.encode(/*round=*/11);
  const Envelope env = decode_envelope(frame);
  EXPECT_EQ(env.sender, 9u);
  EXPECT_EQ(env.round, 11u);
  const BlindedReport back = BlindedReport::decode(env);
  EXPECT_EQ(back.participant, 9u);
  EXPECT_EQ(back.params, kParams);
  EXPECT_EQ(back.cells, sample_cells());
}

TEST(Messages, ReportRoundMismatchBetweenLayersRejected) {
  // The embedded 'EYWS' frame carries its own round; an envelope whose
  // header disagrees is forged or corrupted.
  const BlindedReport report{
      .participant = 1, .params = kParams, .cells = sample_cells()};
  auto frame = report.encode(/*round=*/4);
  frame[12] = 5;  // envelope round low byte (magic+ver+kind+sender): 4 -> 5
  EXPECT_EQ(code_of([&] {
              (void)BlindedReport::decode(decode_envelope(frame));
            }),
            ErrorCode::kMalformed);
}

TEST(Messages, ReportSenderMustMatchPayloadParticipant) {
  // The envelope sender is what routing (incl. the sharded front door)
  // trusts; a payload claiming another participant is refused so the two
  // layers can never disagree about who reported.
  const BlindedReport report{
      .participant = 2, .params = kParams, .cells = sample_cells()};
  auto frame = report.encode(/*round=*/0);
  frame[8] = 3;  // envelope sender low byte: 2 -> 3, payload still says 2
  EXPECT_EQ(code_of([&] {
              (void)BlindedReport::decode(decode_envelope(frame));
            }),
            ErrorCode::kMalformed);
}

TEST(Messages, OversizedElementCountAgainstShortPayloadRejected) {
  // Declared element count far beyond the actual payload must fail before
  // any count-sized allocation (kTruncated, not a huge reserve).
  WireWriter w;
  w.u32(32);       // element_bytes
  w.u32(1u << 19); // count: under the cap, but backed by nothing
  const auto frame = encode_envelope(MsgKind::kRosterAnnounce, kServerSender,
                                     0, w.take());
  EXPECT_EQ(code_of([&] {
              (void)RosterAnnounce::decode(decode_envelope(frame));
            }),
            ErrorCode::kTruncated);
}

TEST(Messages, AdjustmentRequestRoundTrip) {
  AdjustmentRequest req;
  req.missing = {1, 4, 17};
  const AdjustmentRequest back =
      AdjustmentRequest::decode(decode_envelope(req.encode(/*round=*/2)));
  EXPECT_EQ(back.missing, (std::vector<std::uint32_t>{1, 4, 17}));
}

TEST(Messages, ThresholdBroadcastRoundTripIsBitExact) {
  const ThresholdBroadcast tb{
      .users_threshold = 7.125e-3, .reports = 90, .roster = 100};
  const ThresholdBroadcast back =
      ThresholdBroadcast::decode(decode_envelope(tb.encode(/*round=*/8)));
  EXPECT_EQ(back.users_threshold, 7.125e-3);  // bit_cast round trip: exact
  EXPECT_EQ(back.reports, 90u);
  EXPECT_EQ(back.roster, 100u);
}

TEST(Messages, OprfBatchRoundTrip) {
  OprfEvalRequest req;
  req.element_bytes = 8;
  req.elements = {crypto::Bignum(5), crypto::Bignum(0x1234567890ULL)};
  const OprfEvalRequest back =
      OprfEvalRequest::decode(decode_envelope(req.encode(/*sender=*/1)));
  EXPECT_EQ(back.element_bytes, 8u);
  ASSERT_EQ(back.elements.size(), 2u);
  EXPECT_EQ(back.elements[1], crypto::Bignum(0x1234567890ULL));

  OprfEvalResponse resp;
  resp.element_bytes = 8;
  resp.elements = {crypto::Bignum(17)};
  const OprfEvalResponse rback =
      OprfEvalResponse::decode(decode_envelope(resp.encode()));
  EXPECT_EQ(rback.elements[0], crypto::Bignum(17));
}

TEST(Messages, ShardedSubmitRoundTripAndLengthChecks) {
  const BlindedReport report{
      .participant = 6, .params = kParams, .cells = sample_cells()};
  ShardedSubmit sub;
  sub.shard = 2;
  sub.inner = report.encode(/*round=*/1);
  auto frame = sub.encode(/*sender=*/6, /*round=*/1);
  const ShardedSubmit back = ShardedSubmit::decode(decode_envelope(frame));
  EXPECT_EQ(back.shard, 2u);
  EXPECT_EQ(back.inner, sub.inner);
  // The doubly-nested frame still decodes.
  const BlindedReport inner =
      BlindedReport::decode(decode_envelope(back.inner));
  EXPECT_EQ(inner.participant, 6u);
}

TEST(Messages, ErrorReplyCarriesCodeThroughExpectReply) {
  const ErrorReply err{.code = ErrorCode::kGeometryMismatch,
                       .detail = "depth mismatch"};
  const auto frame = err.encode();
  const ErrorCode seen = code_of(
      [&] { (void)expect_reply(frame, MsgKind::kAck); });
  EXPECT_EQ(seen, ErrorCode::kGeometryMismatch);
}

TEST(Messages, ControlPlaneRoundTrips) {
  const BeginRound begin{.roster = 44};
  const Envelope benv = decode_envelope(begin.encode(/*round=*/9));
  EXPECT_EQ(benv.round, 9u);
  EXPECT_EQ(BeginRound::decode(benv).roster, 44u);

  MissingList list;
  list.missing = {2, 9, 31};
  EXPECT_EQ(MissingList::decode(decode_envelope(list.encode(1))).missing,
            (std::vector<std::uint32_t>{2, 9, 31}));

  RoundSummary summary;
  summary.users_threshold = 2.375;  // exactly representable: bit-exact trip
  summary.reports = 5;
  summary.roster = 6;
  summary.distribution = core::UsersDistribution::from_bins(
      {{.value = 1, .weight = 4},
       {.value = 2, .weight = 1},
       {.value = 5, .weight = 3}});
  summary.sketch_frame = {0xAA, 0xBB, 0xCC};  // opaque at this layer
  const RoundSummary back =
      RoundSummary::decode(decode_envelope(summary.encode(3)));
  EXPECT_EQ(back.users_threshold, 2.375);
  EXPECT_EQ(back.reports, 5u);
  EXPECT_EQ(back.roster, 6u);
  EXPECT_EQ(back.distribution, summary.distribution);
  EXPECT_EQ(back.sketch_frame, summary.sketch_frame);

  const OprfKeyAnswer key{.element_bytes = 16,
                          .n = crypto::Bignum(0xDEADBEEFull),
                          .e = crypto::Bignum(65537)};
  const OprfKeyAnswer kback = OprfKeyAnswer::decode(decode_envelope(key.encode()));
  EXPECT_EQ(kback.n, crypto::Bignum(0xDEADBEEFull));
  EXPECT_EQ(kback.e, crypto::Bignum(65537));
}

TEST(Messages, BeginRoundRosterCapped) {
  // The declared roster drives per-participant allocations and the
  // missing-list scan: a 4-GB roster from a 28-byte frame must die in the
  // decoder, and an empty roster is meaningless.
  EXPECT_EQ(code_of([&] {
              (void)BeginRound::decode(
                  decode_envelope(BeginRound{.roster = 0xffffffffu}.encode(0)));
            }),
            ErrorCode::kOversized);
  EXPECT_EQ(code_of([&] {
              (void)BeginRound::decode(
                  decode_envelope(BeginRound{.roster = 0}.encode(0)));
            }),
            ErrorCode::kMalformed);
}

TEST(Transport, LoopbackCountsMessagesAndBytes) {
  LoopbackTransport t([](std::span<const std::uint8_t> frame) {
    EXPECT_FALSE(frame.empty());
    return encode_ack();
  });
  const auto frame = encode_ack();
  (void)t.exchange(frame);
  (void)t.exchange(frame);
  EXPECT_EQ(t.stats().messages_sent, 2u);
  EXPECT_EQ(t.stats().messages_received, 2u);
  EXPECT_EQ(t.stats().round_trips(), 2u);
  EXPECT_EQ(t.stats().bytes_sent, 2 * frame.size());
  EXPECT_EQ(t.stats().bytes_received, 2 * frame.size());
  EXPECT_EQ(t.stats().total_bytes(), 4 * frame.size());
}

server::BackendConfig small_backend_config() {
  return {.cms_params = kParams,
          .cms_hash_seed = 5,
          .id_space = 100,
          .users_rule = core::ThresholdRule::kMean};
}

TEST(Endpoint, ControlPlaneDisabledByDefaultEnabledByOptIn) {
  server::BackendServer backend(small_backend_config());
  {
    server::BackendEndpoint ingest_only(backend);
    EXPECT_EQ(code_of([&] {
                (void)expect_reply(
                    ingest_only.handle(BeginRound{.roster = 2}.encode(0)),
                    MsgKind::kAck);
              }),
              ErrorCode::kRejected);
  }
  {
    server::BackendEndpoint operator_ep(backend, /*serve_control=*/true);
    EXPECT_NO_THROW((void)expect_reply(
        operator_ep.handle(BeginRound{.roster = 2}.encode(0)),
        MsgKind::kAck));
    const auto reply = operator_ep.handle(encode_missing_query(0));
    const MissingList missing =
        MissingList::decode(expect_reply(reply, MsgKind::kMissingList));
    EXPECT_EQ(missing.missing, (std::vector<std::uint32_t>{0, 1}));
  }
}

TEST(Endpoint, BackendAcksValidReportAndRejectsProtocolViolations) {
  server::BackendServer backend(small_backend_config());
  server::BackendEndpoint endpoint(backend);
  backend.begin_round(0, 2);

  const BlindedReport report{
      .participant = 0, .params = kParams, .cells = sample_cells()};
  const auto frame = report.encode(0);
  const auto reply = endpoint.handle(frame);
  EXPECT_NO_THROW((void)expect_reply(reply, MsgKind::kAck));
  EXPECT_EQ(backend.reports_received(), 1u);

  // Duplicate submission: explicit kRejected, not a dead connection.
  EXPECT_EQ(code_of([&] {
              (void)expect_reply(endpoint.handle(frame), MsgKind::kAck);
            }),
            ErrorCode::kRejected);

  // Wrong geometry: the report frame says 3x8, the round runs 2x8.
  const BlindedReport wrong{.participant = 1,
                            .params = {.depth = 3, .width = 8},
                            .cells = std::vector<std::uint32_t>(24, 1)};
  EXPECT_EQ(code_of([&] {
              (void)expect_reply(endpoint.handle(wrong.encode(0)),
                                 MsgKind::kAck);
            }),
            ErrorCode::kGeometryMismatch);

  // A message the backend does not serve.
  EXPECT_EQ(code_of([&] {
              (void)expect_reply(endpoint.handle(encode_ack()), MsgKind::kAck);
            }),
            ErrorCode::kUnknownKind);

  // Garbage never throws across the endpoint: it answers an Error frame.
  const std::vector<std::uint8_t> garbage{0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(code_of([&] {
              (void)expect_reply(endpoint.handle(garbage), MsgKind::kAck);
            }),
            ErrorCode::kBadMagic);
}

TEST(Endpoint, FaultInjectionExercisesDecoderErrorPaths) {
  server::BackendServer backend(small_backend_config());
  server::BackendEndpoint endpoint(backend);
  backend.begin_round(0, 3);
  LoopbackTransport net([&](std::span<const std::uint8_t> frame) {
    return endpoint.handle(frame);
  });

  const BlindedReport report{
      .participant = 0, .params = kParams, .cells = sample_cells()};
  const auto frame = report.encode(0);

  {
    // Truncate the first exchange mid-payload: server answers kTruncated.
    FaultInjectingTransport faulty(
        net, {.action = FaultPlan::Action::kTruncateRequest,
              .nth = 0,
              .offset = frame.size() - 3});
    EXPECT_EQ(code_of([&] {
                (void)expect_reply(faulty.exchange(frame), MsgKind::kAck);
              }),
              ErrorCode::kTruncated);
    EXPECT_EQ(backend.reports_received(), 0u);
  }
  {
    // Corrupt the magic: server answers kBadMagic.
    FaultInjectingTransport faulty(
        net, {.action = FaultPlan::Action::kCorruptRequest,
              .nth = 0,
              .offset = 0});
    EXPECT_EQ(code_of([&] {
                (void)expect_reply(faulty.exchange(frame), MsgKind::kAck);
              }),
              ErrorCode::kBadMagic);
  }
  {
    // Drop the response: the client sees an empty frame and its own
    // decoder reports the loss.
    FaultInjectingTransport faulty(
        net,
        {.action = FaultPlan::Action::kDropResponse, .nth = 0});
    const auto reply = faulty.exchange(frame);
    EXPECT_TRUE(reply.empty());
    EXPECT_THROW((void)expect_reply(reply, MsgKind::kAck), ProtoError);
    // The request itself went through before the response was lost.
    EXPECT_EQ(backend.reports_received(), 1u);
    EXPECT_EQ(faulty.exchanges(), 1u);
  }
  {
    // Later exchanges pass untouched.
    FaultInjectingTransport faulty(
        net,
        {.action = FaultPlan::Action::kCorruptRequest, .nth = 5, .offset = 0});
    const BlindedReport second{
        .participant = 1, .params = kParams, .cells = sample_cells()};
    EXPECT_NO_THROW(
        (void)expect_reply(faulty.exchange(second.encode(0)), MsgKind::kAck));
    EXPECT_EQ(backend.reports_received(), 2u);
  }
}

TEST(Endpoint, OprfServesBatchesAndValidatesElements) {
  util::Rng rng(1234);
  const crypto::OprfServer server(rng, 256);
  server::OprfEndpoint endpoint(server);
  const crypto::RsaPublicKey& pub = server.public_key();

  OprfEvalRequest req;
  req.element_bytes = static_cast<std::uint32_t>(pub.modulus_bytes());
  req.elements = {crypto::Bignum(12345), crypto::Bignum(99)};
  const auto reply = endpoint.handle(req.encode(0));
  const OprfEvalResponse resp = OprfEvalResponse::decode(
      expect_reply(reply, MsgKind::kOprfEvalResponse));
  ASSERT_EQ(resp.elements.size(), 2u);
  EXPECT_EQ(resp.elements[0], server.evaluate_blinded(crypto::Bignum(12345)));
  EXPECT_EQ(resp.elements[1], server.evaluate_blinded(crypto::Bignum(99)));

  // Element outside Z_N: refused, not exponentiated.
  OprfEvalRequest bad = req;
  bad.elements = {pub.n};
  EXPECT_EQ(code_of([&] {
              (void)expect_reply(endpoint.handle(bad.encode(0)),
                                 MsgKind::kOprfEvalResponse);
            }),
            ErrorCode::kMalformed);

  // Element size disagreeing with the server's modulus: geometry error.
  OprfEvalRequest wrong_size;
  wrong_size.element_bytes = 8;
  wrong_size.elements = {crypto::Bignum(5)};
  EXPECT_EQ(code_of([&] {
              (void)expect_reply(endpoint.handle(wrong_size.encode(0)),
                                 MsgKind::kOprfEvalResponse);
            }),
            ErrorCode::kGeometryMismatch);
}

}  // namespace
}  // namespace eyw::proto
