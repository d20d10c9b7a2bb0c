// The versioned party-to-party message catalogue (the "wire API" of the
// reproduction). Every cross-party interaction — roster publication,
// blinded reports, the fault-tolerance adjustment, threshold distribution,
// OPRF evaluation, sharded submission — is one of these typed envelopes.
//
// Envelope layout (all integers little-endian):
//   magic    u32  'EYWP'
//   version  u16  (1: base, 2: multiplexed)
//   kind     u16  (MsgKind)
//   sender   u32  (participant index; kServerSender for the back-end)
//   round    u64  (reporting round; 0 where not meaningful)
//   length   u32  (payload bytes that follow)
//   stream   u32  (version 2 only: logical channel id on a mux connection)
//   payload  u8[length]
//
// Version 2 inserts the stream id between length and payload, so every
// field an old decoder peeks before the version check (kind at offset 6,
// sender at offset 8) sits at the same offset in both versions. Version-2
// frames only travel on connections that negotiated the mux capability
// (MsgKind::kHello); everything downstream of the connection layer —
// endpoints, journal, replay detection — sees version-1 bytes, which is
// what keeps mux rounds bit-identical to per-connection rounds.
//
// Report and adjustment payloads ride the existing sketch/serialize
// framing ('EYWS' frames), so the sketch geometry travels with every cell
// vector and the sketch decoder's validation applies end to end.
//
// Decoders throw ProtoError with an explicit ErrorCode; servers answer a
// bad frame with an Error envelope carrying that code instead of dying.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/global_view.hpp"
#include "crypto/bignum.hpp"
#include "proto/wire.hpp"
#include "sketch/serialize.hpp"

namespace eyw::proto {

inline constexpr std::uint32_t kEnvelopeMagic = 0x50575945;  // "EYWP"
inline constexpr std::uint16_t kProtoVersion = 1;
/// Envelope version carrying a stream id (mux-negotiated connections only).
inline constexpr std::uint16_t kProtoVersionMux = 2;
/// Sender id used by the back-end / oprf-server (clients use their roster
/// index, which is always < kServerSender).
inline constexpr std::uint32_t kServerSender = 0xffffffff;

/// Hard caps applied before any allocation driven by untrusted counts.
inline constexpr std::size_t kMaxPayloadBytes = std::size_t{1} << 28;
inline constexpr std::size_t kMaxRosterKeys = std::size_t{1} << 20;
inline constexpr std::size_t kMaxGroupElementBytes = std::size_t{1} << 14;
inline constexpr std::size_t kMaxOprfBatch = std::size_t{1} << 16;
inline constexpr std::size_t kMaxMissing = std::size_t{1} << 20;
inline constexpr std::size_t kMaxErrorDetailBytes = 512;

enum class MsgKind : std::uint16_t {
  kRosterAnnounce = 1,      // server -> client: the DH public-key bulletin
  kBlindedReport = 2,       // client -> server: blinded CMS cells
  kAdjustmentRequest = 3,   // server -> client: missing-participant list
  kAdjustment = 4,          // client -> server: fault-tolerance adjustment
  kThresholdBroadcast = 5,  // server -> client: Users_th for the round
  kOprfEvalRequest = 6,     // client -> oprf-server: blinded elements
  kOprfEvalResponse = 7,    // oprf-server -> client: evaluated elements
  kShardedSubmit = 8,       // front door -> shard: routed inner envelope
  kAck = 9,                 // positive reply carrying no payload
  kError = 10,              // negative reply: ErrorCode + detail string
  // Control plane (operator -> back-end): lets the round orchestration run
  // in a different OS process than the back-end (server::RemoteBackend is
  // the client-side stub). Endpoints serve these only when constructed
  // with serve_control = true.
  kBeginRound = 11,         // operator -> back-end: open a reporting round
  kMissingQuery = 12,       // operator -> back-end: ask for the missing list
  kMissingList = 13,        // back-end -> operator: missing roster indices
  kFinalizeRequest = 14,    // operator -> back-end: aggregate + finalize
  kRoundSummary = 15,       // back-end -> operator: the full round result
  kOprfKeyQuery = 16,       // client -> oprf-server: ask for the public key
  kOprfKeyAnswer = 17,      // oprf-server -> client: RSA public key (N, e)
  kHello = 18,              // either direction: capability negotiation
};

[[nodiscard]] const char* to_string(MsgKind kind) noexcept;

/// A decoded envelope: validated header plus an owned copy of the payload
/// bytes. `stream` is 0 for version-1 frames; nonzero only on mux
/// connections.
struct Envelope {
  MsgKind kind = MsgKind::kAck;
  std::uint32_t sender = 0;
  std::uint64_t round = 0;
  std::uint32_t stream = 0;
  std::vector<std::uint8_t> payload;
};

/// The zero-copy form of Envelope: a validated header plus spans into the
/// frame bytes the view was decoded from. This is what the server ingest
/// path routes on — payloads are never copied between the socket buffer
/// and the sketch decoder. The view borrows `bytes`; it must not outlive
/// the frame buffer.
struct EnvelopeView {
  MsgKind kind = MsgKind::kAck;
  std::uint32_t sender = 0;
  std::uint64_t round = 0;
  std::uint32_t stream = 0;
  std::span<const std::uint8_t> payload;
  /// The complete frame the view was decoded from — for a version-1 frame
  /// these are exactly the canonical bytes the journal records.
  std::span<const std::uint8_t> raw;
};

inline constexpr std::size_t kEnvelopeHeaderBytes = 4 + 2 + 2 + 4 + 8 + 4;
/// Version-2 header: the base header plus the trailing stream id.
inline constexpr std::size_t kMuxEnvelopeHeaderBytes = kEnvelopeHeaderBytes + 4;

/// Capability bits carried by MsgKind::kHello (bitwise OR).
inline constexpr std::uint32_t kCapMux = 0x1;  // version-2 stream envelopes

[[nodiscard]] std::vector<std::uint8_t> encode_envelope(
    MsgKind kind, std::uint32_t sender, std::uint64_t round,
    std::span<const std::uint8_t> payload);

/// Parse and validate an envelope. Throws ProtoError (kBadMagic,
/// kBadVersion, kUnknownKind, kTruncated, kTrailingBytes, kOversized).
[[nodiscard]] Envelope decode_envelope(std::span<const std::uint8_t> bytes);

/// Parse and validate an envelope without copying the payload: the same
/// checks and throws as decode_envelope, but the returned view borrows
/// `bytes`. The decode entry point of the server's per-report hot path.
[[nodiscard]] EnvelopeView decode_envelope_view(
    std::span<const std::uint8_t> bytes);

/// Read just the kind from an envelope's fixed header — no payload copy,
/// no throw. Empty when the header is short, the magic/version is wrong,
/// or the kind is not in the catalogue. For routing decisions (which
/// endpoint serves this frame) on hot server paths; the chosen endpoint
/// still fully validates via decode_envelope.
[[nodiscard]] std::optional<MsgKind> peek_kind(
    std::span<const std::uint8_t> frame) noexcept;

/// Read just the sender from an envelope's fixed header — no payload copy,
/// no throw; empty under the same conditions as peek_kind. The sender is
/// authoritative for submission routing (participant == envelope sender is
/// enforced at decode), so this is what a sharded dispatcher keys its lane
/// choice on.
[[nodiscard]] std::optional<std::uint32_t> peek_sender(
    std::span<const std::uint8_t> frame) noexcept;

/// Read the stream id from an envelope's fixed header — no payload copy,
/// no throw; empty under the same conditions as peek_kind. Version-1
/// frames answer 0 (the legacy lane of a mux connection). This is what
/// the client reactor keys reply correlation on before full decode.
[[nodiscard]] std::optional<std::uint32_t> peek_stream(
    std::span<const std::uint8_t> frame) noexcept;

// ------------------------------------------------------- stream transforms
// Raw-byte conversions between the two envelope versions, used at the mux
// connection boundary. They work on the owned frame in place and never
// touch the payload: add_stream_inplace patches the version field and
// inserts the 4-byte stream id at the header's tail, strip_stream_inplace
// removes it. A round trip is byte-identical, so everything downstream of
// a mux connection operates on the exact version-1 frames a
// per-connection peer would have produced.

/// Capacity headroom encode_envelope reserves beyond the encoded size: a
/// 4-byte stream id plus a 4-byte TCP length prefix, so the mux write path
/// can transform a freshly encoded version-1 frame in place without a
/// single allocation. Headroom is capacity only — no wire byte changes.
inline constexpr std::size_t kMuxHeadroomBytes = 8;

/// Wrap a version-1 envelope frame as version 2 carrying `stream`: grows
/// `frame` by 4, shifts the payload up, patches the version, writes the
/// stream id at the header tail. Allocation-free whenever the vector has
/// 4 bytes of spare capacity (encode_envelope reserves kMuxHeadroomBytes).
/// Throws ProtoError(kTruncated) on a short frame, kBadVersion if the
/// input is not version 1; `frame` is unchanged on throw.
void add_stream_inplace(std::vector<std::uint8_t>& frame,
                        std::uint32_t stream);

/// Unwrap a version-2 envelope frame: removes the stream id, restores
/// version 1, returns the stream. A version-1 input passes through
/// untouched with stream 0 (the legacy lane). Never allocates — the frame
/// only shrinks. Throws ProtoError on a short frame or an unknown
/// version; `frame` is unchanged on throw.
std::uint32_t strip_stream_inplace(std::vector<std::uint8_t>& frame);

/// The client mux send-path fast form: turns an owned version-1 frame into
/// [4-byte LE length prefix][version-2 frame carrying `stream`] in one
/// pass (the prefix layout of raw_frame_io's with_prefix). Grows the
/// vector by kMuxHeadroomBytes; allocation-free whenever capacity permits,
/// which encode_envelope guarantees for every frame it produced.
void mux_frame_with_prefix_inplace(std::vector<std::uint8_t>& frame,
                                   std::uint32_t stream);

// ---------------------------------------------------------------- messages
// Each message encodes itself into a complete envelope and decodes from a
// validated Envelope (throwing ProtoError on kind mismatch or a malformed
// payload). The kinds a server endpoint dispatches on the ingest path
// additionally decode from an EnvelopeView, so the hot path never copies
// the payload out of the socket buffer.

/// Borrow an owned Envelope as a view. `raw` is empty — the frame bytes
/// the Envelope was decoded from are gone once the payload was copied.
[[nodiscard]] inline EnvelopeView as_view(const Envelope& env) noexcept {
  return {env.kind,
          env.sender,
          env.round,
          env.stream,
          {env.payload.data(), env.payload.size()},
          {}};
}

/// The DH public-key bulletin board for one round's roster.
struct RosterAnnounce {
  std::uint32_t element_bytes = 0;
  std::vector<crypto::Bignum> public_keys;

  [[nodiscard]] std::vector<std::uint8_t> encode(std::uint64_t round) const;
  [[nodiscard]] static RosterAnnounce decode(const Envelope& env);
};

/// One client's blinded CMS report. The payload embeds a sketch-layer
/// 'EYWS' blinded-report frame, so geometry validation happens there.
struct BlindedReport {
  std::uint32_t participant = 0;
  sketch::CmsParams params;
  std::vector<std::uint32_t> cells;

  [[nodiscard]] std::vector<std::uint8_t> encode(std::uint64_t round) const;
  [[nodiscard]] static BlindedReport decode(const EnvelopeView& env);
  [[nodiscard]] static BlindedReport decode(const Envelope& env) {
    return decode(as_view(env));
  }
};

/// Server -> reporters: the missing-participant list of the adjustment
/// round (Section 6, fault tolerance).
struct AdjustmentRequest {
  std::vector<std::uint32_t> missing;

  [[nodiscard]] std::vector<std::uint8_t> encode(std::uint64_t round) const;
  [[nodiscard]] static AdjustmentRequest decode(const Envelope& env);
};

/// One reporter's adjustment for the missing set; same embedded framing as
/// BlindedReport.
struct Adjustment {
  std::uint32_t participant = 0;
  sketch::CmsParams params;
  std::vector<std::uint32_t> cells;

  [[nodiscard]] std::vector<std::uint8_t> encode(std::uint64_t round) const;
  [[nodiscard]] static Adjustment decode(const EnvelopeView& env);
  [[nodiscard]] static Adjustment decode(const Envelope& env) {
    return decode(as_view(env));
  }
};

/// The per-round result distributed back to every client.
struct ThresholdBroadcast {
  double users_threshold = 0.0;
  std::uint32_t reports = 0;
  std::uint32_t roster = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode(std::uint64_t round) const;
  [[nodiscard]] static ThresholdBroadcast decode(const Envelope& env);
};

/// Batch-first OPRF evaluation request: the client ships every blinded
/// element it needs evaluated in one frame (one round trip per cache fill,
/// not one per URL).
struct OprfEvalRequest {
  std::uint32_t element_bytes = 0;
  std::vector<crypto::Bignum> elements;

  [[nodiscard]] std::vector<std::uint8_t> encode(std::uint32_t sender) const;
  [[nodiscard]] static OprfEvalRequest decode(const EnvelopeView& env);
  [[nodiscard]] static OprfEvalRequest decode(const Envelope& env) {
    return decode(as_view(env));
  }
};

/// Batch OPRF response: element i evaluates request element i.
struct OprfEvalResponse {
  std::uint32_t element_bytes = 0;
  std::vector<crypto::Bignum> elements;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static OprfEvalResponse decode(const Envelope& env);
};

/// Front-door routing wrapper: a complete inner envelope plus the shard the
/// router assigned it to (the shard rejects a misrouted frame).
struct ShardedSubmit {
  std::uint32_t shard = 0;
  std::vector<std::uint8_t> inner;

  [[nodiscard]] std::vector<std::uint8_t> encode(std::uint32_t sender,
                                                 std::uint64_t round) const;
  [[nodiscard]] static ShardedSubmit decode(const Envelope& env);
};

/// Zero-copy form of ShardedSubmit::decode: `inner` borrows the outer
/// frame's payload bytes — the shard dispatches the inner envelope (and
/// journals it) without the wrapper ever being peeled into a copy.
struct ShardedSubmitView {
  std::uint32_t shard = 0;
  std::span<const std::uint8_t> inner;
};

[[nodiscard]] ShardedSubmitView decode_sharded_view(const EnvelopeView& env);

/// Operator -> back-end: open reporting round `round` (envelope header)
/// for a roster of `roster` clients.
struct BeginRound {
  std::uint32_t roster = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode(std::uint64_t round) const;
  [[nodiscard]] static BeginRound decode(const EnvelopeView& env);
  [[nodiscard]] static BeginRound decode(const Envelope& env) {
    return decode(as_view(env));
  }
};

/// Back-end -> operator: the indices that have not reported (reply to
/// MissingQuery; same payload shape as AdjustmentRequest).
struct MissingList {
  std::vector<std::uint32_t> missing;

  [[nodiscard]] std::vector<std::uint8_t> encode(std::uint64_t round) const;
  [[nodiscard]] static MissingList decode(const Envelope& env);
};

/// Back-end -> operator: everything finalize_round derives — reply to
/// FinalizeRequest. The aggregate travels as a complete sketch-layer
/// 'EYWS' plain-sketch frame (geometry + hash seed validated there), the
/// #Users distribution as its histogram: at most d·w (value u32,
/// weight u64) bins, because every count-min estimate is one of the d·w
/// cells. A RoundResult rebuilt from this message is bit-identical to the
/// server's local one. The decoder refuses more than kMaxFrameCells bins
/// (kOversized) and any histogram UsersDistribution::from_bins refuses
/// (kMalformed).
struct RoundSummary {
  double users_threshold = 0.0;
  std::uint32_t reports = 0;
  std::uint32_t roster = 0;
  core::UsersDistribution distribution;
  std::vector<std::uint8_t> sketch_frame;  // encoded aggregate sketch

  [[nodiscard]] std::vector<std::uint8_t> encode(std::uint64_t round) const;
  [[nodiscard]] static RoundSummary decode(const Envelope& env);
};

/// Oprf-server -> client: the published RSA key (reply to OprfKeyQuery) —
/// how a remote client bootstraps an OprfUrlMapper without out-of-band key
/// distribution.
struct OprfKeyAnswer {
  std::uint32_t element_bytes = 0;
  crypto::Bignum n;
  crypto::Bignum e;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static OprfKeyAnswer decode(const Envelope& env);
};

/// Capability negotiation, the first exchange on a connection that wants
/// more than the version-1 baseline. The client sends its capability bits;
/// a server that understands kHello answers with the intersection of the
/// two sets (what both sides will actually speak), and a pre-kHello server
/// answers Error(kUnknownKind) — which a client must treat as "no
/// capabilities", keeping every old/new pairing on byte-identical
/// version-1 traffic. Re-negotiated from scratch on every reconnect.
struct Hello {
  std::uint32_t capabilities = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode(std::uint32_t sender) const;
  [[nodiscard]] static Hello decode(const EnvelopeView& env);
  [[nodiscard]] static Hello decode(const Envelope& env) {
    return decode(as_view(env));
  }
};

// Payload-free control requests. Decoders are not needed — endpoints
// validate kind + empty payload inline.
[[nodiscard]] std::vector<std::uint8_t> encode_missing_query(
    std::uint64_t round);
[[nodiscard]] std::vector<std::uint8_t> encode_finalize_request(
    std::uint64_t round);
[[nodiscard]] std::vector<std::uint8_t> encode_oprf_key_query();

/// Negative reply. `retry_after_ms` is a backoff hint for kUnavailable
/// refusals (overload shedding): encoded as an optional trailing u32, so
/// a reply without a hint — every refusal on the pre-existing paths — is
/// byte-identical to the version-1 baseline, and old decoders only ever
/// see the hintless form.
struct ErrorReply {
  ErrorCode code = ErrorCode::kInternal;
  std::string detail;
  std::uint32_t retry_after_ms = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static ErrorReply decode(const Envelope& env);
};

[[nodiscard]] std::vector<std::uint8_t> encode_ack();

/// Decode a reply frame and require `expected`. An Error reply is raised as
/// ProtoError with the carried code; any other kind mismatch throws
/// kUnknownKind.
[[nodiscard]] Envelope expect_reply(std::span<const std::uint8_t> bytes,
                                    MsgKind expected);

}  // namespace eyw::proto
