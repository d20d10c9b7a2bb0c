#include "scenario/mutator.hpp"

#include <unistd.h>

#include <map>
#include <stdexcept>

#include "proto/client_reactor.hpp"
#include "proto/raw_frame_io.hpp"
#include "scenario/churn.hpp"
#include "scenario/scenario.hpp"
#include "server/remote_backend.hpp"
#include "util/thread_pool.hpp"

namespace eyw::scenario {

namespace {

constexpr std::size_t kRoster = 6;

/// The honest report frame for roster index `i` — run_mutator submits
/// exactly these, so a corpus replay entry is byte-identical by
/// construction.
std::vector<std::uint8_t> honest_report(const server::BackendConfig& config,
                                        std::size_t i, std::uint64_t round) {
  return proto::BlindedReport{.participant = static_cast<std::uint32_t>(i),
                              .params = config.cms_params,
                              .cells = plain_cells(config, i)}
      .encode(round);
}

/// Synchronous exchange over a raw fd (the hostile peer does not get the
/// polished client stack). Empty reply == peer dropped us.
std::vector<std::uint8_t> raw_exchange(int fd,
                                   std::span<const std::uint8_t> frame) {
  const auto framed = proto::raw::with_prefix(frame);
  if (!proto::raw::send_all(fd, framed)) return {};
  return proto::raw::read_framed(fd);
}

}  // namespace

std::vector<MutatorCase> mutator_corpus(const server::BackendConfig& config,
                                        std::uint64_t round,
                                        std::size_t roster,
                                        std::size_t shards) {
  std::vector<MutatorCase> corpus;
  const auto add = [&corpus](std::string name, std::vector<std::uint8_t> f,
                             proto::ErrorCode expect, bool replay = false,
                             bool stale = false) {
    corpus.push_back({std::move(name), std::move(f), expect, replay, stale});
  };
  const std::vector<std::uint8_t> valid = honest_report(config, 1, round);

  // --- header corruption (refused by decode_envelope) -----------------
  {
    auto f = valid;
    f[0] ^= 0xff;
    add("bad-magic", std::move(f), proto::ErrorCode::kBadMagic);
  }
  add("garbage",
      {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06,
       0x07, 0x08, 0x09, 0x0a, 0x0b},
      proto::ErrorCode::kBadMagic);
  {
    auto f = valid;
    f[4] = 3;  // version 3 does not exist (2 is the mux envelope)
    add("bad-version", std::move(f), proto::ErrorCode::kBadVersion);
  }
  {
    // A version-2 header whose stream id was cut off: the mux envelope
    // needs 4 more header bytes than this frame carries before `length`
    // even lines up, so decode refuses it as truncated.
    auto f = valid;
    f[4] = 2;
    add("mux-short-stream", std::move(f), proto::ErrorCode::kTruncated);
  }
  {
    auto f = valid;
    f[6] = 99;  // kind 99 is not in the catalogue
    f[7] = 0;
    add("unknown-kind", std::move(f), proto::ErrorCode::kUnknownKind);
  }
  {
    auto f = valid;
    f.resize(f.size() - 10);  // length field now promises more than follows
    add("truncated-payload", std::move(f), proto::ErrorCode::kTruncated);
  }
  {
    std::vector<std::uint8_t> f(valid.begin(), valid.begin() + 10);
    add("short-header", std::move(f), proto::ErrorCode::kTruncated);
  }
  {
    auto f = valid;
    for (int i = 0; i < 7; ++i) f.push_back(0x5a);
    add("trailing-bytes", std::move(f), proto::ErrorCode::kTrailingBytes);
  }

  // --- payload forgery (refused by the message decoders) --------------
  add("junk-report-payload",
      proto::encode_envelope(proto::MsgKind::kBlindedReport, 1, round,
                             std::vector<std::uint8_t>{0xaa, 0xaa, 0xaa,
                                                       0xaa, 0x41, 0x42}),
      proto::ErrorCode::kMalformed);
  {
    // Valid report whose envelope sender is patched to another index: the
    // routing layer and the payload now disagree about who reported.
    auto f = valid;
    f[8] = 2;  // sender u32 at offset 8; payload still claims participant 1
    add("forged-sender", std::move(f), proto::ErrorCode::kMalformed);
  }
  add("missing-query-payload",
      proto::encode_envelope(proto::MsgKind::kMissingQuery,
                             proto::kServerSender, round,
                             std::vector<std::uint8_t>{1, 2, 3}),
      proto::ErrorCode::kMalformed);
  add("finalize-payload",
      proto::encode_envelope(proto::MsgKind::kFinalizeRequest,
                             proto::kServerSender, round,
                             std::vector<std::uint8_t>{9}),
      proto::ErrorCode::kMalformed);

  // --- wrong direction / geometry -------------------------------------
  add("server-to-client-kind",
      proto::encode_envelope(proto::MsgKind::kThresholdBroadcast,
                             proto::kServerSender, round, {}),
      proto::ErrorCode::kUnknownKind);
  {
    const sketch::CmsParams wrong{.depth = 2, .width = 64};
    add("geometry-mismatch",
        proto::BlindedReport{.participant = 1,
                             .params = wrong,
                             .cells = std::vector<crypto::BlindCell>(
                                 wrong.cells(), 7)}
            .encode(round),
        proto::ErrorCode::kGeometryMismatch);
  }

  // --- replay + stale (refused by round/backend state) -----------------
  add("replay-report", honest_report(config, 2, round),
      proto::ErrorCode::kRejected, /*replay=*/true);
  add("begin-replay", proto::BeginRound{static_cast<std::uint32_t>(roster)}
                          .encode(round),
      proto::ErrorCode::kRejected, /*replay=*/true);
  add("begin-stale",
      proto::BeginRound{static_cast<std::uint32_t>(roster)}.encode(round - 1),
      proto::ErrorCode::kRejected, /*replay=*/true);
  add("stale-report", honest_report(config, 0, round + 57),
      proto::ErrorCode::kRejected, /*replay=*/false, /*stale=*/true);
  add("stale-adjustment",
      proto::Adjustment{.participant = 0,
                        .params = config.cms_params,
                        .cells = std::vector<crypto::BlindCell>(
                            config.cms_params.cells(), 0)}
          .encode(round + 57),
      proto::ErrorCode::kRejected, /*replay=*/false, /*stale=*/true);

  // --- roster violations ----------------------------------------------
  add("report-outside-roster", honest_report(config, roster + 71, round),
      proto::ErrorCode::kRejected);
  add("adjustment-from-non-reporter",
      proto::Adjustment{.participant =
                            static_cast<std::uint32_t>(roster + 71),
                        .params = config.cms_params,
                        .cells = std::vector<crypto::BlindCell>(
                            config.cms_params.cells(), 0)}
          .encode(round),
      proto::ErrorCode::kRejected);

  // --- sharded front-door violations -----------------------------------
  {
    const std::uint32_t shard3 = static_cast<std::uint32_t>(3 % shards);
    add("sharded-sender-mismatch",
        proto::ShardedSubmit{.shard = shard3,
                             .inner = honest_report(config, 3, round)}
            .encode(/*sender=*/4, round),
        proto::ErrorCode::kRejected);
    add("sharded-wrong-shard",
        proto::ShardedSubmit{.shard = static_cast<std::uint32_t>(
                                 (3 + 1) % shards),
                             .inner = honest_report(config, 3, round)}
            .encode(/*sender=*/3, round),
        proto::ErrorCode::kRejected);
    add("sharded-wrapping-ack",
        proto::ShardedSubmit{.shard = 0, .inner = proto::encode_ack()}
            .encode(/*sender=*/0, round),
        proto::ErrorCode::kUnknownKind);
  }
  return corpus;
}

MutatorOutcome run_mutator(server::Deployment& deployment,
                           std::uint64_t round, std::size_t repeats) {
  const server::BackendConfig& config = deployment.config();
  MutatorOutcome out;

  // Control plane over the real client stack; the hostile frames go over
  // raw sockets below.
  proto::ClientReactor reactor({.shards = 1});
  auto control_chan = reactor.open("127.0.0.1", deployment.port());
  server::RemoteBackend remote(*control_chan, config);
  remote.begin_round(round, kRoster);

  // Honest phase: every roster member reports (no missing set, so the
  // corpus cannot hide behind adjustment bookkeeping).
  {
    const int fd = proto::raw::connect_loopback(deployment.port());
    if (fd < 0) throw std::runtime_error("run_mutator: connect failed");
    for (std::size_t i = 0; i < kRoster; ++i) {
      const auto reply = raw_exchange(fd, honest_report(config, i, round));
      (void)proto::expect_reply(reply, proto::MsgKind::kAck);
    }
    ::close(fd);
  }

  const std::string before = server::stats_http_get(deployment.stats_port());

  // Injection passes: a fresh connection per pass, the whole corpus
  // back-to-back on it. Every reply must be an Error with the expected
  // code — an Ack, a drop, or the wrong code all count against.
  const std::vector<MutatorCase> corpus = mutator_corpus(
      config, round, kRoster, server::Deployment::kBackendShards);
  std::map<proto::ErrorCode, std::uint64_t> expect_by_code;
  std::uint64_t expect_replay = 0;
  std::uint64_t expect_stale = 0;
  for (std::size_t pass = 0; pass < repeats; ++pass) {
    const int fd = proto::raw::connect_loopback(deployment.port());
    if (fd < 0) throw std::runtime_error("run_mutator: connect failed");
    for (const MutatorCase& c : corpus) {
      ++out.injected;
      expect_by_code[c.expect] += 1;
      if (c.bumps_replay) ++expect_replay;
      if (c.bumps_stale) ++expect_stale;
      MutatorCaseReport report{c.name, c.expect,
                               proto::ErrorCode::kInternal, false};
      const auto reply = raw_exchange(fd, c.frame);
      if (!reply.empty()) {
        try {
          const proto::Envelope env = proto::decode_envelope(reply);
          if (env.kind == proto::MsgKind::kError) {
            report.got = proto::ErrorReply::decode(env).code;
            report.refused_as_expected = report.got == c.expect;
          }
        } catch (const std::exception&) {
          // reply unparseable -> counts as not refused-as-expected
        }
      }
      if (report.refused_as_expected) ++out.refused;
      if (pass == 0) out.cases.push_back(std::move(report));
    }
    ::close(fd);
  }

  // Audit through the operator surface: the refusal counters must account
  // for every injected frame, bucket by bucket, and the admission
  // counters must not have moved.
  const std::string after = server::stats_http_get(deployment.stats_port());
  const auto delta = [&](const std::string& name) {
    return server::stats_value(after, name) -
           server::stats_value(before, name);
  };
  out.stats_refusals_delta = delta("refusals");
  const auto bucket = [](proto::ErrorCode code) {
    switch (code) {
      case proto::ErrorCode::kBadMagic: return "refused_bad_magic";
      case proto::ErrorCode::kBadVersion: return "refused_bad_version";
      case proto::ErrorCode::kUnknownKind: return "refused_unknown_kind";
      case proto::ErrorCode::kTruncated: return "refused_truncated";
      case proto::ErrorCode::kTrailingBytes: return "refused_trailing_bytes";
      case proto::ErrorCode::kMalformed: return "refused_malformed";
      case proto::ErrorCode::kGeometryMismatch:
        return "refused_geometry_mismatch";
      case proto::ErrorCode::kOversized: return "refused_oversized";
      case proto::ErrorCode::kRejected: return "refused_rejected";
      case proto::ErrorCode::kInternal: return "refused_internal";
      case proto::ErrorCode::kUnavailable: return "refused_unavailable";
      case proto::ErrorCode::kOk: break;  // never a refusal code
    }
    return "refusals";
  };
  out.counters_account =
      out.stats_refusals_delta == out.injected &&
      delta("reports_accepted") == 0 && delta("adjustments_accepted") == 0 &&
      delta("round_reports") == 0 && delta("refused_replay") == expect_replay &&
      delta("refused_stale_round") == expect_stale;
  for (const auto& [code, count] : expect_by_code)
    out.counters_account =
        out.counters_account && delta(bucket(code)) == count;

  // Nothing hostile reached aggregation: no one is missing, and the
  // finalized aggregate equals the in-process sum of the six honest
  // reports pushed through the same finalize tail.
  const bool no_missing = remote.missing_participants().empty();
  const server::RoundResult result = remote.finalize_round();
  std::vector<crypto::BlindCell> plain_sum(config.cms_params.cells(), 0);
  for (std::size_t i = 0; i < kRoster; ++i) {
    const auto cells = plain_cells(config, i);
    for (std::size_t c = 0; c < plain_sum.size(); ++c)
      plain_sum[c] += cells[c];
  }
  const server::RoundResult control = server::finalize_from_cells(
      config, plain_sum, kRoster, kRoster, util::ThreadPool::shared());
  out.aggregation_clean = no_missing && results_identical(control, result);
  return out;
}

}  // namespace eyw::scenario
