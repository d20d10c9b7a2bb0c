#include "scenario/churn.hpp"

#include <unistd.h>

#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "crypto/blinding.hpp"
#include "crypto/dh.hpp"
#include "proto/client_reactor.hpp"
#include "proto/message.hpp"
#include "proto/raw_frame_io.hpp"
#include "scenario/scenario.hpp"
#include "server/remote_backend.hpp"
#include "util/thread_pool.hpp"

namespace eyw::scenario {

const char* to_string(ChurnStyle style) noexcept {
  switch (style) {
    case ChurnStyle::kHonest: return "honest";
    case ChurnStyle::kNeverConnects: return "never-connects";
    case ChurnStyle::kConnectsIdle: return "connects-idle";
    case ChurnStyle::kDiesMidReport: return "dies-mid-report";
    case ChurnStyle::kDiesAfterAdjust: return "dies-after-adjust";
    case ChurnStyle::kShed: return "shed";
  }
  return "?";
}

ChurnSchedule ChurnSchedule::make(std::size_t roster, double rate,
                                  std::uint64_t seed) {
  ChurnSchedule schedule;
  schedule.styles.resize(roster, ChurnStyle::kHonest);
  util::Rng rng(seed ^ 0x636875726eULL);  // decorrelate from other uses
  for (std::size_t i = 0; i < roster; ++i) {
    if (!rng.chance(rate)) continue;
    schedule.styles[i] =
        static_cast<ChurnStyle>(1 + rng.below(5));  // the 5 churn styles
  }
  // A round with zero reports cannot finalize; churn rates near 1.0 on a
  // tiny roster could produce that by chance. Pin index 0 honest so every
  // schedule yields a finalizable round.
  if (roster > 0) schedule.styles[0] = ChurnStyle::kHonest;
  return schedule;
}

std::vector<std::size_t> ChurnSchedule::expected_missing() const {
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < styles.size(); ++i) {
    if (styles[i] == ChurnStyle::kNeverConnects ||
        styles[i] == ChurnStyle::kConnectsIdle ||
        styles[i] == ChurnStyle::kDiesMidReport ||
        styles[i] == ChurnStyle::kShed)
      missing.push_back(i);
  }
  return missing;
}

std::vector<std::size_t> ChurnSchedule::reporters() const {
  std::vector<std::size_t> reporting;
  for (std::size_t i = 0; i < styles.size(); ++i) {
    if (styles[i] == ChurnStyle::kHonest ||
        styles[i] == ChurnStyle::kDiesAfterAdjust)
      reporting.push_back(i);
  }
  return reporting;
}

std::vector<crypto::BlindCell> plain_cells(
    const server::BackendConfig& config, std::size_t i) {
  std::vector<crypto::BlindCell> cells(config.cms_params.cells());
  for (std::size_t c = 0; c < cells.size(); ++c)
    cells[c] = static_cast<crypto::BlindCell>(i * 2654435761u + c) & 0xff;
  return cells;
}

namespace {

/// Slot-per-sender ack collection for a wave of exchange_async calls.
struct AckWave {
  explicit AckWave(std::size_t n) : results(n) {}
  std::vector<proto::AsyncResult> results;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;

  void complete(std::size_t slot, proto::AsyncResult r) {
    results[slot] = std::move(r);
    std::lock_guard<std::mutex> lock(mu);
    ++done;
    cv.notify_one();
  }
  void wait(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done >= n; });
  }
  /// Throws on the first failed exchange; requires every reply be an Ack.
  void require_acks(std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
      if (results[k].error) std::rethrow_exception(results[k].error);
      (void)proto::expect_reply(results[k].reply, proto::MsgKind::kAck);
    }
  }
};

}  // namespace

ChurnOutcome run_churn_round(server::Deployment& deployment,
                             std::uint64_t round,
                             const ChurnSchedule& schedule,
                             std::uint64_t seed) {
  const server::BackendConfig& config = deployment.config();
  const std::size_t n = schedule.roster();
  const std::size_t n_cells = config.cms_params.cells();
  util::ThreadPool& pool = util::ThreadPool::shared();

  ChurnOutcome out;
  out.schedule = schedule;
  const std::vector<std::size_t> reporting = schedule.reporters();
  const std::vector<std::size_t> want_missing = schedule.expected_missing();

  // Roster crypto, all seeded: same (seed, round) -> same keys -> same
  // pads -> bit-identical frames on the wire. Only actual reporters build
  // BlindingParticipants (a never-connecting extension computes nothing),
  // but the public roster covers everyone — pads are pairwise across the
  // full roster, which is exactly why the missing set leaves a residue
  // the adjustments must cancel.
  util::Rng rng(seed);
  const crypto::DhGroup group = crypto::DhGroup::generate(rng, 128);
  const crypto::DhContext dh_ctx(group);
  std::vector<crypto::DhKeyPair> keys;
  std::vector<crypto::Bignum> publics;
  keys.reserve(n);
  publics.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(dh_ctx.keygen(rng));
    publics.push_back(keys.back().public_key);
  }
  std::vector<std::optional<crypto::BlindingParticipant>> participants(n);
  for (const std::size_t i : reporting)
    participants[i].emplace(group, i, keys[i],
                            std::span<const crypto::Bignum>(publics), &pool);

  // One client reactor drives everything outbound: the control channel,
  // every reporter channel, and nothing else — the same stack quickstart's
  // swarm uses.
  proto::ClientReactor reactor({.shards = 2, .backoff_jitter_seed = seed});
  auto control = reactor.open("127.0.0.1", deployment.port());
  server::RemoteBackend remote(*control, config);
  remote.begin_round(round, n);

  // --- Report phase, churn interleaved -------------------------------
  // Connect-phase churners first: they connect (or half-send) and die
  // while the honest wave is being prepared — their deaths must leave no
  // trace beyond the missing list.
  for (std::size_t i = 0; i < n; ++i) {
    if (schedule.styles[i] == ChurnStyle::kConnectsIdle) {
      const int fd = proto::raw::connect_loopback(deployment.port());
      if (fd >= 0) ::close(fd);  // connected, said nothing, died
    } else if (schedule.styles[i] == ChurnStyle::kDiesMidReport) {
      const int fd = proto::raw::connect_loopback(deployment.port());
      if (fd >= 0) {
        // A real report frame, torn mid-payload: the server's framing
        // layer waits for the promised length, the close discards the
        // partial frame, and nothing reaches dispatch (or the journal).
        const proto::BlindedReport report{
            .participant = static_cast<std::uint32_t>(i),
            .params = config.cms_params,
            .cells = plain_cells(config, i)};
        const auto framed = proto::raw::with_prefix(report.encode(round));
        (void)proto::raw::send_all(
            fd, std::span<const std::uint8_t>(framed.data(),
                                              framed.size() / 2));
        ::close(fd);  // died mid-frame
      }
    }
  }

  // Overload-shed churners (PR 9): their submissions ride one multiplexed
  // connection, each on a stream id above the server's per-connection
  // cap, so the reactor refuses every frame with a hintless
  // Error(kUnavailable) before dispatch. A refusal is a *delivered
  // reply* — the reporter observes the shed mid-round — but the frame
  // never reaches the endpoint (or the journal), which is what lets the
  // missing-list path absorb these reporters bit-exactly below.
  std::vector<std::size_t> shed_members;
  for (std::size_t i = 0; i < n; ++i)
    if (schedule.styles[i] == ChurnStyle::kShed) shed_members.push_back(i);
  out.sheds_attempted = shed_members.size();
  if (!shed_members.empty()) {
    auto mux = reactor.open_mux("127.0.0.1", deployment.port());
    const std::uint32_t cap =
        proto::FrameServerOptions{}.max_streams_per_connection;
    std::vector<std::shared_ptr<proto::MuxStream>> streams;
    streams.reserve(shed_members.size());
    AckWave sheds(shed_members.size());
    for (std::size_t k = 0; k < shed_members.size(); ++k) {
      const std::size_t i = shed_members[k];
      streams.push_back(
          mux->open_stream(cap + 1 + static_cast<std::uint32_t>(k)));
      const auto frame = proto::BlindedReport{
          .participant = static_cast<std::uint32_t>(i),
          .params = config.cms_params,
          .cells = plain_cells(config, i)}
                             .encode(round);
      streams.back()->exchange_async(frame,
                                     [&sheds, k](proto::AsyncResult r) {
                                       sheds.complete(k, std::move(r));
                                     });
    }
    sheds.wait(shed_members.size());
    for (std::size_t k = 0; k < shed_members.size(); ++k) {
      bool refused = false;
      if (!sheds.results[k].error && !sheds.results[k].reply.empty()) {
        try {
          const proto::ErrorReply e = proto::ErrorReply::decode(
              proto::decode_envelope(sheds.results[k].reply));
          // Hintless: the stream-cap refusal is permanent, not transient.
          refused = e.code == proto::ErrorCode::kUnavailable &&
                    e.retry_after_ms == 0;
        } catch (...) {
        }
      }
      if (!refused) out.sheds_refused_ok = false;
    }
  }

  // Honest wave: one connection per reporter, blinded reports in flight
  // simultaneously (blinding fans out over the pool first — slot-per-
  // reporter, bit-identical for any thread count).
  std::vector<std::vector<crypto::BlindCell>> blinded(reporting.size());
  pool.parallel_for(reporting.size(), [&](std::size_t k) {
    const std::size_t i = reporting[k];
    blinded[k] = participants[i]->blind(plain_cells(config, i), round);
  });
  std::vector<std::shared_ptr<proto::ClientChannel>> channels(
      reporting.size());
  for (std::size_t k = 0; k < reporting.size(); ++k)
    channels[k] = reactor.open("127.0.0.1", deployment.port());
  AckWave reports(reporting.size());
  for (std::size_t k = 0; k < reporting.size(); ++k) {
    const std::size_t i = reporting[k];
    const auto frame = proto::BlindedReport{
        .participant = static_cast<std::uint32_t>(i),
        .params = config.cms_params,
        .cells = std::move(blinded[k])}
                           .encode(round);
    channels[k]->exchange_async(frame, [&reports, k](proto::AsyncResult r) {
      reports.complete(k, std::move(r));
    });
  }
  reports.wait(reporting.size());
  reports.require_acks(reporting.size());

  // --- Missing list (phase barrier) ----------------------------------
  out.missing = remote.missing_participants();
  out.missing_as_expected = out.missing == want_missing;

  // --- Adjustment phase ----------------------------------------------
  // Every reporter answers for the missing set (the finalize invariant:
  // with anyone missing, adjustments must come from ALL reporters).
  if (!out.missing.empty()) {
    std::vector<std::vector<crypto::BlindCell>> adjustments(reporting.size());
    pool.parallel_for(reporting.size(), [&](std::size_t k) {
      adjustments[k] = participants[reporting[k]]->adjustment_for_missing(
          n_cells, round, std::span<const std::size_t>(out.missing));
    });
    AckWave adjust(reporting.size());
    for (std::size_t k = 0; k < reporting.size(); ++k) {
      const auto frame = proto::Adjustment{
          .participant = static_cast<std::uint32_t>(reporting[k]),
          .params = config.cms_params,
          .cells = std::move(adjustments[k])}
                             .encode(round);
      channels[k]->exchange_async(frame,
                                  [&adjust, k](proto::AsyncResult r) {
                                    adjust.complete(k, std::move(r));
                                  });
    }
    adjust.wait(reporting.size());
    adjust.require_acks(reporting.size());
  }

  // --- Finalize-phase churn ------------------------------------------
  // dies-after-adjust reporters drop their connections now: the one
  // post-report death the protocol absorbs (their pads are already
  // cancelled; the aggregate no longer needs them alive).
  for (std::size_t k = 0; k < reporting.size(); ++k)
    if (schedule.styles[reporting[k]] == ChurnStyle::kDiesAfterAdjust)
      channels[k].reset();

  out.result.emplace(remote.finalize_round());

  // --- Honest-subset control -----------------------------------------
  // The blinding identity: pads cancel pairwise across reporters, and the
  // adjustments cancel every pad shared with the missing — so the
  // finalized aggregate must equal the plain cell sum of exactly the
  // reporters, pushed through the same finalize tail.
  std::vector<crypto::BlindCell> plain_sum(n_cells, 0);
  for (const std::size_t i : reporting) {
    const auto cells = plain_cells(config, i);
    for (std::size_t c = 0; c < n_cells; ++c) plain_sum[c] += cells[c];
  }
  out.control.emplace(server::finalize_from_cells(
      config, plain_sum, reporting.size(), n, pool));
  out.identical = results_identical(*out.control, *out.result);

  // --- Operator-surface assertions -----------------------------------
  const std::string json = server::stats_http_get(deployment.stats_port());
  out.stats_reports = server::stats_value(json, "round_reports");
  out.stats_adjustments = server::stats_value(json, "round_adjustments");
  out.stats_missing = server::stats_value(json, "round_missing");
  out.stats_ok =
      out.stats_reports == reporting.size() &&
      out.stats_adjustments ==
          (out.missing.empty() ? 0 : reporting.size()) &&
      out.stats_missing == out.missing.size() &&
      server::stats_value(json, "round_roster") == n &&
      // Every shed attempt shows up on the reactor's refusal counter
      // (>=: the counter is cumulative across a deployment's rounds) and
      // none of them was admitted as a report.
      server::stats_value(json, "streams_shed") >= out.sheds_attempted;

  // --- Determinism digest --------------------------------------------
  Digest digest;
  for (const ChurnStyle s : schedule.styles)
    digest.add(static_cast<std::uint64_t>(s));
  for (const std::size_t m : out.missing) digest.add(m);
  for (const crypto::BlindCell c : out.result->aggregate.cells())
    digest.add(c);
  std::uint64_t th_bits = 0;
  static_assert(sizeof(th_bits) == sizeof(out.result->users_threshold));
  std::memcpy(&th_bits, &out.result->users_threshold, sizeof(th_bits));
  digest.add(th_bits);
  digest.add(out.result->reports);
  digest.add(out.result->roster);
  out.digest = digest.value();
  return out;
}

}  // namespace eyw::scenario
