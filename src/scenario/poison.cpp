#include "scenario/poison.hpp"

#include <unistd.h>

#include <stdexcept>

#include "crypto/dh.hpp"
#include "proto/client_reactor.hpp"
#include "proto/message.hpp"
#include "proto/raw_frame_io.hpp"
#include "scenario/churn.hpp"
#include "scenario/scenario.hpp"
#include "server/remote_backend.hpp"
#include "util/thread_pool.hpp"

namespace eyw::scenario {

std::vector<crypto::BlindCell> poison_cells(
    const server::BackendConfig& config) {
  std::vector<crypto::BlindCell> cells(config.cms_params.cells());
  for (std::size_t c = 0; c < cells.size(); ++c)
    cells[c] = 0xdead0000u + static_cast<crypto::BlindCell>(c * 37);
  return cells;
}

PoisonOutcome run_poison_round(server::Deployment& deployment,
                               std::uint64_t round, std::size_t roster,
                               std::size_t poisoner, std::uint64_t seed) {
  if (poisoner >= roster)
    throw std::invalid_argument("run_poison_round: poisoner outside roster");
  const server::BackendConfig& config = deployment.config();
  const std::size_t n_cells = config.cms_params.cells();
  util::ThreadPool& pool = util::ThreadPool::shared();
  PoisonOutcome out;

  // Full roster crypto — the poisoner's pads are as real as anyone's,
  // which is the point: blinding hides content, not conduct.
  util::Rng rng(seed);
  const crypto::DhGroup group = crypto::DhGroup::generate(rng, 128);
  const crypto::DhContext dh_ctx(group);
  std::vector<crypto::DhKeyPair> keys;
  std::vector<crypto::Bignum> publics;
  for (std::size_t i = 0; i < roster; ++i) {
    keys.push_back(dh_ctx.keygen(rng));
    publics.push_back(keys.back().public_key);
  }
  std::vector<std::optional<crypto::BlindingParticipant>> participants(
      roster);
  for (std::size_t i = 0; i < roster; ++i)
    participants[i].emplace(group, i, keys[i],
                            std::span<const crypto::Bignum>(publics), &pool);

  proto::ClientReactor reactor({.shards = 1});
  auto control_chan = reactor.open("127.0.0.1", deployment.port());
  server::RemoteBackend remote(*control_chan, config);
  remote.begin_round(round, roster);

  const auto submitted = [&](std::size_t i) {
    return i == poisoner ? poison_cells(config) : plain_cells(config, i);
  };
  {
    const int fd = proto::raw::connect_loopback(deployment.port());
    if (fd < 0) throw std::runtime_error("run_poison_round: connect failed");
    for (std::size_t i = 0; i < roster; ++i) {
      const auto frame =
          proto::BlindedReport{.participant = static_cast<std::uint32_t>(i),
                               .params = config.cms_params,
                               .cells =
                                   participants[i]->blind(submitted(i), round)}
              .encode(round);
      const auto framed = proto::raw::with_prefix(frame);
      if (!proto::raw::send_all(fd, framed))
        throw std::runtime_error("run_poison_round: send failed");
      (void)proto::expect_reply(proto::raw::read_framed(fd),
                                proto::MsgKind::kAck);
    }

    // Re-report attack: different crafted bytes this time (double weight,
    // not a wire replay) — must be refused as a duplicate, first report
    // standing.
    const std::uint64_t replay_before =
        stat(deployment.stats_port(), "refused_replay");
    std::vector<crypto::BlindCell> doubled = poison_cells(config);
    for (auto& c : doubled) c *= 2;
    const auto again =
        proto::BlindedReport{
            .participant = static_cast<std::uint32_t>(poisoner),
            .params = config.cms_params,
            .cells = participants[poisoner]->blind(doubled, round)}
            .encode(round);
    const auto framed = proto::raw::with_prefix(again);
    if (!proto::raw::send_all(fd, framed))
      throw std::runtime_error("run_poison_round: send failed");
    const auto reply = proto::raw::read_framed(fd);
    ::close(fd);
    const proto::Envelope env = proto::decode_envelope(reply);
    out.re_report_refused =
        env.kind == proto::MsgKind::kError &&
        proto::ErrorReply::decode(env).code == proto::ErrorCode::kRejected;
    out.counters_moved =
        stat(deployment.stats_port(), "refused_replay") == replay_before + 1;
  }

  if (!remote.missing_participants().empty())
    throw std::runtime_error("run_poison_round: unexpected missing set");
  out.result.emplace(remote.finalize_round());

  // The crafted world: everyone's submitted cells (poison included) summed
  // plainly — pads cancelled, so this is exactly what the server must see.
  std::vector<crypto::BlindCell> crafted_sum(n_cells, 0);
  std::vector<crypto::BlindCell> honest_sum(n_cells, 0);
  for (std::size_t i = 0; i < roster; ++i) {
    const auto crafted = submitted(i);
    const auto honest = plain_cells(config, i);
    for (std::size_t c = 0; c < n_cells; ++c) {
      crafted_sum[c] += crafted[c];
      honest_sum[c] += honest[c];
    }
  }
  const server::RoundResult expected =
      server::finalize_from_cells(config, crafted_sum, roster, roster, pool);
  out.shift_exact = results_identical(expected, *out.result);

  // And the shift is bounded by the poisoner's own hand: aggregate minus
  // the honest world equals crafted-minus-honest for the poisoner alone.
  const auto got_cells = out.result->aggregate.cells();
  const auto crafted = poison_cells(config);
  const auto honest = plain_cells(config, poisoner);
  out.shift_bounded = got_cells.size() == n_cells;
  for (std::size_t c = 0; out.shift_bounded && c < n_cells; ++c) {
    const crypto::BlindCell shift = got_cells[c] - honest_sum[c];
    out.shift_bounded = shift ==
                        static_cast<crypto::BlindCell>(crafted[c] - honest[c]);
  }
  return out;
}

}  // namespace eyw::scenario
