#include "scenario/crash_churn.hpp"

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>

#include "proto/client_reactor.hpp"
#include "proto/message.hpp"
#include "proto/raw_frame_io.hpp"
#include "scenario/churn.hpp"
#include "scenario/scenario.hpp"
#include "server/deployment.hpp"
#include "server/remote_backend.hpp"
#include "util/thread_pool.hpp"

namespace eyw::scenario {

namespace {

constexpr std::size_t kRoster = 12;
/// The pre-crash reporters (deterministic subset); the rest are the
/// churned-away missing the recovered server must still account for.
constexpr std::size_t kReporters[] = {0, 2, 3, 5, 6, 8, 9, 11};

std::vector<std::uint8_t> report_frame(const server::BackendConfig& config,
                                       std::size_t i, std::uint64_t round) {
  return proto::BlindedReport{.participant = static_cast<std::uint32_t>(i),
                              .params = config.cms_params,
                              .cells = plain_cells(config, i)}
      .encode(round);
}

std::vector<std::uint8_t> sync_exchange(int fd,
                                        std::span<const std::uint8_t> frame) {
  const auto framed = proto::raw::with_prefix(frame);
  if (!proto::raw::send_all(fd, framed))
    throw std::runtime_error("crash-churn: send failed");
  return proto::raw::read_framed(fd);
}

}  // namespace

CrashChurnOutcome run_crash_churn(const std::string& work_dir) {
  const server::BackendConfig config = server::default_config();
  // Fresh scratch state: a journal left by an earlier run would be
  // recovered by incarnation 1 (its round 1 already open, refusing ours),
  // and a stale port file would hand us a dead server's ports.
  const std::string journal = work_dir + "/crash-churn-journal";
  std::error_code ec;
  std::filesystem::remove_all(journal, ec);
  std::filesystem::remove(work_dir + "/crash-churn.port1", ec);
  std::filesystem::remove(work_dir + "/crash-churn.port2", ec);
  (void)::mkdir(journal.c_str(), 0755);
  CrashChurnOutcome out;
  constexpr std::uint64_t kRound = 1;

  // --- Incarnation 1: accept a partial round, then die by SIGKILL -----
  const std::string pf1 = work_dir + "/crash-churn.port1";
  const pid_t pid1 = server::spawn_journaled_server(journal, pf1);
  const server::ServedPorts p1 = server::await_port_file(pf1);
  {
    proto::ClientReactor reactor({.shards = 1});
    auto control_chan = reactor.open("127.0.0.1", p1.port);
    server::RemoteBackend remote(*control_chan, config);
    remote.begin_round(kRound, kRoster);

    const int fd = proto::raw::connect_loopback(p1.port);
    if (fd < 0) throw std::runtime_error("crash-churn: connect failed");
    for (const std::size_t i : kReporters)
      (void)proto::expect_reply(sync_exchange(fd, report_frame(config, i, kRound)),
                                proto::MsgKind::kAck);

    // Churn active at the moment of death: one connected-idle peer and
    // one torn frame in flight. Neither may leave a trace in recovery.
    const int idle_fd = proto::raw::connect_loopback(p1.port);
    const int torn_fd = proto::raw::connect_loopback(p1.port);
    if (torn_fd >= 0) {
      const auto framed =
          proto::raw::with_prefix(report_frame(config, 1, kRound));
      (void)proto::raw::send_all(
          torn_fd,
          std::span<const std::uint8_t>(framed.data(), framed.size() / 2));
    }

    // The missing query is a durability barrier: everything acknowledged
    // above is on disk when the answer comes back. THEN kill -9.
    out.missing_before = remote.missing_participants();
    ::kill(pid1, SIGKILL);
    int status = 0;
    (void)::waitpid(pid1, &status, 0);
    if (idle_fd >= 0) ::close(idle_fd);
    if (torn_fd >= 0) ::close(torn_fd);
    ::close(fd);
  }

  // --- Incarnation 2: recover from the same journal -------------------
  const std::string pf2 = work_dir + "/crash-churn.port2";
  const pid_t pid2 = server::spawn_journaled_server(journal, pf2);
  const server::ServedPorts p2 = server::await_port_file(pf2);
  {
    proto::ClientReactor reactor({.shards = 1});
    auto control_chan = reactor.open("127.0.0.1", p2.port);
    server::RemoteBackend remote(*control_chan, config);
    remote.adopt_round(kRound);

    out.missing_after = remote.missing_participants();
    out.missing_match = out.missing_after == out.missing_before;

    // Recovery replayed only accepted records: nothing refused, nothing
    // torn (the half-frame never completed TCP framing, so it was never
    // journaled — kill -9 notwithstanding).
    out.records_replayed = stat(p2.stats_port, "recovery_records_replayed");
    out.recovery_clean =
        stat(p2.stats_port, "recovery_records_refused") == 0 &&
        stat(p2.stats_port, "recovery_torn_bytes") == 0 &&
        out.records_replayed >= std::size(kReporters);

    const int fd = proto::raw::connect_loopback(p2.port);
    if (fd < 0) throw std::runtime_error("crash-churn: connect 2 failed");

    // Byte-identical resubmission of an accepted report must still be a
    // duplicate — the reporter set crossed the crash intact.
    {
      const auto reply =
          sync_exchange(fd, report_frame(config, kReporters[0], kRound));
      const proto::Envelope env = proto::decode_envelope(reply);
      out.duplicate_refused_after_recovery =
          env.kind == proto::MsgKind::kError &&
          proto::ErrorReply::decode(env).code == proto::ErrorCode::kRejected;
    }

    // Close the round against the recovered state: every reporter adjusts
    // for the missing set (synthetic cells carry no pads, so the correct
    // adjustment is all-zero) and finalize must match the in-process
    // control over exactly the pre-crash reporters.
    for (const std::size_t i : kReporters) {
      const auto frame =
          proto::Adjustment{.participant = static_cast<std::uint32_t>(i),
                            .params = config.cms_params,
                            .cells = std::vector<crypto::BlindCell>(
                                config.cms_params.cells(), 0)}
              .encode(kRound);
      (void)proto::expect_reply(sync_exchange(fd, frame),
                                proto::MsgKind::kAck);
    }
    ::close(fd);

    const server::RoundResult result = remote.finalize_round();
    std::vector<crypto::BlindCell> plain_sum(config.cms_params.cells(), 0);
    for (const std::size_t i : kReporters) {
      const auto cells = plain_cells(config, i);
      for (std::size_t c = 0; c < plain_sum.size(); ++c)
        plain_sum[c] += cells[c];
    }
    const server::RoundResult control = server::finalize_from_cells(
        config, plain_sum, std::size(kReporters), kRoster,
        util::ThreadPool::shared());
    out.finalize_identical = results_identical(control, result);
  }
  int status2 = 0;
  (void)::waitpid(pid2, &status2, 0);  // child exits 0 after the finalize
  return out;
}

}  // namespace eyw::scenario
