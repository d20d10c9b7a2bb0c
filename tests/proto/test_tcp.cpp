// The socket transport binding, driven through the one client this repo
// has — a ClientChannel behind SyncTransportAdapter: length framing,
// byte accounting on both ends, partial-read robustness (truncation at
// every byte boundary of a framed reply), oversized-length rejection
// before allocation on both ends, connect-attempt exhaustion, peer
// disconnects during every round phase (sync and pipelined
// RemoteBackend), and fault-plan parity — the same FaultInjectingTransport
// plan must surface the same ErrorCode over TCP as over loopback, because
// the transports are supposed to be observationally interchangeable.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "proto/client_reactor.hpp"
#include "proto/message.hpp"
#include "proto/raw_frame_io.hpp"
#include "proto/tcp.hpp"
#include "proto/transport.hpp"
#include "server/backend.hpp"
#include "server/cluster.hpp"
#include "server/endpoint.hpp"
#include "server/remote_backend.hpp"
#include "server/round.hpp"

namespace eyw::proto {
namespace {

const sketch::CmsParams kParams{.depth = 2, .width = 8};

server::BackendConfig small_config() {
  return {.cms_params = kParams,
          .cms_hash_seed = 5,
          .id_space = 100,
          .users_rule = core::ThresholdRule::kMean};
}

std::vector<std::uint32_t> sample_cells() {
  std::vector<std::uint32_t> cells(kParams.cells());
  for (std::size_t i = 0; i < cells.size(); ++i)
    cells[i] = static_cast<std::uint32_t>(0x1000 + i * 17);
  return cells;
}

ErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ProtoError& e) {
    return e.code();
  }
  return ErrorCode::kOk;
}

/// A deliberately misbehaving server: accepts connections sequentially and
/// runs `session` on each accepted socket until stopped. Used where
/// FrameServer is too well-behaved to produce the failure under test.
class RawServer {
 public:
  explicit RawServer(std::function<void(int fd)> session)
      : session_(std::move(session)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 16), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_,
                            reinterpret_cast<struct sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;  // listener closed: shut down
        session_(fd);
        ::close(fd);
      }
    });
  }

  ~RawServer() {
    // shutdown() unblocks accept() on every platform close() alone may not.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  std::function<void(int)> session_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// Wait until every connection worker has exited (and therefore flushed
/// its stats) after the client side closed.
void wait_idle(const FrameServer& server) {
  for (int i = 0; i < 2'000 && server.active_connections() != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(server.active_connections(), 0u);
}

ClientReactorOptions fast_options() {
  // Tight timeouts so failure-path tests do not stall the suite.
  return {.shards = 1,
          .connect_timeout = std::chrono::milliseconds(1'000),
          .io_timeout = std::chrono::milliseconds(2'000),
          .connect_attempts = 3,
          .connect_backoff = std::chrono::milliseconds(10)};
}

/// A blocking client built the way every blocking caller builds one: a
/// ClientChannel on its own reactor behind a SyncTransportAdapter.
struct SyncClient {
  explicit SyncClient(std::uint16_t port)
      : reactor(fast_options()),
        channel(reactor.open("127.0.0.1", port)),
        link(*channel) {}

  /// Connections the channel has opened so far. A broken stream is never
  /// reused, so each exchange after a failure shows up here as one more.
  [[nodiscard]] std::uint64_t connects() const {
    return reactor.counters().connects_established;
  }

  ClientReactor reactor;
  std::shared_ptr<ClientChannel> channel;
  SyncTransportAdapter link;
};

TEST(TcpClient, ExchangeRoundTripAndBothSidesCountFrameBytes) {
  FrameServer server([](std::span<const std::uint8_t> frame) {
    (void)decode_envelope(frame);  // must be a valid envelope
    return encode_ack();
  });
  SyncClient client(server.port());

  const auto request = BlindedReport{.participant = 1,
                                     .params = kParams,
                                     .cells = sample_cells()}
                           .encode(/*round=*/0);
  const auto ack = encode_ack();
  for (int i = 0; i < 3; ++i) {
    const auto reply = client.link.exchange(request);
    EXPECT_NO_THROW((void)expect_reply(reply, MsgKind::kAck));
  }
  EXPECT_EQ(client.connects(), 1u) << "one connection carries every exchange";

  // TransportStats count envelope bytes only — identical on both sides,
  // with the 4-byte prefix invisible (it is transport framing). The
  // adapter and the channel under it keep the same books.
  const TransportStats link_stats = client.link.stats();
  EXPECT_EQ(link_stats.messages_sent, 3u);
  EXPECT_EQ(link_stats.bytes_sent, 3 * request.size());
  EXPECT_EQ(link_stats.bytes_received, 3 * ack.size());
  const TransportStats channel_stats = client.channel->stats();
  EXPECT_EQ(channel_stats.messages_sent, link_stats.messages_sent);
  EXPECT_EQ(channel_stats.bytes_sent, link_stats.bytes_sent);
  EXPECT_EQ(channel_stats.bytes_received, link_stats.bytes_received);
  client.channel->close();
  wait_idle(server);
  const TransportStats server_stats = server.stats();
  EXPECT_EQ(server_stats.messages_received, 3u);
  EXPECT_EQ(server_stats.bytes_received, link_stats.bytes_sent);
  EXPECT_EQ(server_stats.bytes_sent, link_stats.bytes_received);
}

TEST(TcpClient, EmptyHandlerReplyArrivesAsEmptyFrame) {
  // A handler that returns nothing (the loopback "lost response" shape)
  // must surface client-side as an empty reply, not a hang or an error.
  FrameServer server(
      [](std::span<const std::uint8_t>) { return std::vector<std::uint8_t>{}; });
  SyncClient client(server.port());
  const auto reply = client.link.exchange(encode_ack());
  EXPECT_TRUE(reply.empty());
  EXPECT_THROW((void)expect_reply(reply, MsgKind::kAck), ProtoError);
  // The connection survives an empty reply (it is a legal frame).
  EXPECT_TRUE(client.link.exchange(encode_ack()).empty());
  EXPECT_EQ(client.connects(), 1u);
}

TEST(TcpClient, ConnectRetriesThenFailsWithInternal) {
  // Nothing listens on this socket's port once it is closed.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<struct sockaddr*>(&addr),
                          &len),
            0);
  const std::uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);

  SyncClient client(dead_port);
  EXPECT_EQ(code_of([&] { (void)client.link.exchange(encode_ack()); }),
            ErrorCode::kInternal);
  // Every one of the three attempts ran, two of them after a backoff.
  const ClientReactorCounters counters = client.reactor.counters();
  EXPECT_EQ(counters.connects_attempted, 3u);
  EXPECT_EQ(counters.connect_retries, 2u);
  EXPECT_EQ(counters.connects_established, 0u);
}

TEST(TcpClient, TruncatedReplyAtEveryByteBoundary) {
  const auto ack = encode_ack();
  const auto framed = raw::with_prefix(ack);
  std::atomic<std::size_t> cut{0};
  RawServer server([&](int fd) {
    (void)raw::read_framed(fd);  // consume the request
    const std::size_t keep = cut.load();
    EXPECT_TRUE(raw::send_all(
        fd, std::span<const std::uint8_t>(framed.data(), keep)));
    // close() in RawServer truncates the stream at `keep` bytes.
  });

  SyncClient client(server.port());
  for (std::size_t keep = 0; keep < framed.size(); ++keep) {
    cut.store(keep);
    if (keep == 0) {
      // EOF before any reply byte: the response is lost, not the framing
      // broken — empty reply, same as FaultPlan::kDropResponse.
      EXPECT_TRUE(client.link.exchange(ack).empty()) << "keep=" << keep;
    } else {
      // EOF mid-prefix or mid-body: kTruncated, never a hang or a bogus
      // frame.
      EXPECT_EQ(code_of([&] { (void)client.link.exchange(ack); }),
                ErrorCode::kTruncated)
          << "keep=" << keep;
    }
    // A broken stream is never reused: every exchange opened its own.
    EXPECT_EQ(client.connects(), keep + 1) << "keep=" << keep;
  }

  // The unmutilated reply still decodes.
  cut.store(framed.size());
  EXPECT_NO_THROW(
      (void)expect_reply(client.link.exchange(ack), MsgKind::kAck));
}

TEST(TcpClient, OversizedReplyLengthRejectedBeforeAllocation) {
  RawServer server([&](int fd) {
    (void)raw::read_framed(fd);
    const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};  // 4 GB declared
    EXPECT_TRUE(raw::send_all(fd, huge));
  });
  SyncClient client(server.port());
  for (std::uint64_t attempt = 1; attempt <= 2; ++attempt) {
    EXPECT_EQ(code_of([&] { (void)client.link.exchange(encode_ack()); }),
              ErrorCode::kOversized);
    // The stream past an unread body is unsynchronizable: the next
    // exchange must open a fresh connection.
    EXPECT_EQ(client.connects(), attempt);
  }
}

TEST(FrameServer, OversizedRequestLengthAnsweredWithErrorThenClosed) {
  FrameServer server(
      [](std::span<const std::uint8_t>) { return encode_ack(); });
  const int fd = raw::connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_TRUE(raw::send_all(fd, huge));
  const auto reply = raw::read_framed(fd);
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(code_of([&] { (void)expect_reply(reply, MsgKind::kAck); }),
            ErrorCode::kOversized);
  // The server closed the connection: the stream past an unread body is
  // unsynchronized.
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
}

TEST(FrameServer, StalledMidFrameConnectionDroppedAfterIoTimeout) {
  // A peer that starts a frame and stalls must be disconnected once
  // io_timeout expires — it cannot pin a connection slot forever.
  FrameServer server([](std::span<const std::uint8_t>) { return encode_ack(); },
                     {.io_timeout = std::chrono::milliseconds(150)});
  const int fd = raw::connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  const std::uint8_t partial[2] = {0x01, 0x00};  // 2 of 4 prefix bytes
  ASSERT_TRUE(raw::send_all(fd, partial));
  // ... then stall. The server must close the connection; recv observes
  // EOF well before the test times out.
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  wait_idle(server);
  ::close(fd);
}

TEST(FrameServer, DrippingFrameBodyDroppedAtAbsoluteDeadline) {
  // One byte per 100 ms is "progress" on every poll, but the io_timeout
  // deadline is absolute per frame: the drip must not extend it.
  FrameServer server([](std::span<const std::uint8_t>) { return encode_ack(); },
                     {.io_timeout = std::chrono::milliseconds(250)});
  const int fd = raw::connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  const std::uint8_t prefix[4] = {50, 0, 0, 0};  // declare a 50-byte body
  ASSERT_TRUE(raw::send_all(fd, prefix));
  int sent = 0;
  for (; sent < 50; ++sent) {
    std::uint8_t probe = 0;
    const ssize_t r = ::recv(fd, &probe, 1, MSG_DONTWAIT);
    if (r == 0) break;  // server dropped us
    const std::uint8_t byte = 0xab;
    if (::send(fd, &byte, 1, MSG_NOSIGNAL) <= 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_LT(sent, 50) << "server accepted a 5-second drip past a 250 ms "
                         "frame deadline";
  ::close(fd);
  wait_idle(server);
}

TEST(FrameServer, MalformedEnvelopeBytesAnsweredWithErrorFrame) {
  server::BackendServer backend(small_config());
  server::BackendEndpoint endpoint(backend);
  FrameServer server([&](std::span<const std::uint8_t> frame) {
    return endpoint.handle(frame);
  });
  SyncClient client(server.port());
  const std::vector<std::uint8_t> garbage{0xde, 0xad, 0xbe, 0xef};
  for (int i = 0; i < 2; ++i)
    EXPECT_EQ(code_of([&] {
                (void)expect_reply(client.link.exchange(garbage),
                                   MsgKind::kAck);
              }),
              ErrorCode::kBadMagic);
  // The connection stays usable — a decode failure is an answered error,
  // not a framing violation.
  EXPECT_EQ(client.connects(), 1u);
}

/// The parity check: the same FaultInjectingTransport plan must produce
/// the same observable ErrorCode whether the inner transport is loopback
/// or a real socket.
TEST(TcpClient, FaultPlanParityWithLoopback) {
  const BlindedReport report{
      .participant = 0, .params = kParams, .cells = sample_cells()};
  const auto frame = report.encode(0);

  const FaultPlan plans[] = {
      {.action = FaultPlan::Action::kTruncateRequest,
       .nth = 0,
       .offset = frame.size() - 3},
      {.action = FaultPlan::Action::kCorruptRequest, .nth = 0, .offset = 0},
      {.action = FaultPlan::Action::kDropResponse, .nth = 0},
  };

  for (const FaultPlan& plan : plans) {
    // Loopback oracle.
    server::BackendServer loop_backend(small_config());
    server::BackendEndpoint loop_endpoint(loop_backend);
    loop_backend.begin_round(0, 2);
    LoopbackTransport loop([&](std::span<const std::uint8_t> f) {
      return loop_endpoint.handle(f);
    });
    FaultInjectingTransport faulty_loop(loop, plan);
    const ErrorCode want = code_of([&] {
      (void)expect_reply(faulty_loop.exchange(frame), MsgKind::kAck);
    });

    // Same plan over a real socket.
    server::BackendServer tcp_backend(small_config());
    server::BackendEndpoint tcp_endpoint(tcp_backend);
    tcp_backend.begin_round(0, 2);
    FrameServer server([&](std::span<const std::uint8_t> f) {
      return tcp_endpoint.handle(f);
    });
    SyncClient tcp(server.port());
    FaultInjectingTransport faulty_tcp(tcp.link, plan);
    const ErrorCode got = code_of([&] {
      (void)expect_reply(faulty_tcp.exchange(frame), MsgKind::kAck);
    });

    EXPECT_EQ(got, want) << "plan action "
                         << static_cast<int>(plan.action);
    EXPECT_EQ(tcp_backend.reports_received(),
              loop_backend.reports_received())
        << "plan action " << static_cast<int>(plan.action);
  }
}

/// Peer disconnect during every phase of a full round: a server that dies
/// after its nth reply must surface as ProtoError on the operator side —
/// in whichever phase the cut lands, through a sync RemoteBackend (the
/// call that was cut throws) and a pipelined one (the next barrier
/// throws) — never as a hang or a bogus result.
TEST(TcpClient, PeerDisconnectDuringEachRoundPhase) {
  using client::BrowserExtension;
  const std::size_t n_clients = 4;
  // Exchange sequence of a full round over the control plane:
  //   0: begin-round, 1..4: reports, 5: missing-query, 6: finalize.
  const std::size_t cuts[] = {0, 2, 5, 6};

  for (const bool pipelined : {false, true}) {
    for (const std::size_t cut : cuts) {
      server::BackendCluster cluster(small_config(), 2);
      server::BackendEndpoint endpoint(cluster, /*serve_control=*/true);
      std::atomic<std::size_t> served{0};
      RawServer server([&](int fd) {
        for (;;) {
          const auto request = raw::read_framed(fd);
          if (request.empty()) return;
          if (served.fetch_add(1) == cut) return;  // die without replying
          const auto reply = endpoint.handle(request);
          if (!raw::send_all(fd, raw::with_prefix(reply))) return;
        }
      });

      client::HashUrlMapper mapper(small_config().id_space);
      const client::ExtensionConfig ecfg{
          .detector = {},
          .cms_params = kParams,
          .cms_hash_seed = small_config().cms_hash_seed};
      std::vector<BrowserExtension> exts;
      for (std::size_t u = 0; u < n_clients; ++u)
        exts.emplace_back(static_cast<core::UserId>(u), ecfg, mapper);

      util::Rng rng(4096);
      const crypto::DhGroup group = crypto::DhGroup::generate(rng, 128);
      SyncClient link(server.port());
      std::unique_ptr<server::RemoteBackend> remote =
          pipelined ? std::make_unique<server::RemoteBackend>(*link.channel,
                                                              small_config())
                    : std::make_unique<server::RemoteBackend>(link.link,
                                                              small_config());
      server::RoundCoordinator coordinator(
          group, std::span<BrowserExtension>(exts), *remote, /*seed=*/7);
      EXPECT_THROW((void)coordinator.run_full_round(0), ProtoError)
          << "cut=" << cut << " pipelined=" << pipelined;
    }
  }
}

}  // namespace
}  // namespace eyw::proto
