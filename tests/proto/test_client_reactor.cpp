// The client reactor's own invariants: pipelined exchanges on one
// connection correlate completions to requests even when completions and
// later submissions interleave, per-exchange deadlines fail a stalled
// exchange (and the connection under it) without wedging the channel,
// connect retry/backoff is jittered but deterministic, the sync adapter
// gives Transport users unchanged blocking semantics, EINTR never breaks
// the raw frame loops, and — the headline — one process drives a
// 1024-reporter swarm with resident client-side threads == reactor
// shards, asserted from /proc, finishing a round bit-identical to the
// same submissions applied in-process.
#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "proto/backoff.hpp"
#include "proto/client_reactor.hpp"
#include "proto/message.hpp"
#include "proto/raw_frame_io.hpp"
#include "proto/tcp.hpp"
#include "server/cluster.hpp"
#include "server/deployment.hpp"
#include "server/remote_backend.hpp"

namespace eyw::proto {
namespace {

using raw::process_threads;

/// Collects one exchange outcome and lets a test thread wait for it.
struct Caught {
  std::mutex mu;
  std::condition_variable cv;
  AsyncResult result;
  bool done = false;

  AsyncCompletionFn sink() {
    return [this](AsyncResult r) {
      std::lock_guard<std::mutex> lock(mu);
      result = std::move(r);
      done = true;
      cv.notify_one();
    };
  }

  AsyncResult wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    return std::move(result);
  }
};

// ------------------------------------------------------------ pipelining

TEST(ClientReactor, PipelinedExchangesCorrelateInSubmissionOrder) {
  // The server tags each reply with its dispatch sequence number; sixteen
  // exchanges pipelined on one connection must complete in submission
  // order, each seeing its own position — while earlier completions fire
  // with later exchanges still in flight (out-of-order completion
  // relative to the *last* submission, which the FIFO must tolerate).
  std::atomic<int> seq{0};
  FrameServer server(
      [&](std::span<const std::uint8_t> frame) {
        (void)decode_envelope(frame);
        return ErrorReply{.code = ErrorCode::kOk,
                          .detail = std::to_string(
                              seq.fetch_add(1, std::memory_order_relaxed))}
            .encode();
      },
      {.reactor_shards = 1});

  ClientReactor reactor({.shards = 1});
  auto channel = reactor.open("127.0.0.1", server.port());

  constexpr int kPipelined = 16;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> completions;  // details, in completion order
  for (int i = 0; i < kPipelined; ++i) {
    channel->exchange_async(
        encode_oprf_key_query(), [&](AsyncResult r) {
          ASSERT_TRUE(r.ok());
          const ErrorReply reply =
              ErrorReply::decode(decode_envelope(r.reply));
          std::lock_guard<std::mutex> lock(mu);
          completions.push_back(reply.detail);
          cv.notify_one();
        });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] {
      return completions.size() == static_cast<std::size_t>(kPipelined);
    });
  }
  for (int i = 0; i < kPipelined; ++i)
    EXPECT_EQ(completions[static_cast<std::size_t>(i)], std::to_string(i))
        << "completion " << i << " correlated to the wrong request";

  const TransportStats stats = channel->stats();
  EXPECT_EQ(stats.messages_sent, static_cast<std::uint64_t>(kPipelined));
  EXPECT_EQ(stats.messages_received, static_cast<std::uint64_t>(kPipelined));
}

TEST(ClientReactor, ExchangeSubmittedFromCompletionReusesTheConnection) {
  // Chaining from inside a completion (the natural async style) must be
  // legal: submit-on-complete five levels deep, one connection.
  FrameServer server(
      [](std::span<const std::uint8_t> frame) {
        (void)decode_envelope(frame);
        return encode_ack();
      },
      {.reactor_shards = 1});
  ClientReactor reactor({.shards = 1});
  auto channel = reactor.open("127.0.0.1", server.port());

  std::mutex mu;
  std::condition_variable cv;
  int completed = 0;
  std::function<void(int)> chain = [&](int depth) {
    channel->exchange_async(encode_oprf_key_query(), [&, depth](AsyncResult r) {
      ASSERT_TRUE(r.ok());
      (void)expect_reply(r.reply, MsgKind::kAck);
      if (depth > 1) chain(depth - 1);
      std::lock_guard<std::mutex> lock(mu);
      ++completed;
      cv.notify_one();
    });
  };
  chain(5);
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return completed == 5; });
  EXPECT_EQ(channel->stats().messages_sent, 5u);
  EXPECT_EQ(server.stats().reactor.connections_accepted, 1u);
}

TEST(ClientReactor, ReleasedChannelsAreReclaimed) {
  // A long-lived reactor opening short-lived channels must not
  // accumulate sockets: dropping the last ClientChannel reference closes
  // the connection (once in-flight completions fired) and frees the
  // per-channel state.
  FrameServer server([](std::span<const std::uint8_t> frame) {
    (void)decode_envelope(frame);
    return encode_ack();
  });
  ClientReactor reactor({.shards = 1});
  for (int i = 0; i < 8; ++i) {
    auto channel = reactor.open("127.0.0.1", server.port());
    SyncTransportAdapter link(*channel);
    (void)link.exchange(encode_oprf_key_query());
    EXPECT_GE(server.active_connections(), 1u);
  }  // facade dropped each iteration: connection must go away
  for (int i = 0; i < 2'000 && server.active_connections() != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(server.active_connections(), 0u);
  EXPECT_EQ(server.stats().reactor.connections_accepted, 8u);
  EXPECT_EQ(reactor.counters().exchanges_completed, 8u);

  // The reactor itself is still healthy for new channels.
  auto channel = reactor.open("127.0.0.1", server.port());
  SyncTransportAdapter link(*channel);
  EXPECT_FALSE(link.exchange(encode_oprf_key_query()).empty());
}

// -------------------------------------------------------------- deadlines

TEST(ClientReactor, DeadlineFailsStalledExchangeAndChannelRecovers) {
  // The server answers the first frame, withholds the second's completion
  // forever: the client's per-exchange deadline must fail exchanges 2 and
  // 3 (the stream past a timed-out reply is unsynchronizable), count a
  // deadline drop, and a later exchange must transparently reconnect.
  std::atomic<int> count{0};
  std::mutex held_mu;
  std::vector<CompletionFn> held;  // withheld completions (released at end)
  FrameServer server(
      [&](std::vector<std::uint8_t> frame, CompletionFn done) {
        (void)frame;
        if (count.fetch_add(1, std::memory_order_relaxed) == 1) {
          std::lock_guard<std::mutex> lock(held_mu);
          held.push_back(std::move(done));  // never answered
          return;
        }
        done(encode_ack());
      },
      {.reactor_shards = 1});

  ClientReactor reactor(
      {.shards = 1, .io_timeout = std::chrono::milliseconds(200)});
  auto channel = reactor.open("127.0.0.1", server.port());

  Caught first, second, third;
  channel->exchange_async(encode_oprf_key_query(), first.sink());
  channel->exchange_async(encode_oprf_key_query(), second.sink());
  channel->exchange_async(encode_oprf_key_query(), third.sink());

  const AsyncResult r1 = first.wait();
  ASSERT_TRUE(r1.ok());
  (void)expect_reply(r1.reply, MsgKind::kAck);

  for (Caught* caught : {&second, &third}) {
    const AsyncResult r = caught->wait();
    ASSERT_FALSE(r.ok());
    try {
      std::rethrow_exception(r.error);
    } catch (const ProtoError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInternal);
      EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
    }
  }
  EXPECT_GE(reactor.counters().deadline_drops, 1u);

  // The channel reconnects for the next exchange.
  Caught fourth;
  channel->exchange_async(encode_oprf_key_query(), fourth.sink());
  const AsyncResult r4 = fourth.wait();
  ASSERT_TRUE(r4.ok());
  (void)expect_reply(r4.reply, MsgKind::kAck);
  EXPECT_GE(reactor.counters().connects_established, 2u);
}

// --------------------------------------------------------- connect/backoff

TEST(ClientReactor, ConnectRetriesWithBackoffUntilServerAppears) {
  // Reserve a port, start the client against it with nothing listening,
  // then bring the server up: queued exchanges must complete once a retry
  // lands, with the retries visible in the counters.
  std::uint16_t port = 0;
  {
    FrameServer probe([](std::span<const std::uint8_t>) {
      return encode_ack();
    });
    port = probe.port();
  }  // port released; nothing listens on it now

  ClientReactor reactor({.shards = 1,
                         .connect_timeout = std::chrono::milliseconds(200),
                         .connect_attempts = 20,
                         .connect_backoff = std::chrono::milliseconds(20)});
  auto channel = reactor.open("127.0.0.1", port);
  Caught caught;
  channel->exchange_async(encode_oprf_key_query(), caught.sink());

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  FrameServer server(
      [](std::span<const std::uint8_t>) { return encode_ack(); },
      {.port = port});
  const AsyncResult r = caught.wait();
  ASSERT_TRUE(r.ok());
  (void)expect_reply(r.reply, MsgKind::kAck);
  EXPECT_GE(reactor.counters().connect_retries, 1u);
  EXPECT_EQ(reactor.counters().connects_established, 1u);
}

TEST(ClientReactor, ExchangeFailsAfterConnectAttemptsExhausted) {
  std::uint16_t port = 0;
  {
    FrameServer probe([](std::span<const std::uint8_t>) {
      return encode_ack();
    });
    port = probe.port();
  }
  ClientReactor reactor({.shards = 1,
                         .connect_attempts = 2,
                         .connect_backoff = std::chrono::milliseconds(5)});
  auto channel = reactor.open("127.0.0.1", port);
  Caught caught;
  channel->exchange_async(encode_oprf_key_query(), caught.sink());
  const AsyncResult r = caught.wait();
  ASSERT_FALSE(r.ok());
  try {
    std::rethrow_exception(r.error);
  } catch (const ProtoError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
    EXPECT_NE(std::string(e.what()).find("failed after"), std::string::npos);
  }
}

TEST(Backoff, JitterIsDeterministicPerSeedAndBounded) {
  using Millis = std::chrono::milliseconds;
  std::uint64_t a = 17, b = 17, c = 18;
  std::vector<Millis> seq_a, seq_b, seq_c;
  for (int i = 0; i < 64; ++i) {
    seq_a.push_back(jittered_backoff(Millis(100), a));
    seq_b.push_back(jittered_backoff(Millis(100), b));
    seq_c.push_back(jittered_backoff(Millis(100), c));
  }
  EXPECT_EQ(seq_a, seq_b);  // same seed, same delays: tests reproducible
  EXPECT_NE(seq_a, seq_c);  // different seed, different wave
  for (const Millis d : seq_a) {
    EXPECT_GE(d, Millis(50));
    EXPECT_LE(d, Millis(150));
  }
  // Zero base stays zero: jitter cannot invent a wait.
  std::uint64_t z = 1;
  EXPECT_EQ(jittered_backoff(Millis(0), z), Millis(0));
}

// ------------------------------------------------------------ sync adapter

TEST(SyncTransportAdapter, ChannelErrorSurfacesAsThrownProtoError) {
  // Nothing listening and one connect attempt: the async failure must
  // come out of the blocking call as the thrown ProtoError every
  // Transport user expects.
  std::uint16_t port = 0;
  {
    FrameServer probe([](std::span<const std::uint8_t>) {
      return encode_ack();
    });
    port = probe.port();
  }
  ClientReactor reactor({.shards = 1,
                         .connect_attempts = 1,
                         .connect_backoff = std::chrono::milliseconds(1)});
  auto channel = reactor.open("127.0.0.1", port);
  SyncTransportAdapter adapted(*channel);
  try {
    (void)adapted.exchange(encode_oprf_key_query());
    FAIL() << "exchange over a dead port succeeded";
  } catch (const ProtoError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
  }
}

// ------------------------------------------------------------------ EINTR

extern "C" void eintr_noop_handler(int) {}

/// Install a no-op SIGUSR1 handler *without* SA_RESTART, so a landing
/// signal makes blocking send/recv return EINTR instead of resuming —
/// the exact condition the raw_frame_io loops must absorb.
void install_eintr_handler() {
  struct sigaction sa {};
  sa.sa_handler = eintr_noop_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART
  ASSERT_EQ(sigaction(SIGUSR1, &sa, nullptr), 0);
}

TEST(RawFrameIo, ReadFramedSurvivesEintrStorm) {
  install_eintr_handler();
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  std::vector<std::uint8_t> frame(64 * 1024);
  for (std::size_t i = 0; i < frame.size(); ++i)
    frame[i] = static_cast<std::uint8_t>(i * 131);
  const auto framed = raw::with_prefix(frame);

  std::vector<std::uint8_t> got;
  std::thread reader([&] { got = raw::read_framed(sv[0]); });
  const pthread_t reader_handle = reader.native_handle();

  // Dribble the frame in small chunks, bombarding the blocked reader with
  // signals between chunks so recv() keeps being interrupted mid-wait.
  std::size_t off = 0;
  while (off < framed.size()) {
    for (int k = 0; k < 8; ++k) (void)pthread_kill(reader_handle, SIGUSR1);
    const std::size_t n = std::min<std::size_t>(4096, framed.size() - off);
    ASSERT_TRUE(raw::send_all(
        sv[1], std::span<const std::uint8_t>(framed.data() + off, n)));
    off += n;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  reader.join();
  EXPECT_EQ(got, frame);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(RawFrameIo, SendAllSurvivesEintrAgainstSlowReader) {
  install_eintr_handler();
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // Shrink the send buffer so send_all actually blocks on the slow reader
  // (and so EINTR interrupts a *waiting* send, not an instant one).
  const int small = 4096;
  (void)::setsockopt(sv[1], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));

  std::vector<std::uint8_t> frame(256 * 1024);
  for (std::size_t i = 0; i < frame.size(); ++i)
    frame[i] = static_cast<std::uint8_t>(i * 29);
  const auto framed = raw::with_prefix(frame);

  std::atomic<bool> sent_ok{false};
  std::thread writer(
      [&] { sent_ok.store(raw::send_all(sv[1], framed)); });
  const pthread_t writer_handle = writer.native_handle();

  std::vector<std::uint8_t> got;
  std::uint8_t buf[1024];
  while (got.size() < framed.size()) {
    for (int k = 0; k < 4; ++k) (void)pthread_kill(writer_handle, SIGUSR1);
    const ssize_t n = ::recv(sv[0], buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0);
    got.insert(got.end(), buf, buf + n);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  writer.join();
  EXPECT_TRUE(sent_ok.load());
  EXPECT_EQ(got, framed);
  ::close(sv[0]);
  ::close(sv[1]);
}

// ------------------------------------------------------------- the swarm

TEST(ClientReactor, ThousandReporterSwarmOnTwoThreadsBitIdenticalRound) {
  // The acceptance test of the outbound refactor, both ends in this
  // process: the deployed server stack (server::Deployment, admitting the
  // whole swarm) and 1024 reporter channels plus a pipelined control
  // channel on a 2-shard client reactor. Client thread budget is measured
  // from /proc around the reactor's lifetime; the finalized aggregate must
  // equal the same 1024 submissions applied to an in-process cluster, bit
  // for bit; and both sides' reactor counters must account for every
  // connection and every frame.
  constexpr std::size_t kReporters = 1024;
  const server::BackendConfig config{
      .cms_params = {.depth = 4, .width = 64},
      .cms_hash_seed = 9,
      .id_space = 2'000,
      .users_rule = core::ThresholdRule::kMean};

  server::Deployment deployment(
      {.config = config, .max_connections = kReporters + 8});

  const auto make_cells = [&](std::size_t i) {
    std::vector<std::uint32_t> cells(config.cms_params.cells());
    for (std::size_t c = 0; c < cells.size(); ++c)
      cells[c] = static_cast<std::uint32_t>(i * 40503u + c * 7u);
    return cells;
  };

  const std::size_t threads_before = process_threads();
  std::size_t threads_at_teardown = 0;
  std::size_t reactor_shards = 0;
  {
    ClientReactor reactor({.shards = 2, .backoff_jitter_seed = 99});
    reactor_shards = reactor.shards();
    EXPECT_EQ(process_threads() - threads_before, reactor.shards())
        << "client reactor spawned threads beyond its shards";

    auto control = reactor.open("127.0.0.1", deployment.port());
    server::RemoteBackend remote(*control, config);
    remote.begin_round(/*round=*/7, kReporters);

    std::vector<std::shared_ptr<ClientChannel>> channels;
    channels.reserve(kReporters);
    for (std::size_t i = 0; i < kReporters; ++i)
      channels.push_back(reactor.open("127.0.0.1", deployment.port()));

    std::mutex mu;
    std::condition_variable cv;
    std::size_t done = 0;
    std::atomic<std::size_t> acked{0};
    for (std::size_t i = 0; i < kReporters; ++i) {
      const auto frame = BlindedReport{
          .participant = static_cast<std::uint32_t>(i),
          .params = config.cms_params,
          .cells = make_cells(i)}
                             .encode(/*round=*/7);
      channels[i]->exchange_async(frame, [&](AsyncResult r) {
        if (r.ok()) {
          try {
            (void)expect_reply(r.reply, MsgKind::kAck);
            acked.fetch_add(1, std::memory_order_relaxed);
          } catch (const ProtoError&) {
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        ++done;
        cv.notify_one();
      });
    }

    // Every reporter has its exchange in flight: the thread budget claim,
    // measured at full load. Client-side resident threads == shards.
    EXPECT_EQ(process_threads() - threads_before, reactor.shards())
        << "client-side threads grew with connection count";

    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done == kReporters; });
    }
    EXPECT_EQ(acked.load(), kReporters);
    EXPECT_EQ(process_threads() - threads_before, reactor.shards());

    // (finalize below fans the id-space scan across the process-wide
    // shared ThreadPool — those threads are permanent and not the
    // transport's, so the thread-budget checks all happen before it.)
    EXPECT_TRUE(remote.missing_participants().empty());
    const server::RoundResult got = remote.finalize_round();

    // Reference: identical submissions, in-process. Bit-identical or the
    // transport was observable.
    server::BackendCluster reference(config, 2);
    reference.begin_round(/*round=*/7, kReporters);
    for (std::size_t i = 0; i < kReporters; ++i)
      reference.submit_report(i, make_cells(i));
    const server::RoundResult want = reference.finalize_round();
    const auto want_cells = want.aggregate.cells();
    const auto got_cells = got.aggregate.cells();
    ASSERT_EQ(want_cells.size(), got_cells.size());
    for (std::size_t c = 0; c < want_cells.size(); ++c)
      ASSERT_EQ(want_cells[c], got_cells[c]) << "cell " << c;
    EXPECT_EQ(want.users_threshold, got.users_threshold);
    EXPECT_EQ(want.distribution.histogram(), got.distribution.histogram());
    EXPECT_EQ(got.reports, kReporters);

    // Counters, both ends: every connection accounted, nothing refused,
    // nothing deadline-dropped, and the cross-thread marshalling shows up
    // as eventfd wakeups on both reactors.
    const ClientReactorCounters cc = reactor.counters();
    EXPECT_EQ(cc.connects_established, kReporters + 1);
    EXPECT_EQ(cc.exchanges_started,
              kReporters + 1 /*begin*/ + 1 /*missing*/ + 1 /*finalize*/);
    EXPECT_EQ(cc.exchanges_completed, cc.exchanges_started);
    EXPECT_EQ(cc.exchanges_failed, 0u);
    EXPECT_EQ(cc.deadline_drops, 0u);
    EXPECT_GT(cc.eventfd_wakeups, 0u);

    const FrameServerStats ss = deployment.server().stats();
    EXPECT_EQ(ss.reactor.connections_accepted, kReporters + 1);
    EXPECT_EQ(ss.reactor.connections_refused, 0u);
    EXPECT_EQ(ss.reactor.deadline_drops, 0u);
    EXPECT_GT(ss.reactor.eventfd_wakeups, 0u);
    EXPECT_EQ(ss.messages_received, cc.exchanges_started);
    std::uint64_t client_bytes_sent = control->stats().bytes_sent;
    for (const auto& ch : channels)
      client_bytes_sent += ch->stats().bytes_sent;
    EXPECT_EQ(ss.bytes_received, client_bytes_sent);

    threads_at_teardown = process_threads();
  }
  // Reactor destroyed: exactly its shard threads are gone again.
  for (int i = 0;
       i < 2'000 && process_threads() != threads_at_teardown - reactor_shards;
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(process_threads(), threads_at_teardown - reactor_shards);
}

}  // namespace
}  // namespace eyw::proto
