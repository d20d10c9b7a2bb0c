// The reactor transport's own invariants: incremental frame assembly at
// every chunking, hundreds of concurrent connections multiplexed onto a
// fixed thread budget (resident threads = shards + acceptor, never
// O(connections)), slow-loris isolation (a stalled half-frame is dropped
// at the deadline without slowing anyone else), admission control
// (Error(kUnavailable) past max_connections), pipelined requests
// answered in order, and a version-1 connection's one handler call in
// flight.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "proto/frame_assembler.hpp"
#include "proto/message.hpp"
#include "proto/raw_frame_io.hpp"
#include "proto/tcp.hpp"

namespace eyw::proto {
namespace {

using raw::connect_loopback;
using raw::process_threads;
using raw::read_framed;
using raw::with_prefix;

// ------------------------------------------------------------ assembler

TEST(FrameAssembler, ReassemblesAtEveryChunkSize) {
  // Three frames (one of them empty) in one byte stream, fed in chunks of
  // every size from 1 byte up: the emitted frames must be identical
  // regardless of where recv() happened to split the stream.
  const std::vector<std::uint8_t> f1{1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> f2{};
  const std::vector<std::uint8_t> f3(300, 0xab);
  std::vector<std::uint8_t> stream;
  for (const auto* f : {&f1, &f2, &f3}) {
    const auto framed = with_prefix(*f);
    stream.insert(stream.end(), framed.begin(), framed.end());
  }

  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    FrameAssembler asmbl(kMaxTcpFrameBytes);
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      const std::size_t n = std::min(chunk, stream.size() - off);
      ASSERT_TRUE(asmbl.feed(
          std::span<const std::uint8_t>(stream.data() + off, n)));
    }
    ASSERT_EQ(asmbl.frames_ready(), 3u) << "chunk=" << chunk;
    EXPECT_EQ(*asmbl.next(), f1) << "chunk=" << chunk;
    EXPECT_EQ(*asmbl.next(), f2) << "chunk=" << chunk;
    EXPECT_EQ(*asmbl.next(), f3) << "chunk=" << chunk;
    EXPECT_FALSE(asmbl.next().has_value());
    EXPECT_FALSE(asmbl.mid_frame());
    EXPECT_EQ(asmbl.frames_completed(), 3u);
  }
}

TEST(FrameAssembler, MidFrameTracksPartialPrefixAndBody) {
  FrameAssembler asmbl(kMaxTcpFrameBytes);
  EXPECT_FALSE(asmbl.mid_frame());
  const std::uint8_t half_prefix[2] = {5, 0};
  ASSERT_TRUE(asmbl.feed(half_prefix));
  EXPECT_TRUE(asmbl.mid_frame());  // partial prefix counts as started
  const std::uint8_t rest_prefix[2] = {0, 0};
  ASSERT_TRUE(asmbl.feed(rest_prefix));
  EXPECT_TRUE(asmbl.mid_frame());  // body of 5 declared, none arrived
  const std::uint8_t body[5] = {9, 9, 9, 9, 9};
  ASSERT_TRUE(asmbl.feed(std::span<const std::uint8_t>(body, 3)));
  EXPECT_TRUE(asmbl.mid_frame());
  ASSERT_TRUE(asmbl.feed(std::span<const std::uint8_t>(body + 3, 2)));
  EXPECT_FALSE(asmbl.mid_frame());
  EXPECT_EQ(asmbl.frames_ready(), 1u);
}

TEST(FrameAssembler, OversizedDeclaredLengthRefusedBeforeBody) {
  // Cap of 64: a prefix declaring 65 kills the stream — feed() refuses,
  // oversized() latches, and frames completed *before* the bad prefix
  // stay poppable.
  FrameAssembler asmbl(/*max_frame_bytes=*/64);
  const std::vector<std::uint8_t> good{1, 2, 3};
  auto stream = with_prefix(good);
  const std::uint8_t bad_prefix[4] = {65, 0, 0, 0};
  stream.insert(stream.end(), bad_prefix, bad_prefix + 4);

  EXPECT_FALSE(asmbl.feed(stream));
  EXPECT_TRUE(asmbl.oversized());
  EXPECT_EQ(*asmbl.next(), good);
  EXPECT_FALSE(asmbl.next().has_value());
  // Dead stream refuses all further input.
  const std::uint8_t more[1] = {0};
  EXPECT_FALSE(asmbl.feed(more));
  EXPECT_EQ(asmbl.frames_completed(), 1u);
}

TEST(FrameAssembler, FourGigabyteDeclarationDoesNotAllocate) {
  // The classic attack frame: 4 bytes declaring ~4 GiB. The assembler
  // must refuse on the declared value alone (allocating would OOM or trip
  // ASan allocator limits long before a 4-byte stream justifies it).
  FrameAssembler asmbl(kMaxTcpFrameBytes);
  const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};
  EXPECT_FALSE(asmbl.feed(huge));
  EXPECT_TRUE(asmbl.oversized());
  EXPECT_EQ(asmbl.frames_ready(), 0u);
}

// ------------------------------------------------------- multiplexing

void send_raw(int fd, std::span<const std::uint8_t> bytes) {
  ASSERT_TRUE(raw::send_all(fd, bytes));
}

void wait_idle(const FrameServer& server) {
  for (int i = 0; i < 5'000 && server.active_connections() != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(server.active_connections(), 0u);
}

TEST(Reactor, Serves256ConcurrentReportersOnOneShardSet) {
  constexpr std::size_t kConns = 256;
  constexpr int kRounds = 3;

  const std::size_t threads_before = process_threads();
  FrameServer server(
      [](std::span<const std::uint8_t> frame) {
        (void)decode_envelope(frame);  // must be a valid envelope
        return encode_ack();
      },
      {.backlog = 256, .reactor_shards = 1, .max_connections = 512});
  const std::size_t server_threads = process_threads() - threads_before;
  // The whole point of the reactor: thread budget is shards + acceptor,
  // independent of how many connections arrive below.
  EXPECT_EQ(server_threads, server.shards() + 1);

  std::vector<int> fds;
  fds.reserve(kConns);
  for (std::size_t i = 0; i < kConns; ++i) {
    const int fd = connect_loopback(server.port());
    ASSERT_GE(fd, 0) << "connection " << i;
    fds.push_back(fd);
  }

  const auto request = encode_oprf_key_query();  // small valid envelope
  const auto framed = with_prefix(request);
  const auto ack = encode_ack();
  for (int round = 0; round < kRounds; ++round) {
    // All 256 sockets hold an outstanding request at once — the server
    // must interleave them on its single shard thread.
    for (const int fd : fds) send_raw(fd, framed);
    for (const int fd : fds) {
      const auto reply = read_framed(fd);
      ASSERT_EQ(reply, ack);
    }
    // Still O(shards) threads with every connection established.
    EXPECT_EQ(process_threads() - threads_before, server.shards() + 1)
        << "round " << round;
  }

  EXPECT_EQ(server.connections_accepted(), kConns);
  EXPECT_EQ(server.active_connections(), kConns);
  for (const int fd : fds) ::close(fd);
  wait_idle(server);

  const FrameServerStats stats = server.stats();
  EXPECT_EQ(stats.messages_received, kConns * kRounds);
  EXPECT_EQ(stats.messages_sent, kConns * kRounds);
  EXPECT_EQ(stats.bytes_received, kConns * kRounds * request.size());
  EXPECT_EQ(stats.bytes_sent, kConns * kRounds * ack.size());
  // Reactor counters: every connection accounted for, none refused or
  // deadline-dropped under this healthy load, and the accept handovers
  // visible as cross-thread eventfd wakeups (fewer than kConns is normal:
  // posts landing while the loop is busy coalesce into one wakeup).
  EXPECT_EQ(stats.reactor.connections_accepted, kConns);
  EXPECT_EQ(stats.reactor.connections_refused, 0u);
  EXPECT_EQ(stats.reactor.deadline_drops, 0u);
  EXPECT_GT(stats.reactor.eventfd_wakeups, 0u);
}

TEST(Reactor, SlowLorisDroppedAtDeadlineWithoutStallingOthers) {
  FrameServer server(
      [](std::span<const std::uint8_t>) { return encode_ack(); },
      {.reactor_shards = 1,
       .io_timeout = std::chrono::milliseconds(200)});

  // The loris: opens a frame (half a prefix) and stalls forever.
  const int loris = connect_loopback(server.port());
  ASSERT_GE(loris, 0);
  const std::uint8_t half[2] = {0x10, 0x00};
  send_raw(loris, half);

  // A healthy client on the same (only) shard keeps exchanging the whole
  // time the loris is holding its half-frame; every round trip must stay
  // far below the loris deadline — the reactor never blocks on the
  // stalled socket.
  const int healthy = connect_loopback(server.port());
  ASSERT_GE(healthy, 0);
  const auto framed = with_prefix(encode_oprf_key_query());
  const auto start = std::chrono::steady_clock::now();
  int exchanges = 0;
  while (std::chrono::steady_clock::now() - start <
         std::chrono::milliseconds(400)) {
    const auto t0 = std::chrono::steady_clock::now();
    send_raw(healthy, framed);
    ASSERT_FALSE(read_framed(healthy).empty());
    const auto rtt = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(rtt, std::chrono::milliseconds(100))
        << "exchange " << exchanges << " stalled behind the loris";
    ++exchanges;
  }
  EXPECT_GT(exchanges, 3);

  // The loris was dropped at its deadline (EOF), the healthy connection
  // survives — and the drop is visible in the reactor counters.
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(loris, &byte, 1, 0), 0);
  send_raw(healthy, framed);
  EXPECT_FALSE(read_framed(healthy).empty());
  EXPECT_EQ(server.stats().reactor.deadline_drops, 1u);
  ::close(loris);
  ::close(healthy);
  wait_idle(server);
}

TEST(Reactor, ConnectionsPastCapRefusedWithUnavailable) {
  FrameServer server(
      [](std::span<const std::uint8_t>) { return encode_ack(); },
      {.reactor_shards = 1, .max_connections = 2});

  // Fill the two slots and prove they are live (an exchange each, so the
  // acceptor has definitely admitted them).
  const int a = connect_loopback(server.port());
  const int b = connect_loopback(server.port());
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  const auto framed = with_prefix(encode_oprf_key_query());
  for (const int fd : {a, b}) {
    send_raw(fd, framed);
    ASSERT_FALSE(read_framed(fd).empty());
  }

  // The third connection is answered Error(kUnavailable) and closed —
  // an explicit machine-readable refusal, not a silent stall.
  const int c = connect_loopback(server.port());
  ASSERT_GE(c, 0);
  const auto reply = read_framed(c);
  ASSERT_FALSE(reply.empty());
  try {
    (void)expect_reply(reply, MsgKind::kAck);
    FAIL() << "over-cap connection was served";
  } catch (const ProtoError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnavailable);
  }
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(c, &byte, 1, 0), 0);  // closed after the refusal
  ::close(c);
  EXPECT_EQ(server.connections_refused(), 1u);

  // Freeing a slot re-opens admission.
  ::close(a);
  for (int i = 0; i < 2'000 && server.active_connections() != 1; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const int d = connect_loopback(server.port());
  ASSERT_GE(d, 0);
  send_raw(d, framed);
  EXPECT_FALSE(read_framed(d).empty());
  ::close(b);
  ::close(d);
  wait_idle(server);
}

TEST(Reactor, PipelinedRequestsAnsweredInOrder) {
  // The incremental assembler lets a client ship several frames in one
  // write; replies must come back complete and in request order.
  std::atomic<int> counter{0};
  FrameServer server(
      [&](std::span<const std::uint8_t> frame) {
        (void)decode_envelope(frame);
        return ErrorReply{.code = ErrorCode::kOk,
                          .detail = std::to_string(
                              counter.fetch_add(1, std::memory_order_relaxed))}
            .encode();
      },
      {.reactor_shards = 1});

  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  std::vector<std::uint8_t> batch;
  constexpr int kPipelined = 8;
  for (int i = 0; i < kPipelined; ++i) {
    const auto framed = with_prefix(encode_oprf_key_query());
    batch.insert(batch.end(), framed.begin(), framed.end());
  }
  send_raw(fd, batch);
  for (int i = 0; i < kPipelined; ++i) {
    const auto reply = read_framed(fd);
    ASSERT_FALSE(reply.empty()) << "reply " << i;
    const ErrorReply decoded = ErrorReply::decode(decode_envelope(reply));
    EXPECT_EQ(decoded.detail, std::to_string(i)) << "out-of-order reply";
  }
  ::close(fd);
  wait_idle(server);
}

TEST(Reactor, Version1ConnectionHoldsOneHandlerCallInFlight) {
  // A connection that never negotiated mux invokes the handler for its
  // next frame only once the previous frame's completion fired (a
  // pipelined RemoteBackend relies on it across dispatch lanes). The
  // synchronous handler above completes inline and cannot show an
  // overlap; this one withholds every completion until the test releases
  // it, and records any call made while one is still outstanding. The
  // frames behind it wait in the socket, never in a stream queue: a
  // backlog bound of 1 would shed them if they did.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::uint64_t, CompletionFn>> held;
  int calls = 0;
  bool outstanding = false;
  bool overlap = false;
  FrameServer server(
      [&](std::vector<std::uint8_t> frame, CompletionFn done) {
        const std::uint64_t round = decode_envelope(frame).round;
        std::lock_guard<std::mutex> lock(mu);
        if (outstanding) overlap = true;
        outstanding = true;
        ++calls;
        held.emplace_back(round, std::move(done));
        cv.notify_all();
      },
      {.reactor_shards = 1, .max_stream_backlog = 1});

  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  constexpr int kPipelined = 8;
  std::vector<std::uint8_t> batch;
  for (int i = 0; i < kPipelined; ++i) {
    const auto framed = with_prefix(encode_envelope(
        MsgKind::kOprfKeyQuery, 0, static_cast<std::uint64_t>(i), {}));
    batch.insert(batch.end(), framed.begin(), framed.end());
  }
  send_raw(fd, batch);  // all eight frames in one send

  for (int i = 0; i < kPipelined; ++i) {
    CompletionFn done;
    {
      std::unique_lock<std::mutex> lock(mu);
      ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                              [&] { return calls > i; }))
          << "no handler call for frame " << i;
    }
    // Leave a wrongly overlapping server time to call again.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
      std::lock_guard<std::mutex> lock(mu);
      ASSERT_EQ(calls, i + 1) << "more than one new call per release";
      EXPECT_EQ(held.front().first, static_cast<std::uint64_t>(i));
      done = std::move(held.front().second);
      held.pop_front();
      outstanding = false;
    }
    done(ErrorReply{.code = ErrorCode::kOk, .detail = std::to_string(i)}
             .encode());
    const auto reply = read_framed(fd);
    ASSERT_FALSE(reply.empty()) << "reply " << i;
    EXPECT_EQ(ErrorReply::decode(decode_envelope(reply)).detail,
              std::to_string(i))
        << "out-of-order reply";
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_FALSE(overlap) << "handler called with a completion outstanding";
  }
  ::close(fd);
  wait_idle(server);
}

}  // namespace
}  // namespace eyw::proto
