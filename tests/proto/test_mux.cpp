// PR 9's multiplexing layer, bottom to top: the version-2 stream
// envelope (in-place add/strip round trips, truncation at every byte
// boundary, negative decodes), Hello capability negotiation, the
// retry-after hint on ErrorReply, dispatcher-lane overload shedding, and
// the end-to-end contract — many logical streams on one socket with
// per-stream FIFO correlation, sibling-stream independence under a
// stalled handler, deterministic sheds at the stream-id cap and the
// per-stream backlog bound, transparent client retry of hinted sheds, an
// over-cap stream frame refused locally without touching its siblings,
// graceful degradation against a pre-Hello peer, and a mux swarm
// finishing a round bit-identical to the same submissions applied
// in-process and to the same swarm with one connection per reporter.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "proto/client_reactor.hpp"
#include "proto/message.hpp"
#include "proto/raw_frame_io.hpp"
#include "proto/tcp.hpp"
#include "proto/wire.hpp"
#include "server/cluster.hpp"
#include "server/deployment.hpp"
#include "server/dispatcher.hpp"
#include "server/endpoint.hpp"
#include "server/remote_backend.hpp"

namespace eyw::proto {
namespace {

const sketch::CmsParams kParams{.depth = 2, .width = 8};

std::vector<std::uint32_t> sample_cells() {
  std::vector<std::uint32_t> cells(kParams.cells());
  for (std::size_t i = 0; i < cells.size(); ++i)
    cells[i] = static_cast<std::uint32_t>(0x2000 + i * 13);
  return cells;
}

std::vector<std::uint8_t> sample_v1_frame() {
  return BlindedReport{
      .participant = 3, .params = kParams, .cells = sample_cells()}
      .encode(/*round=*/5);
}

ErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ProtoError& e) {
    return e.code();
  }
  return ErrorCode::kOk;
}

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

// --------------------------------------------------- the stream envelope

// The transforms under test are the in-place forms the production paths
// run: the server's read path (strip_stream_inplace) and reply path
// (add_stream_inplace), and the client's send path
// (mux_frame_with_prefix_inplace).

TEST(MuxEnvelope, AddStripRoundTripIsByteIdentical) {
  const auto v1 = sample_v1_frame();
  EXPECT_EQ(peek_stream(v1), 0u);  // legacy frames ride the zero lane

  auto v2 = sample_v1_frame();
  const std::uint8_t* const buffer = v2.data();
  add_stream_inplace(v2, /*stream=*/7);
  EXPECT_EQ(v2.data(), buffer)
      << "encoder headroom makes the wrap allocation-free";
  ASSERT_EQ(v2.size(), v1.size() + 4);
  EXPECT_EQ(v2[4], 2);  // version byte patched
  EXPECT_EQ(peek_stream(v2), 7u);
  // Every field an old decoder peeks before the version check sits at the
  // same offset in both versions.
  EXPECT_EQ(peek_kind(v2), peek_kind(v1));
  EXPECT_EQ(peek_sender(v2), peek_sender(v1));

  const Envelope env = decode_envelope(v2);
  EXPECT_EQ(env.stream, 7u);
  EXPECT_EQ(env.kind, MsgKind::kBlindedReport);
  EXPECT_EQ(env.round, 5u);
  EXPECT_EQ(env.payload, decode_envelope(v1).payload);

  // The client's one-pass send form is exactly the length prefix in front
  // of what add_stream_inplace produces.
  auto framed = sample_v1_frame();
  const std::uint8_t* const framed_buffer = framed.data();
  mux_frame_with_prefix_inplace(framed, /*stream=*/7);
  EXPECT_EQ(framed.data(), framed_buffer);
  EXPECT_EQ(framed, raw::with_prefix(v2));

  auto stripped = v2;
  EXPECT_EQ(strip_stream_inplace(stripped), 7u);
  EXPECT_EQ(stripped, v1) << "round trip must be byte-identical";

  // A version-1 input passes the strip through unchanged.
  auto pass = v1;
  EXPECT_EQ(strip_stream_inplace(pass), 0u);
  EXPECT_EQ(pass, v1);
}

TEST(MuxEnvelope, TruncationAtEveryByteBoundary) {
  auto v2 = sample_v1_frame();
  add_stream_inplace(v2, /*stream=*/9);
  for (std::size_t cut = 0; cut < v2.size(); ++cut) {
    std::vector<std::uint8_t> clipped(
        v2.begin(), v2.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)decode_envelope(clipped), ProtoError) << "cut=" << cut;
    if (cut < kMuxEnvelopeHeaderBytes) {
      // The strip needs the full 28-byte header, and a refused frame is
      // left exactly as it was (the server recycles it untouched).
      const auto before = clipped;
      EXPECT_THROW((void)strip_stream_inplace(clipped), ProtoError)
          << "strip cut=" << cut;
      EXPECT_EQ(clipped, before) << "strip cut=" << cut;
    } else {
      // Past the header, the strip is a pure byte transform (the
      // connection layer only ever feeds it complete frames); the length
      // mismatch must still die loudly in the downstream decode.
      EXPECT_EQ(strip_stream_inplace(clipped), 9u) << "strip cut=" << cut;
      EXPECT_THROW((void)decode_envelope(clipped), ProtoError)
          << "stripped cut=" << cut;
    }
  }
  EXPECT_NO_THROW((void)decode_envelope(v2));
}

TEST(MuxEnvelope, NegativeDecodes) {
  // Each transform that refuses its input must leave it unchanged.
  const auto refuses = [](std::vector<std::uint8_t> frame,
                          const auto& transform) {
    const auto before = frame;
    const ErrorCode code = code_of([&] { transform(frame); });
    EXPECT_EQ(frame, before) << "frame changed on throw";
    return code;
  };
  const auto strip = [](std::vector<std::uint8_t>& f) {
    (void)strip_stream_inplace(f);
  };
  const auto add = [](std::vector<std::uint8_t>& f) {
    add_stream_inplace(f, 2);
  };
  const auto send_form = [](std::vector<std::uint8_t>& f) {
    mux_frame_with_prefix_inplace(f, 2);
  };

  // Version 3 does not exist — 2 is the highest the catalogue speaks.
  auto frame = sample_v1_frame();
  frame[4] = 3;
  EXPECT_EQ(code_of([&] { (void)decode_envelope(frame); }),
            ErrorCode::kBadVersion);
  EXPECT_EQ(refuses(frame, strip), ErrorCode::kBadVersion);
  EXPECT_EQ(peek_stream(frame), std::nullopt);

  // A version byte patched to 2 without the stream id inserted: the
  // 4 bytes the longer header claims are missing from the tail.
  frame = sample_v1_frame();
  frame[4] = 2;
  EXPECT_EQ(code_of([&] { (void)decode_envelope(frame); }),
            ErrorCode::kTruncated);

  // Trailing garbage after a valid version-2 frame.
  auto v2 = sample_v1_frame();
  add_stream_inplace(v2, /*stream=*/1);
  auto trailing = v2;
  trailing.push_back(0xee);
  EXPECT_EQ(code_of([&] { (void)decode_envelope(trailing); }),
            ErrorCode::kTrailingBytes);

  // The wrapping transforms refuse anything that is not a version-1
  // frame.
  EXPECT_EQ(refuses(v2, add), ErrorCode::kBadVersion);
  EXPECT_EQ(refuses(v2, send_form), ErrorCode::kBadVersion);
  const std::vector<std::uint8_t> shorty{0x45, 0x59, 0x57};
  EXPECT_EQ(refuses(shorty, add), ErrorCode::kTruncated);
  EXPECT_EQ(refuses(shorty, send_form), ErrorCode::kTruncated);
  EXPECT_EQ(refuses(shorty, strip), ErrorCode::kTruncated);
  EXPECT_EQ(peek_stream(shorty), std::nullopt);
}

TEST(MuxEnvelope, HelloRoundTrip) {
  const auto frame = Hello{.capabilities = kCapMux}.encode(/*sender=*/42);
  const Envelope env = decode_envelope(frame);
  EXPECT_EQ(env.kind, MsgKind::kHello);
  EXPECT_EQ(env.sender, 42u);
  const Hello hello = Hello::decode(env);
  EXPECT_EQ(hello.capabilities, kCapMux);

  // An empty capability set is legal (the "we share nothing" answer).
  const Hello none = Hello::decode(
      decode_envelope(Hello{.capabilities = 0}.encode(/*sender=*/0)));
  EXPECT_EQ(none.capabilities, 0u);
}

TEST(MuxEnvelope, ErrorReplyRetryAfterHint) {
  // A hinted refusal round-trips its backoff hint; a hintless one is the
  // exact pre-hint encoding (same bytes minus the trailing u32), so old
  // decoders only ever see the form they already parse.
  const ErrorReply hintless{.code = ErrorCode::kUnavailable,
                            .detail = "lane at depth cap"};
  const ErrorReply hinted{.code = ErrorCode::kUnavailable,
                          .detail = "lane at depth cap",
                          .retry_after_ms = 25};
  const auto hintless_frame = hintless.encode();
  const auto hinted_frame = hinted.encode();
  ASSERT_EQ(hinted_frame.size(), hintless_frame.size() + 4);

  const ErrorReply a = ErrorReply::decode(decode_envelope(hintless_frame));
  EXPECT_EQ(a.code, ErrorCode::kUnavailable);
  EXPECT_EQ(a.retry_after_ms, 0u);
  const ErrorReply b = ErrorReply::decode(decode_envelope(hinted_frame));
  EXPECT_EQ(b.code, ErrorCode::kUnavailable);
  EXPECT_EQ(b.detail, "lane at depth cap");
  EXPECT_EQ(b.retry_after_ms, 25u);
}

// ------------------------------------------------- dispatcher lane bound

TEST(DispatcherOverload, PausedLaneShedsExactlyThePastBoundSubmits) {
  // The deterministic overload inducer from the dispatcher's contract:
  // freeze the worker, fire bound + S submits, observe exactly S
  // immediate sheds with the configured retry-after hint, resume, and
  // every accepted frame is still answered.
  constexpr std::size_t kBound = 4;
  constexpr std::size_t kOver = 3;
  server::EndpointCounters counters;
  server::AsyncDispatcher dispatcher(
      [](std::span<const std::uint8_t> frame) {
        (void)decode_envelope(frame);
        return encode_ack();
      },
      /*lanes=*/1, [](std::span<const std::uint8_t>) { return 0u; },
      /*barrier=*/nullptr,
      {.max_lane_depth = kBound, .retry_after_ms = 40, .counters = &counters});

  dispatcher.pause();
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::vector<std::uint8_t>> replies;
  std::size_t immediate = 0;  // completions fired while still paused
  for (std::size_t i = 0; i < kBound + kOver; ++i) {
    dispatcher.submit(encode_oprf_key_query(),
                      [&](std::vector<std::uint8_t> reply) {
                        std::lock_guard<std::mutex> lock(mu);
                        replies.push_back(std::move(reply));
                        cv.notify_one();
                      });
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    immediate = replies.size();
  }
  EXPECT_EQ(immediate, kOver) << "sheds must complete without the worker";
  EXPECT_EQ(dispatcher.shed(), kOver);
  EXPECT_EQ(dispatcher.accepted(), kBound);
  for (std::size_t i = 0; i < immediate; ++i) {
    const ErrorReply e = ErrorReply::decode(decode_envelope(replies[i]));
    EXPECT_EQ(e.code, ErrorCode::kUnavailable);
    EXPECT_EQ(e.retry_after_ms, 40u);
  }
  // The sheds are mirrored onto the endpoint refusal tallies.
  EXPECT_EQ(counters.shed_ingest.load(), kOver);
  EXPECT_EQ(counters.refusals.load(), kOver);
  EXPECT_EQ(
      counters
          .refused_by_code[static_cast<std::size_t>(ErrorCode::kUnavailable)]
          .load(),
      kOver);

  dispatcher.resume();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return replies.size() == kBound + kOver; });
  }
  for (std::size_t i = immediate; i < replies.size(); ++i)
    EXPECT_EQ(decode_envelope(replies[i]).kind, MsgKind::kAck);
  EXPECT_EQ(dispatcher.pending(), 0u);
}

TEST(DispatcherOverload, UnboundedLanesNeverShed) {
  server::AsyncDispatcher dispatcher([](std::span<const std::uint8_t>) {
    return encode_ack();
  });
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  for (int i = 0; i < 64; ++i)
    dispatcher.submit(encode_oprf_key_query(), [&](std::vector<std::uint8_t>) {
      std::lock_guard<std::mutex> lock(mu);
      ++done;
      cv.notify_one();
    });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done == 64; });
  EXPECT_EQ(dispatcher.shed(), 0u);
  EXPECT_EQ(dispatcher.accepted(), 64u);
}

// ------------------------------------------------------------ end to end

TEST(MuxEndToEnd, ManyStreamsOneConnectionCorrelatePerStream) {
  // 32 logical streams, 4 pipelined exchanges each, one socket. The
  // server tags each reply with the request's (sender, round); every
  // stream must see its own exchanges complete in its own submission
  // order, and both ends must account exactly one connection.
  FrameServer server(
      [](std::span<const std::uint8_t> frame) {
        const Envelope env = decode_envelope(frame);
        return ErrorReply{.code = ErrorCode::kOk,
                          .detail = std::to_string(env.sender) + ":" +
                                    std::to_string(env.round)}
            .encode();
      },
      {.reactor_shards = 1});

  ClientReactor reactor({.shards = 1});
  auto channel = reactor.open_mux("127.0.0.1", server.port());

  constexpr std::uint32_t kStreams = 32;
  constexpr std::uint64_t kPerStream = 4;
  std::vector<std::shared_ptr<MuxStream>> streams;
  for (std::uint32_t s = 0; s < kStreams; ++s)
    streams.push_back(channel->open_stream());
  EXPECT_EQ(channel->streams_opened(), kStreams);

  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  std::vector<std::vector<std::string>> per_stream(kStreams);
  std::uint64_t v1_bytes_sent = 0;
  for (std::uint64_t round = 0; round < kPerStream; ++round) {
    for (std::uint32_t s = 0; s < kStreams; ++s) {
      const auto frame =
          encode_envelope(MsgKind::kOprfKeyQuery, /*sender=*/s, round, {});
      v1_bytes_sent += frame.size();
      streams[s]->exchange_async(frame, [&, s](AsyncResult r) {
        ASSERT_TRUE(r.ok());
        const ErrorReply reply = ErrorReply::decode(decode_envelope(r.reply));
        std::lock_guard<std::mutex> lock(mu);
        per_stream[s].push_back(reply.detail);
        ++done;
        cv.notify_one();
      });
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == kStreams * kPerStream; });
  }
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    ASSERT_EQ(per_stream[s].size(), kPerStream) << "stream " << s;
    for (std::uint64_t round = 0; round < kPerStream; ++round)
      EXPECT_EQ(per_stream[s][round],
                std::to_string(s) + ":" + std::to_string(round))
          << "stream " << s << " exchange " << round
          << " correlated to the wrong request";
  }

  EXPECT_TRUE(channel->mux_negotiated());
  EXPECT_EQ(reactor.counters().mux_negotiated, 1u);
  const FrameServerStats ss = server.stats();
  EXPECT_EQ(ss.reactor.connections_accepted, 1u)
      << "the whole swarm must ride one socket";
  EXPECT_EQ(ss.reactor.mux_connections, 1u);
  EXPECT_EQ(ss.reactor.streams_shed, 0u);

  // Byte accounting is on the version-1 bytes (what a dedicated
  // connection would carry), so mux and socket-per-reporter swarms report
  // identical totals. The Hello handshake is channel plumbing, not an
  // exchange, and must not pollute the stats.
  const TransportStats cs = channel->stats();
  EXPECT_EQ(cs.messages_sent, kStreams * kPerStream);
  EXPECT_EQ(cs.messages_received, kStreams * kPerStream);
  EXPECT_EQ(cs.bytes_sent, v1_bytes_sent);
}

TEST(MuxEndToEnd, SlowStreamDoesNotStallSiblings) {
  // Deterministic backpressure: stream A's handler completion is
  // withheld; eight exchanges on sibling stream B must complete while A
  // is still in flight on the same socket. Releasing A completes it too.
  std::mutex held_mu;
  std::vector<CompletionFn> held;
  FrameServer server(
      [&](std::vector<std::uint8_t> frame, CompletionFn done) {
        const Envelope env = decode_envelope(frame);
        if (env.round == 1) {  // the slow stream's marker
          std::lock_guard<std::mutex> lock(held_mu);
          held.push_back(std::move(done));
          return;
        }
        done(encode_ack());
      },
      {.reactor_shards = 1});

  ClientReactor reactor({.shards = 1});
  auto channel = reactor.open_mux("127.0.0.1", server.port());
  auto slow = channel->open_stream();
  auto fast = channel->open_stream();

  Caught slow_caught;
  slow->exchange_async(
      encode_envelope(MsgKind::kOprfKeyQuery, 0, /*round=*/1, {}),
      slow_caught.sink());

  std::mutex mu;
  std::condition_variable cv;
  std::size_t fast_done = 0;
  for (int i = 0; i < 8; ++i)
    fast->exchange_async(
        encode_envelope(MsgKind::kOprfKeyQuery, 0, /*round=*/0, {}),
        [&](AsyncResult r) {
          ASSERT_TRUE(r.ok());
          (void)expect_reply(r.reply, MsgKind::kAck);
          std::lock_guard<std::mutex> lock(mu);
          ++fast_done;
          cv.notify_one();
        });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return fast_done == 8; });
  }
  // All eight siblings answered; the slow stream is still pinned.
  {
    std::lock_guard<std::mutex> lock(slow_caught.mu);
    EXPECT_FALSE(slow_caught.done)
        << "slow stream completed before its handler did";
  }
  {
    std::lock_guard<std::mutex> lock(held_mu);
    ASSERT_EQ(held.size(), 1u);
    held[0](encode_ack());
  }
  const AsyncResult r = slow_caught.wait();
  ASSERT_TRUE(r.ok());
  (void)expect_reply(r.reply, MsgKind::kAck);
  EXPECT_EQ(server.stats().reactor.connections_accepted, 1u);
}

TEST(MuxEndToEnd, StreamIdAboveCapRefusedHintlessAndNotRetried) {
  // The per-connection stream cap is a permanent refusal: no retry hint,
  // delivered to the caller even with the retry loop enabled.
  FrameServer server(
      [](std::span<const std::uint8_t> frame) {
        (void)decode_envelope(frame);
        return encode_ack();
      },
      {.reactor_shards = 1, .max_streams_per_connection = 4});

  ClientReactor reactor({.shards = 1});
  auto channel = reactor.open_mux("127.0.0.1", server.port());

  // Ids within the cap work.
  auto ok_stream = channel->open_stream();  // id 1
  Caught ok;
  ok_stream->exchange_async(encode_oprf_key_query(), ok.sink());
  const AsyncResult r_ok = ok.wait();
  ASSERT_TRUE(r_ok.ok());
  (void)expect_reply(r_ok.reply, MsgKind::kAck);

  // Id 7 > cap 4: refused on the spot, hintless.
  auto over = channel->open_stream(/*id=*/7);
  Caught refused;
  over->exchange_async(encode_oprf_key_query(), refused.sink());
  const AsyncResult r = refused.wait();
  ASSERT_TRUE(r.ok());  // a refusal is a delivered reply, not an I/O error
  const ErrorReply e = ErrorReply::decode(decode_envelope(r.reply));
  EXPECT_EQ(e.code, ErrorCode::kUnavailable);
  EXPECT_EQ(e.retry_after_ms, 0u) << "cap refusals are permanent: no hint";
  EXPECT_EQ(channel->unavailable_retries(), 0u)
      << "hintless refusals must not enter the retry loop";
  EXPECT_EQ(server.stats().reactor.streams_shed, 1u);
}

TEST(MuxEndToEnd, BacklogShedPreservesPerStreamReplyOrder) {
  // One stream, its first handler withheld, backlog bound 1: of five
  // submissions, #1 is in flight, #2 queued, #3..#5 shed. The sheds must
  // come back *in submission order* behind the real replies (queued
  // markers, not out-of-band answers), carrying the configured hint.
  std::mutex held_mu;
  std::vector<CompletionFn> held;
  std::atomic<int> calls{0};
  FrameServer server(
      [&](std::vector<std::uint8_t> frame, CompletionFn done) {
        (void)decode_envelope(frame);
        if (calls.fetch_add(1, std::memory_order_relaxed) == 0) {
          std::lock_guard<std::mutex> lock(held_mu);
          held.push_back(std::move(done));
          return;
        }
        done(encode_ack());
      },
      {.reactor_shards = 1,
       .max_stream_backlog = 1,
       .stream_shed_retry_after_ms = 30});

  // Retries disabled: the shed replies are delivered raw, in order.
  ClientReactor reactor({.shards = 1});
  auto channel = reactor.open_mux("127.0.0.1", server.port(),
                                  {.max_unavailable_retries = 0});
  auto stream = channel->open_stream();

  std::mutex mu;
  std::condition_variable cv;
  std::vector<AsyncResult> results;
  for (int i = 0; i < 5; ++i)
    stream->exchange_async(encode_oprf_key_query(), [&](AsyncResult r) {
      std::lock_guard<std::mutex> lock(mu);
      results.push_back(std::move(r));
      cv.notify_one();
    });

  // Wait until the sheds are queued server-side (the three markers), then
  // release the withheld handler.
  for (int i = 0; i < 2'000 && server.stats().reactor.streams_shed < 3; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(server.stats().reactor.streams_shed, 3u);
  {
    std::lock_guard<std::mutex> lock(held_mu);
    ASSERT_EQ(held.size(), 1u);
    held[0](encode_ack());
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return results.size() == 5; });
  }
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(results[static_cast<std::size_t>(i)].ok()) << i;
  // #1 (released) and #2 (queued behind it) succeed; #3..#5 are sheds.
  (void)expect_reply(results[0].reply, MsgKind::kAck);
  (void)expect_reply(results[1].reply, MsgKind::kAck);
  for (int i = 2; i < 5; ++i) {
    const ErrorReply e = ErrorReply::decode(
        decode_envelope(results[static_cast<std::size_t>(i)].reply));
    EXPECT_EQ(e.code, ErrorCode::kUnavailable) << "reply " << i;
    EXPECT_EQ(e.retry_after_ms, 30u) << "reply " << i;
  }
}

TEST(MuxEndToEnd, HintedShedsAreTransparentlyRetried) {
  // With the retry loop on (the default), a backlog shed never reaches
  // the caller: the client resubmits after the hint and the retry lands
  // once the stream drained. Client and server shed tallies must agree.
  std::mutex held_mu;
  std::vector<CompletionFn> held;
  std::atomic<int> calls{0};
  FrameServer server(
      [&](std::vector<std::uint8_t> frame, CompletionFn done) {
        (void)decode_envelope(frame);
        if (calls.fetch_add(1, std::memory_order_relaxed) == 0) {
          std::lock_guard<std::mutex> lock(held_mu);
          held.push_back(std::move(done));
          return;
        }
        done(encode_ack());
      },
      {.reactor_shards = 1,
       .max_stream_backlog = 1,
       .stream_shed_retry_after_ms = 5});

  ClientReactor reactor({.shards = 1});
  auto channel = reactor.open_mux("127.0.0.1", server.port());
  auto stream = channel->open_stream();

  std::mutex mu;
  std::condition_variable cv;
  std::size_t acked = 0;
  for (int i = 0; i < 5; ++i)
    stream->exchange_async(encode_oprf_key_query(), [&](AsyncResult r) {
      ASSERT_TRUE(r.ok());
      (void)expect_reply(r.reply, MsgKind::kAck);
      std::lock_guard<std::mutex> lock(mu);
      ++acked;
      cv.notify_one();
    });

  for (int i = 0; i < 2'000 && server.stats().reactor.streams_shed < 3; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  {
    std::lock_guard<std::mutex> lock(held_mu);
    ASSERT_EQ(held.size(), 1u);
    held[0](encode_ack());
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return acked == 5; });
  }
  EXPECT_GE(channel->unavailable_retries(), 3u);
  EXPECT_EQ(channel->unavailable_retries(),
            server.stats().reactor.streams_shed)
      << "every server shed must be matched by one client retry";
  EXPECT_EQ(reactor.counters().unavailable_retries,
            channel->unavailable_retries());
}

TEST(MuxEndToEnd, OverCapStreamFrameRefusedLocallyWithoutKillingSiblings) {
  // A stream frame grows by its 4-byte stream id when wrapped, so one the
  // size of the wire cap would leave with a declared length the server
  // refuses by its prefix — answered unattributably and the socket closed
  // under every sibling stream. The client must refuse it with kOversized
  // before a byte is sent, while stream A's handler is still in flight.
  std::mutex held_mu;
  std::vector<CompletionFn> held;
  FrameServer server(
      [&](std::vector<std::uint8_t> frame, CompletionFn done) {
        (void)decode_envelope(frame);
        std::lock_guard<std::mutex> lock(held_mu);
        held.push_back(std::move(done));
      },
      {.reactor_shards = 1});

  ClientReactor reactor({.shards = 1});
  auto channel = reactor.open_mux("127.0.0.1", server.port());
  auto a = channel->open_stream();
  auto b = channel->open_stream();

  Caught a_caught;
  a->exchange_async(encode_oprf_key_query(), a_caught.sink());
  const auto held_count = [&] {
    std::lock_guard<std::mutex> lock(held_mu);
    return held.size();
  };
  for (int i = 0; i < 2'000 && held_count() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(held_count(), 1u) << "stream A's frame never reached the handler";
  const std::uint64_t received = server.stats().messages_received;

  // A version-1 header padded to exactly the wire cap: 4 bytes over once
  // the stream id is added.
  std::vector<std::uint8_t> over = encode_oprf_key_query();
  over.resize(kMaxTcpFrameBytes);
  Caught b_caught;
  b->exchange_async(std::move(over), b_caught.sink());
  const AsyncResult rb = b_caught.wait();
  ASSERT_FALSE(rb.ok());
  EXPECT_EQ(code_of([&] { std::rethrow_exception(rb.error); }),
            ErrorCode::kOversized);
  EXPECT_EQ(server.stats().messages_received, received)
      << "the over-cap frame reached the server";

  {
    std::lock_guard<std::mutex> lock(held_mu);
    held[0](encode_ack());
  }
  const AsyncResult ra = a_caught.wait();
  ASSERT_TRUE(ra.ok()) << "sibling stream A failed with B's frame";
  (void)expect_reply(ra.reply, MsgKind::kAck);
  EXPECT_EQ(reactor.counters().connects_established, 1u);
}

// ----------------------------------------------------------- old peers

TEST(MuxInterop, UnNegotiatedConnectionMatchesRawVersion1Exchange) {
  // A legacy ClientChannel (no Hello) against the mux-capable server: the
  // exchange must be byte-identical to a hand-framed version-1 exchange
  // on a raw socket, and the server must count zero mux connections —
  // the un-negotiated path is untouched.
  FrameServer server([](std::span<const std::uint8_t> frame) {
    (void)decode_envelope(frame);
    return encode_ack();
  });
  const auto request = encode_oprf_key_query();

  const int fd = raw::connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(raw::send_all(fd, raw::with_prefix(request)));
  const auto want = raw::read_framed(fd);
  ::close(fd);
  ASSERT_FALSE(want.empty());

  ClientReactor reactor({.shards = 1});
  auto channel = reactor.open("127.0.0.1", server.port());
  SyncTransportAdapter adapted(*channel);
  const auto got = adapted.exchange(request);
  EXPECT_EQ(want, got);
  EXPECT_EQ(adapted.stats().bytes_sent, request.size());
  EXPECT_EQ(adapted.stats().bytes_received, want.size());

  const FrameServerStats ss = server.stats();
  EXPECT_EQ(ss.reactor.mux_connections, 0u);
  EXPECT_EQ(ss.reactor.streams_shed, 0u);
  // The server's byte tally is exactly the two version-1 requests: no
  // stream ids, no Hello — nothing new on the wire.
  EXPECT_EQ(ss.bytes_received, 2 * request.size());
}

TEST(MuxInterop, ClientDegradesToLegacyFifoAgainstPreHelloPeer) {
  // A hand-rolled pre-PR 9 peer: strictly request-ordered FIFO, answers
  // Hello with Error(kUnknownKind) because the kind is not in its
  // catalogue. open_mux against it must degrade every stream onto the
  // legacy shared FIFO — serialized but correct, version-1 bytes only.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);

  std::atomic<int> served{0};
  std::atomic<bool> saw_v2{false};
  std::thread peer([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    for (;;) {
      const auto frame = raw::read_framed(fd);
      if (frame.empty()) break;
      if (frame.size() > 4 && frame[4] != 1) saw_v2.store(true);
      std::vector<std::uint8_t> reply;
      if (peek_kind(frame) == MsgKind::kHello) {
        reply = ErrorReply{.code = ErrorCode::kUnknownKind,
                           .detail = "kind 18 not in catalogue"}
                    .encode();
      } else {
        reply = ErrorReply{.code = ErrorCode::kOk,
                           .detail = std::to_string(
                               served.fetch_add(1,
                                                std::memory_order_relaxed))}
                    .encode();
      }
      if (!raw::send_all(fd, raw::with_prefix(reply))) break;
    }
    ::close(fd);
  });

  {
    ClientReactor reactor({.shards = 1});
    auto channel = reactor.open_mux("127.0.0.1", port);
    std::vector<std::shared_ptr<MuxStream>> streams;
    for (int s = 0; s < 3; ++s) streams.push_back(channel->open_stream());

    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::string> details;
    for (int i = 0; i < 6; ++i)
      streams[static_cast<std::size_t>(i % 3)]->exchange_async(
          encode_oprf_key_query(), [&](AsyncResult r) {
            ASSERT_TRUE(r.ok());
            const ErrorReply reply =
                ErrorReply::decode(decode_envelope(r.reply));
            std::lock_guard<std::mutex> lock(mu);
            details.push_back(reply.detail);
            cv.notify_one();
          });
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return details.size() == 6; });
    }
    // Global submission order on the shared FIFO: completions correlate
    // one-to-one with the peer's service order.
    for (int i = 0; i < 6; ++i)
      EXPECT_EQ(details[static_cast<std::size_t>(i)], std::to_string(i));
    EXPECT_FALSE(channel->mux_negotiated());
    EXPECT_EQ(reactor.counters().mux_negotiated, 0u);
    EXPECT_FALSE(saw_v2.load())
        << "a version-2 frame reached a peer that never negotiated";
  }
  peer.join();
  ::close(listener);
}

// --------------------------------------------------------- bit identity

void expect_identical(const server::RoundResult& want,
                      const server::RoundResult& got, const char* what) {
  const auto want_cells = want.aggregate.cells();
  const auto got_cells = got.aggregate.cells();
  ASSERT_EQ(want_cells.size(), got_cells.size()) << what;
  for (std::size_t c = 0; c < want_cells.size(); ++c)
    ASSERT_EQ(want_cells[c], got_cells[c]) << what << ": cell " << c;
  EXPECT_EQ(want.users_threshold, got.users_threshold) << what;
  EXPECT_EQ(want.distribution.histogram(), got.distribution.histogram())
      << what;
  EXPECT_EQ(want.reports, got.reports) << what;
}

TEST(MuxEndToEnd, MuxSwarmRoundBitIdenticalToInProcess) {
  // 256 logical reporters on ONE socket against the deployed server stack
  // (server::Deployment), control plane on a second legacy connection:
  // the finalized aggregate must be bit-identical to the same submissions
  // applied in-process, with the whole swarm costing two accepted
  // connections. The same reporters then run once more with a connection
  // each (the version-1 lane), and that finalize must be bit-identical to
  // the mux one: mux ≡ per-connection.
  constexpr std::size_t kReporters = 256;
  const server::BackendConfig config{
      .cms_params = {.depth = 4, .width = 64},
      .cms_hash_seed = 9,
      .id_space = 2'000,
      .users_rule = core::ThresholdRule::kMean};
  const auto make_cells = [&](std::size_t i) {
    std::vector<std::uint32_t> cells(config.cms_params.cells());
    for (std::size_t c = 0; c < cells.size(); ++c)
      cells[c] = static_cast<std::uint32_t>(i * 40503u + c * 7u);
    return cells;
  };

  const auto run_swarm = [&](bool use_mux) {
    // The per-connection run opens every socket in one burst; the
    // deployed admission cap and accept backlog both cover it.
    server::Deployment deployment({.config = config});

    ClientReactor reactor({.shards = 2});
    auto control = reactor.open("127.0.0.1", deployment.port());
    server::RemoteBackend remote(*control, config);
    remote.begin_round(/*round=*/7, kReporters);

    std::vector<std::shared_ptr<AsyncTransport>> reporters;
    reporters.reserve(kReporters);
    std::shared_ptr<MuxChannel> channel;
    if (use_mux) channel = reactor.open_mux("127.0.0.1", deployment.port());
    for (std::size_t i = 0; i < kReporters; ++i) {
      if (use_mux)
        reporters.push_back(channel->open_stream());
      else
        reporters.push_back(reactor.open("127.0.0.1", deployment.port()));
    }

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
      reporters[i]->exchange_async(frame, [&](AsyncResult r) {
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
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done == kReporters; });
    }
    EXPECT_EQ(acked.load(), kReporters);
    EXPECT_TRUE(remote.missing_participants().empty());
    server::RoundResult got = remote.finalize_round();

    const FrameServerStats ss = deployment.server().stats();
    if (use_mux) {
      EXPECT_EQ(ss.reactor.connections_accepted, 2u)
          << "control + one mux socket, nothing per reporter";
      EXPECT_EQ(ss.reactor.mux_connections, 1u);
    } else {
      EXPECT_EQ(ss.reactor.connections_accepted, kReporters + 1)
          << "control + one socket per reporter";
      EXPECT_EQ(ss.reactor.mux_connections, 0u);
    }
    EXPECT_EQ(ss.reactor.streams_shed, 0u);
    const std::string stats = server::stats_http_get(deployment.stats_port());
    EXPECT_EQ(server::stats_value(stats, "shed_ingest"), 0u);
    EXPECT_EQ(server::stats_value(stats, "reports_accepted"), kReporters);
    return got;
  };

  const server::RoundResult mux = run_swarm(/*use_mux=*/true);
  const server::RoundResult per_connection = run_swarm(/*use_mux=*/false);

  server::BackendCluster reference(config, 2);
  reference.begin_round(/*round=*/7, kReporters);
  for (std::size_t i = 0; i < kReporters; ++i)
    reference.submit_report(i, make_cells(i));
  const server::RoundResult want = reference.finalize_round();

  expect_identical(want, mux, "mux vs in-process");
  expect_identical(per_connection, mux, "mux vs per-connection");
  EXPECT_EQ(mux.reports, kReporters);
}

}  // namespace
}  // namespace eyw::proto
