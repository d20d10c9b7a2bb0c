// Real-socket Transport binding: length-framed delivery of encoded
// envelopes over TCP. This header is the server half, an event-driven
// epoll reactor (FrameServer); the client half is proto::ClientReactor
// (proto/client_reactor.hpp), and blocking callers wrap one of its
// ClientChannels in a SyncTransportAdapter.
//
// Framing is a 4-byte little-endian length prefix followed by exactly that
// many envelope bytes. The prefix is transport overhead — TransportStats
// count envelope bytes only, so a TCP channel and a loopback channel
// moving the same frames report identical byte totals (asserted in
// tests/server/test_tcp_round.cpp). A length of zero is the on-wire form
// of "no reply" (the loopback path's empty vector, e.g. a dropped
// response), so the two transports are observationally interchangeable.
//
// Error mapping onto the protocol's ErrorCodes, as a client sees it
// (docs/protocol.md, "Transport bindings"):
//   * peer closes before any reply byte  -> empty reply (lost response;
//     the caller's expect_reply raises, same as FaultPlan::kDropResponse)
//   * peer closes mid-prefix or mid-body -> ProtoError(kTruncated)
//   * declared length above the cap      -> ProtoError(kOversized),
//     checked before any allocation
//   * connect failure, I/O error, timeout -> ProtoError(kInternal)
//   * connection refused at the admission cap -> the server answers
//     Error(kUnavailable) and closes
// An exchange that fails mid-stream is never silently replayed — a resend
// could double-submit a report — so retry/backoff applies to connection
// establishment only.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "proto/message.hpp"
#include "proto/transport.hpp"

namespace eyw::proto {

/// Hard cap on one length-framed message: the larger (mux) envelope
/// header plus the largest payload the envelope layer itself accepts, so
/// a version-1 frame that fits keeps fitting once a stream id is added.
/// Checked against the declared length before any allocation on both ends.
inline constexpr std::size_t kMaxTcpFrameBytes =
    kMuxEnvelopeHeaderBytes + kMaxPayloadBytes;

/// Event-loop accounting shared by the server-side FrameServer and
/// (name-for-name where it applies) the client-side reactor: how many
/// connections were admitted or refused, how many were dropped by a
/// progress deadline, and how often the loops were woken cross-thread.
struct ReactorCounters {
  std::uint64_t connections_accepted = 0;
  /// Admission-refused: answered Error(kUnavailable) past max_connections.
  std::uint64_t connections_refused = 0;
  /// Connections closed by the io_timeout progress deadline (stalled
  /// mid-frame or an undrained reply — the slow-loris counter).
  std::uint64_t deadline_drops = 0;
  /// Cross-thread loop wakeups through the shards' eventfds (accept
  /// handovers + handler completions that fired off the loop thread).
  std::uint64_t eventfd_wakeups = 0;
  /// Connections that negotiated the mux capability via Hello.
  std::uint64_t mux_connections = 0;
  /// Mux frames refused with Error(kUnavailable) by the reactor itself:
  /// a stream id above max_streams_per_connection, or a stream whose
  /// backlog hit max_stream_backlog. Dispatcher-lane sheds are counted by
  /// the dispatcher, not here.
  std::uint64_t streams_shed = 0;
  /// Frame body buffers served from the server's BufferPool (recycled
  /// allocations). Grows once per pooled frame — the companion to
  /// pool_misses, which should go flat once the pool is warm.
  std::uint64_t frames_pooled = 0;
  /// Frame acquisitions the pool could not serve (empty free list, or no
  /// recycled buffer large enough): each one is a real heap allocation on
  /// the ingest path. Flat after warmup under a steady workload; the soak
  /// scenario asserts exactly that.
  std::uint64_t pool_misses = 0;
  /// Bytes relocated by copying fallbacks on the ingest/reply path — a
  /// reply without mux headroom forcing add_stream_inplace to
  /// reallocate, for instance. Frames produced by this repo's encoders
  /// always carry headroom, so this stays 0 (and flat in the soak
  /// assertion); growth means an externally produced buffer is riding the
  /// slow path.
  std::uint64_t bytes_copied_ingest = 0;
};

/// FrameServer::stats(): the familiar envelope-byte TransportStats plus
/// the reactor counters. Derives from TransportStats so existing callers
/// that copy into a TransportStats keep compiling and meaning the same.
struct FrameServerStats : TransportStats {
  ReactorCounters reactor;
};

struct FrameServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; read the real one back via port().
  std::uint16_t port = 0;
  int backlog = 64;
  /// Reactor event-loop threads the connections are sharded across;
  /// 0 means hardware_concurrency(). Resident server threads are
  /// exactly shards + 1 acceptor, independent of connection count.
  std::size_t reactor_shards = 0;
  /// Admission cap on concurrently-served connections. A connection
  /// accepted past the cap is answered with one Error(kUnavailable)
  /// envelope and closed — an explicit, machine-readable refusal instead
  /// of unbounded connection state (or a silent stall in the backlog).
  std::size_t max_connections = 1024;
  /// Frame-completion timeout: once the first byte of a frame arrives,
  /// the rest (prefix and body) must land within this bound or the
  /// connection is dropped — a stalled peer cannot pin connection state
  /// forever. The same bound applies to draining a buffered reply to a
  /// slow reader. A connection idle *between* frames is left alone:
  /// clients keep the channel open across round phases.
  std::chrono::milliseconds io_timeout{30'000};
  /// Highest stream id accepted on a mux-negotiated connection. Clients
  /// assign ids sequentially from 1, so this caps the logical channels
  /// one socket may carry; a frame above the cap is refused on the spot
  /// with Error(kUnavailable) — without a retry hint, because the refusal
  /// is permanent for this connection (open another). Stream 0
  /// (un-wrapped version-1 frames) is always admitted.
  std::uint32_t max_streams_per_connection = 65536;
  /// Frames queued behind one stream's in-flight handler before further
  /// frames on that stream are shed. The shed drops the payload
  /// immediately but the refusal leaves in arrival order (a queued
  /// marker), preserving the per-stream FIFO reply correlation clients
  /// rely on.
  std::size_t max_stream_backlog = 16;
  /// Backoff hint carried by backlog-shed refusals (transient overload —
  /// retrying later can succeed, unlike the stream-id cap).
  std::uint32_t stream_shed_retry_after_ms = 25;
};

/// Event-driven frame server: one acceptor thread feeds accepted
/// connections round-robin to N reactor shards (epoll event loops); each
/// connection is one non-blocking state machine — incremental frame
/// assembly (FrameAssembler), a set of streams with at most one in-flight
/// handler each, a buffered writer with backpressure. Thousands of idle
/// reporters cost epoll registrations, not threads.
///
/// Handlers come in two shapes:
///   * a synchronous FrameHandler runs on the shard's loop thread — fine
///     for cheap dispatch, but it stalls that shard's other connections
///     for its duration (and may run concurrently across shards: make it
///     thread-safe or shard-affine);
///   * an AsyncFrameHandler is invoked on the loop thread and replies
///     through a completion callback: inline, before it returns (the
///     reply is appended on the spot), or later from wherever the work
///     ran (the reply is posted back to the loop) — the non-blocking
///     contract reactor callbacks require. Pair with
///     server::AsyncDispatcher to serialize stateful endpoints.
///
/// A frame whose declared length exceeds kMaxTcpFrameBytes is answered
/// with an Error(kOversized) envelope and the connection is closed (the
/// stream is unsynchronized past an unread body). Handler exceptions are
/// answered with Error(kInternal); endpoints themselves never throw.
///
/// Streams: a connection that never negotiates mux carries one stream,
/// stream 0, under three version-1 rules: while its handler runs or its
/// reply drains the connection neither reads nor takes its next frame
/// (pipelined frames are answered strictly in order and wait in the
/// socket, never in a stream backlog); no stream id is stripped; and an
/// empty reply leaves as a zero-length frame. A client that opens with
/// Hello(kCapMux) and receives it back switches the connection to mux
/// mode — version-2 envelopes carry a stream id, each stream is an
/// independent logical channel with its own one-in-flight FIFO, and
/// handlers for different streams run concurrently. The reactor strips
/// the stream id before dispatch and wraps it back onto the reply, so
/// everything downstream of the connection layer sees the same version-1
/// bytes either way.
class FrameServer {
 public:
  FrameServer(FrameHandler handler, FrameServerOptions options = {});
  FrameServer(AsyncFrameHandler handler, FrameServerOptions options = {});
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// The bound port (resolves option port 0).
  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Stop accepting, stop every reactor shard, close every connection.
  /// Idempotent; the destructor calls it. In-flight async completions
  /// become no-ops.
  void stop();

  /// Aggregated frame accounting across all connections, from the
  /// server's perspective: received = requests read, sent = replies
  /// written. Envelope bytes only, mirroring Transport stats on the
  /// client side — plus the reactor counters (admission, deadline drops,
  /// eventfd wakeups).
  [[nodiscard]] FrameServerStats stats() const;

  /// Closure returning a consumed frame's buffer to this server's pool.
  /// Wire it into whatever consumes the handler's frames (typically
  /// server::AsyncDispatcher::set_frame_recycler) so steady-state ingest
  /// recycles buffers; without it the pool simply misses on every frame
  /// (seed behavior). The closure co-owns the pool, so it stays valid
  /// after the server is gone.
  [[nodiscard]] FrameRecycler frame_recycler() const;

  [[nodiscard]] std::size_t active_connections() const noexcept;
  [[nodiscard]] std::uint64_t connections_accepted() const noexcept;
  /// Connections answered Error(kUnavailable) at the admission cap.
  [[nodiscard]] std::uint64_t connections_refused() const noexcept;
  /// Reactor shards actually running (resolves option 0).
  [[nodiscard]] std::size_t shards() const noexcept;

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace eyw::proto
