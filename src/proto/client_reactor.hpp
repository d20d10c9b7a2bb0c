// The client half of the TCP binding: one process driving thousands of
// simultaneous outbound connections on a fixed thread budget, and the one
// client I/O path every caller uses. N reactor shards (event-loop
// threads) multiplex any number of channels, each channel a non-blocking
// outbound connection with
//   * non-blocking connect with retry + deterministic jittered backoff
//     (proto/backoff.hpp — a swarm must not reconnect in lockstep waves);
//   * pipelined exchanges: any number in flight on one connection,
//     replies correlated to requests in submission order per stream (the
//     framing is strictly request-ordered per stream on both ends, so
//     FIFO correlation is exact);
//   * a per-exchange deadline on the shard's timing wheel — a dead or
//     stalled peer fails the exchange instead of pinning it forever;
//   * the AsyncTransport API: exchange_async(frame, done) from any thread,
//     completion delivered from the shard's loop thread.
//
// Error surface (docs/protocol.md, "Transport bindings"): peer closes
// before answering -> empty reply (lost response), mid-frame close ->
// kTruncated, declared length above cap -> kOversized, connect failure /
// I/O error / deadline -> kInternal. A failed exchange is never silently
// replayed; the connection is torn down and the next exchange reconnects
// with a fresh attempt budget. Blocking callers (the OPRF mapper, a sync
// RemoteBackend) drive a channel through proto::SyncTransportAdapter and
// see the same replies, the same thrown ProtoErrors and the same stats.
//
// Threading contract: exchange_async/close are safe from any thread
// (including inside a completion); completions run on the channel's loop
// thread and must not block — in particular, never drive a
// SyncTransportAdapter from inside a completion.
//
// Streams: every channel runs the same connection state machine. A
// ClientChannel is stream 0 of a connection that negotiates nothing — no
// Hello, plain version-1 frames, one FIFO. ClientReactor::open_mux()
// returns a MuxChannel, whose connection opens with a Hello handshake
// (submissions made before the answer are staged in order) and fans out
// any number of MuxStreams, each an independent AsyncTransport with its
// own FIFO reply correlation. Outbound stream frames are scheduled
// round-robin (one frame per stream per turn) so no single busy stream
// starves its siblings' writes. Against a server that does not speak
// Hello, every stream shares stream 0's FIFO — correct, just not
// concurrent. A reply of Error(kUnavailable) carrying a retry-after hint
// (the server shed the frame before applying it) is transparently
// resubmitted after the hinted delay, up to
// MuxOptions::max_unavailable_retries.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "proto/transport.hpp"

namespace eyw::proto {

struct ClientReactorOptions {
  /// Event-loop threads the channels are sharded across (round-robin).
  /// Resident client-side threads == shards, independent of channel count.
  std::size_t shards = 1;
  /// Bounds one connect attempt; attempts * (timeout + backoff) bounds the
  /// whole connect phase of an exchange.
  std::chrono::milliseconds connect_timeout{2'000};
  /// Per-exchange deadline: submission (or connection established, for
  /// exchanges queued while connecting) to reply.
  std::chrono::milliseconds io_timeout{30'000};
  /// Connection attempts per connect phase; the base delay doubles after
  /// each failure and each delay is jittered into [d/2, 3d/2].
  int connect_attempts = 6;
  std::chrono::milliseconds connect_backoff{50};
  /// Seed of the backoff jitter stream; each channel derives its own
  /// deterministic stream from seed ^ channel id.
  std::uint64_t backoff_jitter_seed = 1;
};

/// Aggregate accounting across every channel of one ClientReactor. The
/// counter names mirror the server-side ReactorCounters so a swarm run can
/// be audited end to end (client connects_established == server accepted,
/// client deadline_drops == exchanges the client gave up on, ...).
struct ClientReactorCounters {
  std::uint64_t connects_attempted = 0;
  std::uint64_t connects_established = 0;
  /// Backoff waits scheduled (failed attempts that were retried).
  std::uint64_t connect_retries = 0;
  std::uint64_t exchanges_started = 0;
  std::uint64_t exchanges_completed = 0;  // completion fired without error
  std::uint64_t exchanges_failed = 0;     // completion fired with an error
  /// Exchanges failed by their io_timeout deadline (subset of failed);
  /// each also tears down its connection — the stream past a timed-out
  /// reply is unsynchronizable.
  std::uint64_t deadline_drops = 0;
  /// Cross-thread loop wakeups (exchange submissions and completions
  /// marshalled over the shards' eventfds).
  std::uint64_t eventfd_wakeups = 0;
  /// Mux channels whose Hello handshake negotiated kCapMux.
  std::uint64_t mux_negotiated = 0;
  /// Shed replies (Error(kUnavailable) + retry-after hint) that were
  /// resubmitted after the hinted backoff. By construction this matches
  /// the server's shed tallies for frames this reactor sent.
  std::uint64_t unavailable_retries = 0;
};

/// Knobs for one mux channel (ClientReactor::open_mux).
struct MuxOptions {
  /// Resubmission budget per exchange for server sheds that carry a
  /// retry-after hint (a shed frame was never applied, so resending
  /// cannot double-submit). 0 disables the retry loop — shed replies are
  /// then delivered to the caller as-is. Refusals *without* a hint (e.g.
  /// a stream id above the server's per-connection cap) are always
  /// delivered, never retried: they are permanent for this connection.
  int max_unavailable_retries = 64;
};

namespace detail {
struct ClientReactorImpl;
struct ChannelCore;
}  // namespace detail

/// One outbound connection multiplexed on a ClientReactor shard. Obtained
/// from ClientReactor::open(); connects lazily on the first exchange and
/// reconnects (with backoff) on the next exchange after any failure. Safe to
/// destroy with exchanges in flight — their completions still fire, and
/// once the last of them has, the connection and all per-channel state
/// are reclaimed (a long-lived reactor can open channels freely without
/// accumulating sockets).
class ClientChannel final : public AsyncTransport {
 public:
  ~ClientChannel() override;

  void exchange_async(std::vector<std::uint8_t> frame,
                      AsyncCompletionFn done) override;

  /// Tear down the connection, failing every in-flight exchange with
  /// kInternal. The next exchange reconnects.
  void close();

  /// Envelope-byte accounting, same semantics as Transport::stats():
  /// sent counted per accepted exchange, received per non-empty reply.
  [[nodiscard]] TransportStats stats() const;

 private:
  friend class ClientReactor;
  explicit ClientChannel(std::shared_ptr<detail::ChannelCore> core);

  std::shared_ptr<detail::ChannelCore> core_;
};

class MuxChannel;

/// One logical channel on a MuxChannel: a full AsyncTransport (same
/// contract as ClientChannel — pipelined exchanges, FIFO correlation per
/// stream, per-exchange deadline), except that hundreds of them share one
/// socket. A frame that would exceed kMaxTcpFrameBytes once its 4-byte
/// stream id is added fails with kOversized before a byte is sent. Keeps
/// its MuxChannel alive; destroying every stream and the channel reaps
/// the connection once in-flight completions have fired.
class MuxStream final : public AsyncTransport {
 public:
  ~MuxStream() override = default;

  void exchange_async(std::vector<std::uint8_t> frame,
                      AsyncCompletionFn done) override;

  [[nodiscard]] std::uint32_t stream_id() const noexcept { return id_; }

 private:
  friend class MuxChannel;
  MuxStream(std::shared_ptr<MuxChannel> channel, std::uint32_t id);

  std::shared_ptr<MuxChannel> channel_;
  std::uint32_t id_;
};

/// One mux-negotiated connection fanning out logical streams. Obtained
/// from ClientReactor::open_mux(); the Hello handshake runs on the first
/// exchange (submissions before the answer are staged in order). If the
/// peer does not speak the capability, every stream shares stream 0's
/// FIFO — still correct against a strictly request-ordered server, just
/// serialized.
class MuxChannel : public std::enable_shared_from_this<MuxChannel> {
 public:
  ~MuxChannel();

  MuxChannel(const MuxChannel&) = delete;
  MuxChannel& operator=(const MuxChannel&) = delete;

  /// Open the next logical stream (ids run sequentially from 1 — the
  /// server caps admitted ids, so sequential assignment makes "how many
  /// channels fit one socket" deterministic).
  [[nodiscard]] std::shared_ptr<MuxStream> open_stream();
  /// Open a stream with an explicit id. The adversarial harness uses ids
  /// above the server's per-connection cap to provoke deterministic
  /// Error(kUnavailable) sheds.
  [[nodiscard]] std::shared_ptr<MuxStream> open_stream(std::uint32_t id);

  /// True once the Hello handshake answered with kCapMux on the current
  /// connection (false while unresolved or against an old peer).
  [[nodiscard]] bool mux_negotiated() const noexcept;

  /// Envelope-byte accounting across every stream, counted on the
  /// version-1 bytes (what a dedicated connection would carry), so a mux
  /// swarm and a socket-per-reporter swarm report identical totals.
  [[nodiscard]] TransportStats stats() const;

  /// Shed replies this channel resubmitted after their retry-after hint.
  [[nodiscard]] std::uint64_t unavailable_retries() const noexcept;

  /// Stream ids handed out so far.
  [[nodiscard]] std::uint32_t streams_opened() const noexcept;

 private:
  friend class ClientReactor;
  friend class MuxStream;
  explicit MuxChannel(std::shared_ptr<detail::ChannelCore> core);

  std::shared_ptr<detail::ChannelCore> core_;
  std::atomic<std::uint32_t> next_id_{1};
};

/// N event-loop shards multiplexing outbound channels. stop() (or
/// destruction) fails every pending exchange with kUnavailable and joins
/// the shard threads; channels outliving the reactor fail exchanges fast.
class ClientReactor {
 public:
  explicit ClientReactor(ClientReactorOptions options = {});
  ~ClientReactor();

  ClientReactor(const ClientReactor&) = delete;
  ClientReactor& operator=(const ClientReactor&) = delete;

  /// Open a channel to host:port (numeric / loopback addresses resolve on
  /// the loop thread — keep DNS out of a swarm's hot path). Channels are
  /// assigned to shards round-robin.
  [[nodiscard]] std::shared_ptr<ClientChannel> open(std::string host,
                                                    std::uint16_t port);

  /// Open a multiplexed channel to host:port: one connection, N logical
  /// streams (MuxChannel::open_stream), capability-negotiated via Hello.
  [[nodiscard]] std::shared_ptr<MuxChannel> open_mux(std::string host,
                                                     std::uint16_t port,
                                                     MuxOptions mux = {});

  void stop();

  /// Shards actually running (resolves option 0 to 1).
  [[nodiscard]] std::size_t shards() const noexcept;

  [[nodiscard]] ClientReactorCounters counters() const;

 private:
  std::shared_ptr<detail::ClientReactorImpl> impl_;
};

}  // namespace eyw::proto
