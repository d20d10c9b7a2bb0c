#include "proto/client_reactor.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "proto/backoff.hpp"
#include "proto/frame_assembler.hpp"
#include "proto/raw_frame_io.hpp"
#include "proto/reactor.hpp"
#include "proto/tcp.hpp"

namespace eyw::proto {
namespace detail {

namespace {

using Millis = std::chrono::milliseconds;

std::exception_ptr make_error(ErrorCode code, const std::string& what) {
  return std::make_exception_ptr(ProtoError(code, what));
}

bool set_nonblocking_quiet(int fd) noexcept {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) >= 0;
}

/// Exactly-once carrier for a completion crossing into the loop thread.
/// The normal path take()s the callback inside the posted task; if the
/// task is instead destroyed unrun (the reactor stopped between post and
/// dispatch — Reactor::stop drops leftovers promptly), the destructor
/// fails the exchange, so no completion is ever silently lost.
struct DoneCarrier {
  AsyncCompletionFn fn;

  explicit DoneCarrier(AsyncCompletionFn f) : fn(std::move(f)) {}
  DoneCarrier(const DoneCarrier&) = delete;
  DoneCarrier& operator=(const DoneCarrier&) = delete;

  [[nodiscard]] AsyncCompletionFn take() {
    AsyncCompletionFn out;
    out.swap(fn);
    return out;
  }

  ~DoneCarrier() {
    if (!fn) return;
    try {
      fn(AsyncResult{.reply = {},
                     .error = make_error(ErrorCode::kUnavailable,
                                         "client reactor stopped")});
    } catch (...) {
    }
  }
};

}  // namespace

/// One submitted exchange on the wire: where to deliver the outcome, and
/// its deadline. Lives in its stream's FIFO until its reply (or failure) —
/// the framing is strictly request-ordered per stream on both ends, so
/// the front of the FIFO always owns the stream's next incoming frame.
struct PendingExchange {
  AsyncCompletionFn done;
  Reactor::TimerId deadline = 0;
  bool deadline_armed = false;
  std::uint32_t stream = 0;
  /// Un-wrapped version-1 request bytes, kept only while the exchange may
  /// still be resubmitted after a hinted server shed (a shed frame was
  /// never applied, so the no-replay rule does not bind).
  std::vector<std::uint8_t> retry_frame;
  int retries_left = 0;
  /// Channel plumbing (the Hello handshake), not a caller's exchange:
  /// excluded from the channel's TransportStats byte accounting so a mux
  /// swarm reports the exact totals a socket-per-reporter swarm would.
  bool internal = false;
};

struct Shard {
  Reactor reactor;
  /// Loop-thread-owned while running; swept by stop() after the join.
  std::unordered_map<std::uint64_t, std::shared_ptr<ChannelCore>> channels;
};

/// All connection state of one channel. Everything below the atomics is
/// loop-thread-only: the facade marshals submissions in via Reactor::post
/// and the loop delivers completions out.
struct ChannelCore : std::enable_shared_from_this<ChannelCore> {
  ClientReactorImpl* impl = nullptr;
  /// Keeps the impl (and so the shard loop threads and `impl`/`shard`
  /// pointers) alive while any facade still holds this core. The cycle
  /// impl -> shard map -> core -> impl is broken by stop(), which every
  /// teardown path runs.
  std::shared_ptr<ClientReactorImpl> keepalive;
  Shard* shard = nullptr;
  std::uint64_t id = 0;
  std::string host;
  std::uint16_t port = 0;

  // Cross-thread stats (read by ClientChannel::stats()).
  std::atomic<std::uint64_t> msgs_sent{0};
  std::atomic<std::uint64_t> msgs_received{0};
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> bytes_received{0};

  // ---- loop-thread state ----
  enum class St { kDisconnected, kConnecting, kBackoff, kConnected };
  St st = St::kDisconnected;
  int fd = -1;
  std::uint32_t interest = 0;
  /// Stream 0's FIFO: every exchange of a connection that negotiated
  /// nothing (a ClientChannel, or a MuxChannel against a pre-Hello peer),
  /// and the Hello itself.
  std::deque<PendingExchange> pending;
  std::vector<std::uint8_t> out;  // unsent request bytes
  std::size_t out_off = 0;
  FrameAssembler assembler{kMaxTcpFrameBytes};

  // Connect phase.
  std::vector<sockaddr_storage> addrs;  // resolved once per connect phase
  std::vector<socklen_t> addr_lens;
  std::size_t addr_next = 0;
  int attempts_left = 0;
  Millis next_backoff{0};
  std::uint64_t jitter_state = 0;
  Reactor::TimerId conn_timer = 0;  // connect timeout or backoff delay
  bool conn_timer_armed = false;
  /// The last facade reference is gone: reap (close the socket, leave the
  /// shard map) as soon as the pending queue drains — in-flight
  /// completions still fire first, per the ClientChannel contract.
  bool released = false;

  // ---- streams (loop-thread-only except the atomics) ----
  bool mux_enabled = false;  // opened via open_mux: asks for kCapMux
  int mux_retry_max = 0;
  /// Per-connection negotiation state. Reset to kNone by drop_socket; a
  /// fresh connection resolves it again — kOff at once for a plain
  /// channel, through the Hello handshake for a mux one.
  enum class Neg { kNone, kPending, kOn, kOff };
  Neg neg = Neg::kNone;
  /// Facade-readable mirror of `neg` (0/1/2/3 in declaration order).
  std::atomic<int> neg_observed{0};
  void set_neg(Neg n) noexcept {
    neg = n;
    neg_observed.store(static_cast<int>(n), std::memory_order_relaxed);
  }
  /// One logical channel's queues: replies correlate FIFO within the
  /// stream; the outbox holds framed-but-unsent requests so the writer
  /// can interleave streams fairly instead of bursting one.
  struct StreamQ {
    std::deque<PendingExchange> pending;
    std::deque<std::vector<std::uint8_t>> outbox;
    bool in_ring = false;
  };
  std::unordered_map<std::uint32_t, StreamQ> streams;
  /// Round-robin scheduler: stream ids with a non-empty outbox, each
  /// yielding one frame per turn of the fill loop.
  std::deque<std::uint32_t> write_ring;
  /// Submissions made before the connection and its negotiation
  /// resolved, in order.
  struct Staged {
    std::uint32_t stream = 0;
    std::vector<std::uint8_t> frame;
    AsyncCompletionFn done;
    int retries_left = 0;
  };
  std::deque<Staged> staged;
  std::atomic<std::uint64_t> unavailable_retries{0};
};

/// Client-side reply backlog watermark for a mux core: the fill loop
/// stops moving outbox frames into the socket buffer past this many
/// unsent bytes (mirrors the server's write watermark).
constexpr std::size_t kMuxClientWriteWatermark = 256 * 1024;

struct ClientReactorImpl {
  ClientReactorOptions options;
  std::vector<std::unique_ptr<Shard>> shards;
  std::atomic<std::uint64_t> next_channel{1};
  std::atomic<std::size_t> rr{0};
  std::mutex stop_mu;
  bool stop_done = false;

  std::atomic<std::uint64_t> connects_attempted{0};
  std::atomic<std::uint64_t> connects_established{0};
  std::atomic<std::uint64_t> connect_retries{0};
  std::atomic<std::uint64_t> exchanges_started{0};
  std::atomic<std::uint64_t> exchanges_completed{0};
  std::atomic<std::uint64_t> exchanges_failed{0};
  std::atomic<std::uint64_t> deadline_drops{0};
  std::atomic<std::uint64_t> mux_negotiated{0};
  std::atomic<std::uint64_t> unavailable_retries{0};

  explicit ClientReactorImpl(ClientReactorOptions opts)
      : options(std::move(opts)) {
    if (options.shards == 0) options.shards = 1;
    if (options.connect_attempts < 1)
      throw std::invalid_argument("ClientReactor: connect_attempts < 1");
    shards.reserve(options.shards);
    for (std::size_t i = 0; i < options.shards; ++i) {
      auto shard = std::make_unique<Shard>();
      shard->reactor.start();
      shards.push_back(std::move(shard));
    }
  }

  ~ClientReactorImpl() { stop(); }

  void stop() {
    std::lock_guard<std::mutex> lock(stop_mu);
    if (stop_done) return;
    stop_done = true;
    // Joining the loops first makes the channel maps single-owner again;
    // the pending completions then fire from this thread.
    for (auto& shard : shards) shard->reactor.stop();
    for (auto& shard : shards) {
      for (auto& [id, core] : shard->channels) {
        const auto stopped = make_error(ErrorCode::kUnavailable,
                                        "client reactor stopped");
        for (PendingExchange& ex : core->pending)
          deliver_error(*core, ex, stopped);
        core->pending.clear();
        for (auto& [sid, q] : core->streams)
          for (PendingExchange& ex : q.pending)
            deliver_error(*core, ex, stopped);
        core->streams.clear();
        core->write_ring.clear();
        for (ChannelCore::Staged& st : core->staged) {
          PendingExchange ex;
          ex.done = std::move(st.done);
          deliver_error(*core, ex, stopped);
        }
        core->staged.clear();
        if (core->fd >= 0) {
          ::close(core->fd);
          core->fd = -1;
        }
      }
      shard->channels.clear();
    }
  }

  // --------------------------------------------------------- loop thread

  void deliver_ok(ChannelCore& core, PendingExchange& ex,
                  std::vector<std::uint8_t> reply) {
    exchanges_completed.fetch_add(1, std::memory_order_relaxed);
    if (!reply.empty() && !ex.internal) {
      core.msgs_received.fetch_add(1, std::memory_order_relaxed);
      core.bytes_received.fetch_add(reply.size(), std::memory_order_relaxed);
    }
    if (!ex.done) return;
    try {
      ex.done(AsyncResult{.reply = std::move(reply), .error = nullptr});
    } catch (...) {
      // A throwing completion never takes down the loop (same policy as
      // every other reactor callback).
    }
  }

  void deliver_error(ChannelCore& /*core*/, PendingExchange& ex,
                     std::exception_ptr err) {
    exchanges_failed.fetch_add(1, std::memory_order_relaxed);
    if (!ex.done) return;
    try {
      ex.done(AsyncResult{.reply = {}, .error = std::move(err)});
    } catch (...) {
    }
  }

  void disarm_deadline(ChannelCore& core, PendingExchange& ex) {
    if (!ex.deadline_armed) return;
    core.shard->reactor.cancel_deadline(ex.deadline);
    ex.deadline_armed = false;
  }

  void disarm_conn_timer(ChannelCore& core) {
    if (!core.conn_timer_armed) return;
    core.shard->reactor.cancel_deadline(core.conn_timer);
    core.conn_timer_armed = false;
  }

  /// Tear down the connection and fail every pending exchange. Leaves the
  /// channel kDisconnected — the next exchange reconnects (or, if the
  /// facade is gone, the emptied channel is reaped).
  void fail_all(const std::shared_ptr<ChannelCore>& core,
                std::exception_ptr err) {
    disarm_conn_timer(*core);
    drop_socket(*core);
    std::deque<PendingExchange> doomed;
    doomed.swap(core->pending);
    for (PendingExchange& ex : doomed) {
      disarm_deadline(*core, ex);
      deliver_error(*core, ex, err);
    }
    drain_stream_queues(core, [&](PendingExchange& ex) {
      deliver_error(*core, ex, err);
    });
    maybe_reap(core);
  }

  /// Pull every exchange not on stream 0's FIFO (per-stream pendings, then
  /// staged submissions in order) out of the core and hand each to `sink`
  /// with its deadline disarmed.
  template <typename Sink>
  void drain_stream_queues(const std::shared_ptr<ChannelCore>& core,
                           Sink&& sink) {
    ChannelCore& c = *core;
    std::unordered_map<std::uint32_t, ChannelCore::StreamQ> doomed;
    doomed.swap(c.streams);
    c.write_ring.clear();
    for (auto& [sid, q] : doomed) {
      for (PendingExchange& ex : q.pending) {
        disarm_deadline(c, ex);
        sink(ex);
      }
    }
    std::deque<ChannelCore::Staged> staged;
    staged.swap(c.staged);
    for (ChannelCore::Staged& st : staged) {
      PendingExchange ex;
      ex.done = std::move(st.done);
      sink(ex);
    }
  }

  /// Complete every pending exchange with an empty reply (responses lost:
  /// the peer closed cleanly before answering — same surfacing as a
  /// dropped loopback response).
  void complete_all_empty(const std::shared_ptr<ChannelCore>& core) {
    disarm_conn_timer(*core);
    drop_socket(*core);
    std::deque<PendingExchange> orphaned;
    orphaned.swap(core->pending);
    for (PendingExchange& ex : orphaned) {
      disarm_deadline(*core, ex);
      deliver_ok(*core, ex, {});
    }
    drain_stream_queues(
        core, [&](PendingExchange& ex) { deliver_ok(*core, ex, {}); });
    maybe_reap(core);
  }

  void drop_socket(ChannelCore& core) {
    if (core.fd >= 0) {
      core.shard->reactor.remove_fd(core.fd);
      ::close(core.fd);
      core.fd = -1;
    }
    core.st = ChannelCore::St::kDisconnected;
    core.interest = 0;
    core.out.clear();
    core.out_off = 0;
    core.assembler = FrameAssembler{kMaxTcpFrameBytes};
    // Capabilities are per connection: the next connect resolves them anew.
    core.set_neg(ChannelCore::Neg::kNone);
  }

  /// A released channel whose completions have all fired is dead state:
  /// close its socket and drop it from the shard map (breaking the
  /// core->keepalive cycle for this core).
  void maybe_reap(const std::shared_ptr<ChannelCore>& core) {
    if (!core->released || !core->pending.empty() ||
        !core->streams.empty() || !core->staged.empty())
      return;
    disarm_conn_timer(*core);
    drop_socket(*core);
    core->shard->channels.erase(core->id);
  }

  void submit(const std::shared_ptr<ChannelCore>& core,
              std::vector<std::uint8_t> frame, AsyncCompletionFn done,
              std::uint32_t stream, int retries_override = -1) {
    ChannelCore& c = *core;
    exchanges_started.fetch_add(1, std::memory_order_relaxed);
    c.msgs_sent.fetch_add(1, std::memory_order_relaxed);
    c.bytes_sent.fetch_add(frame.size(), std::memory_order_relaxed);
    const int retries =
        retries_override >= 0 ? retries_override : c.mux_retry_max;
    if (c.st == ChannelCore::St::kConnected &&
        c.neg != ChannelCore::Neg::kPending) {
      try {
        route_mux_submission(core, stream, std::move(frame), std::move(done),
                             retries);
        pump(core);
      } catch (...) {
        // Post-commit failure: the exchange sits in its stream queue, so
        // failing the channel completes it with everything else.
        fail_all(core, std::current_exception());
      }
      return;
    }
    // Connection or negotiation unresolved: stage in order. Flushed once
    // both resolve (flush_staged); failed with everything else on
    // teardown. Until push_back succeeds only `st` reaches the completion
    // (its move is noexcept, so a throwing push leaves it intact).
    ChannelCore::Staged st{.stream = stream,
                           .frame = std::move(frame),
                           .done = std::move(done),
                           .retries_left = retries};
    try {
      c.staged.push_back(std::move(st));
    } catch (...) {
      PendingExchange ex;
      ex.done = std::move(st.done);
      deliver_error(c, ex, std::current_exception());
      return;
    }
    try {
      if (c.st == ChannelCore::St::kDisconnected) begin_connect_phase(core);
    } catch (...) {
      fail_all(core, std::current_exception());
    }
  }

  void arm_exchange_deadline(const std::shared_ptr<ChannelCore>& core,
                             PendingExchange& ex) {
    // deque references stay valid across push_back/pop_front, and a
    // cancelled timer can never fire, so &ex is safe for the armed
    // lifetime of this deadline.
    PendingExchange* target = &ex;
    ex.deadline = core->shard->reactor.add_deadline(
        options.io_timeout, [this, weak = std::weak_ptr(core), target] {
          const auto locked = weak.lock();
          if (!locked || !target->deadline_armed) return;
          // Spent timer: unarm before fail_all so it is not re-cancelled.
          target->deadline_armed = false;
          deadline_drops.fetch_add(1, std::memory_order_relaxed);
          fail_all(locked,
                   make_error(ErrorCode::kInternal,
                              "client exchange: deadline expired"));
        });
    ex.deadline_armed = true;
  }

  // ------------------------------------------------------------- streams

  /// Queue one submission on a connection whose negotiation resolved. Mux
  /// on: wrap the frame onto its stream, join that stream's FIFO + outbox
  /// (the fill loop interleaves streams fairly). Mux off, or stream 0:
  /// stream 0's FIFO, framed straight into the out buffer — an
  /// un-negotiated server answers strictly in request order, so
  /// shared-FIFO correlation stays exact, just serialized. Pre-commit
  /// failures (allocation while encoding) complete `done` directly; a
  /// throw after the exchange joined a queue is the caller's cue to fail
  /// the channel.
  void route_mux_submission(const std::shared_ptr<ChannelCore>& core,
                            std::uint32_t stream,
                            std::vector<std::uint8_t> frame,
                            AsyncCompletionFn done, int retries) {
    ChannelCore& c = *core;
    const bool mux_on = c.neg == ChannelCore::Neg::kOn;
    PendingExchange ex;
    ex.done = std::move(done);
    if (mux_on && stream != 0) {
      ex.stream = stream;
      ChannelCore::StreamQ* q = nullptr;
      try {
        // Retry keeps the un-wrapped version-1 bytes (the only copy on
        // this path, and only when the caller asked for retries); the
        // wrap itself is an in-place header patch — the encoder reserved
        // mux headroom, so steady-state mux send allocates nothing. An
        // externally produced buffer without headroom still works:
        // mux_frame_with_prefix_inplace reallocates it once.
        if (retries > 0) {
          ex.retries_left = retries;
          ex.retry_frame = frame;
        }
        std::vector<std::uint8_t> framed = std::move(frame);
        mux_frame_with_prefix_inplace(framed, stream);
        q = &c.streams[stream];
        q->outbox.push_back(std::move(framed));
        try {
          q->pending.push_back(std::move(ex));
        } catch (...) {
          q->outbox.pop_back();
          throw;
        }
      } catch (...) {
        deliver_error(c, ex, std::current_exception());
        return;
      }
      // Committed: from here a failure throws to the caller, whose
      // fail_all completes the queued exchange with everything else.
      if (!q->in_ring) {
        c.write_ring.push_back(stream);
        q->in_ring = true;
      }
      arm_exchange_deadline(core, q->pending.back());
      return;
    }
    try {
      c.pending.push_back(std::move(ex));
    } catch (...) {
      deliver_error(c, ex, std::current_exception());
      return;
    }
    raw::append_framed(c.out, frame);
    arm_exchange_deadline(core, c.pending.back());
  }

  /// Move outbox frames into the socket buffer, one frame per ready
  /// stream per turn (round-robin), until the unsent backlog reaches the
  /// watermark. Fairness is the point: a stream with a deep outbox gets
  /// exactly as many write slots as its siblings.
  void fill_out(ChannelCore& c) {
    while (!c.write_ring.empty() &&
           c.out.size() - c.out_off < kMuxClientWriteWatermark) {
      const std::uint32_t sid = c.write_ring.front();
      c.write_ring.pop_front();
      const auto it = c.streams.find(sid);
      if (it == c.streams.end()) continue;
      ChannelCore::StreamQ& q = it->second;
      q.in_ring = false;
      if (q.outbox.empty()) continue;
      std::vector<std::uint8_t> framed = std::move(q.outbox.front());
      q.outbox.pop_front();
      c.out.insert(c.out.end(), framed.begin(), framed.end());
      if (!q.outbox.empty()) {
        c.write_ring.push_back(sid);
        q.in_ring = true;
      }
    }
  }

  /// First exchange on every fresh mux connection: Hello(kCapMux), sent
  /// on stream 0 so it correlates FIFO whatever the peer speaks.
  void start_negotiation(const std::shared_ptr<ChannelCore>& core) {
    ChannelCore& c = *core;
    c.set_neg(ChannelCore::Neg::kPending);
    exchanges_started.fetch_add(1, std::memory_order_relaxed);
    try {
      PendingExchange hx;
      hx.internal = true;
      hx.done = [this, weak = std::weak_ptr(core)](AsyncResult res) {
        if (const auto locked = weak.lock())
          on_hello_reply(locked, std::move(res));
      };
      c.pending.push_back(std::move(hx));
      raw::append_framed(c.out, Hello{.capabilities = kCapMux}.encode(0));
      arm_exchange_deadline(core, c.pending.back());
      pump(core);
    } catch (...) {
      fail_all(core, std::current_exception());
    }
  }

  void on_hello_reply(const std::shared_ptr<ChannelCore>& core,
                      AsyncResult res) {
    ChannelCore& c = *core;
    // A teardown already resolved this connection (drop_socket reset the
    // state and failed the staged queue); nothing left to flush.
    if (c.st != ChannelCore::St::kConnected ||
        c.neg != ChannelCore::Neg::kPending)
      return;
    bool on = false;
    if (!res.error && !res.reply.empty()) {
      try {
        const Envelope env = decode_envelope(res.reply);
        if (env.kind == MsgKind::kHello)
          on = (Hello::decode(env).capabilities & kCapMux) != 0;
        // Any other reply — typically Error(kUnknownKind) from a peer
        // predating the handshake — means no capabilities.
      } catch (...) {
        on = false;
      }
    }
    c.set_neg(on ? ChannelCore::Neg::kOn : ChannelCore::Neg::kOff);
    if (on) mux_negotiated.fetch_add(1, std::memory_order_relaxed);
    flush_staged(core);
  }

  /// Route every staged submission, in order, now that the connection and
  /// its negotiation resolved. Each leaves `staged` only as it is routed,
  /// so a mid-flush failure still completes the rest through fail_all.
  void flush_staged(const std::shared_ptr<ChannelCore>& core) {
    ChannelCore& c = *core;
    try {
      while (!c.staged.empty()) {
        ChannelCore::Staged st = std::move(c.staged.front());
        c.staged.pop_front();
        route_mux_submission(core, st.stream, std::move(st.frame),
                             std::move(st.done), st.retries_left);
      }
      pump(core);
    } catch (...) {
      fail_all(core, std::current_exception());
    }
  }

  /// Reply dispatch: on a negotiated connection strip the stream id in
  /// place (otherwise every reply is stream 0's) and hand the version-1
  /// bytes to that stream's FIFO head. Returns false when the channel was
  /// torn down.
  bool deliver_reply(const std::shared_ptr<ChannelCore>& core,
                     std::vector<std::uint8_t> frame) {
    ChannelCore& c = *core;
    std::uint32_t stream = 0;
    try {
      if (c.neg == ChannelCore::Neg::kOn) stream = strip_stream_inplace(frame);
    } catch (const ProtoError&) {
      fail_all(core, make_error(ErrorCode::kInternal,
                                "client recv: undecodable mux envelope"));
      return false;
    }
    PendingExchange ex;
    if (stream == 0) {
      if (c.pending.empty()) {
        fail_all(core, make_error(ErrorCode::kInternal,
                                  "client recv: unsolicited reply"));
        return false;
      }
      ex = std::move(c.pending.front());
      c.pending.pop_front();
    } else {
      const auto it = c.streams.find(stream);
      if (it == c.streams.end() || it->second.pending.empty()) {
        fail_all(core,
                 make_error(ErrorCode::kInternal,
                            "client recv: reply on an idle stream"));
        return false;
      }
      ChannelCore::StreamQ& q = it->second;
      ex = std::move(q.pending.front());
      q.pending.pop_front();
      if (q.pending.empty() && q.outbox.empty()) {
        // in_ring can still be set (outbox just drained); the fill loop
        // skips reaped ids, so erasing here is safe.
        c.streams.erase(it);
      }
    }
    disarm_deadline(c, ex);
    if (ex.retries_left > 0 && !ex.retry_frame.empty()) {
      const std::uint32_t hint = shed_retry_hint(frame);
      if (hint != 0) {
        schedule_retry(core, std::move(ex), hint);
        return true;
      }
    }
    deliver_ok(c, ex, std::move(frame));
    return true;
  }

  /// retry_after_ms of a shed reply (Error(kUnavailable) carrying the
  /// hint), else 0. Hintless refusals — e.g. a stream id above the
  /// server's cap — are permanent and go to the caller untouched.
  [[nodiscard]] static std::uint32_t shed_retry_hint(
      std::span<const std::uint8_t> reply) noexcept {
    if (peek_kind(reply) != MsgKind::kError) return 0;
    try {
      const ErrorReply err = ErrorReply::decode(decode_envelope(reply));
      if (err.code != ErrorCode::kUnavailable) return 0;
      return err.retry_after_ms;
    } catch (...) {
      return 0;
    }
  }

  /// The server shed this exchange before applying it; resubmit the same
  /// version-1 bytes on the same stream after the hinted delay. The
  /// DoneCarrier keeps the completion exactly-once if the reactor stops
  /// while the timer is armed.
  void schedule_retry(const std::shared_ptr<ChannelCore>& core,
                      PendingExchange ex, std::uint32_t delay_ms) {
    unavailable_retries.fetch_add(1, std::memory_order_relaxed);
    core->unavailable_retries.fetch_add(1, std::memory_order_relaxed);
    auto carrier = std::make_shared<DoneCarrier>(std::move(ex.done));
    (void)core->shard->reactor.add_deadline(
        Millis(delay_ms),
        [this, weak = std::weak_ptr(core), carrier,
         frame = std::move(ex.retry_frame), stream = ex.stream,
         retries = ex.retries_left - 1]() mutable {
          if (const auto locked = weak.lock())
            submit(locked, std::move(frame), carrier->take(), stream,
                   retries);
        });
  }

  // ------------------------------------------------------------- connect

  void begin_connect_phase(const std::shared_ptr<ChannelCore>& core) {
    ChannelCore& c = *core;
    c.attempts_left = options.connect_attempts;
    c.next_backoff = options.connect_backoff;
    // Re-resolve per phase: a reconnect after failover must not chase a
    // stale address list.
    c.addrs.clear();
    c.addr_lens.clear();
    c.addr_next = 0;
    start_connect(core);
  }

  bool resolve(ChannelCore& c) {
    if (!c.addrs.empty()) return true;
    struct addrinfo hints {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo* res = nullptr;
    const std::string service = std::to_string(c.port);
    if (::getaddrinfo(c.host.c_str(), service.c_str(), &hints, &res) != 0 ||
        res == nullptr)
      return false;
    for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
      sockaddr_storage ss{};
      std::memcpy(&ss, ai->ai_addr, ai->ai_addrlen);
      c.addrs.push_back(ss);
      c.addr_lens.push_back(ai->ai_addrlen);
    }
    ::freeaddrinfo(res);
    return !c.addrs.empty();
  }

  void start_connect(const std::shared_ptr<ChannelCore>& core) {
    ChannelCore& c = *core;
    connects_attempted.fetch_add(1, std::memory_order_relaxed);
    if (!resolve(c)) {
      retry_or_fail(core);
      return;
    }
    const std::size_t slot = c.addr_next++ % c.addrs.size();
    const auto* addr = reinterpret_cast<const sockaddr*>(&c.addrs[slot]);
    const int fd = ::socket(addr->sa_family, SOCK_STREAM, 0);
    if (fd < 0 || !set_nonblocking_quiet(fd)) {
      if (fd >= 0) ::close(fd);
      retry_or_fail(core);
      return;
    }
    const int rv = ::connect(fd, addr, c.addr_lens[slot]);
    if (rv == 0) {
      c.fd = fd;
      register_connecting(core);  // on_connected via the EPOLLOUT it gets
      return;
    }
    if (errno != EINPROGRESS) {
      ::close(fd);
      retry_or_fail(core);
      return;
    }
    c.fd = fd;
    register_connecting(core);
  }

  void register_connecting(const std::shared_ptr<ChannelCore>& core) {
    ChannelCore& c = *core;
    c.st = ChannelCore::St::kConnecting;
    try {
      c.shard->reactor.add_fd(
          c.fd, EPOLLOUT, [this, weak = std::weak_ptr(core)](
                              std::uint32_t events) {
            if (const auto locked = weak.lock()) on_event(locked, events);
          });
      c.interest = EPOLLOUT;
    } catch (const ProtoError&) {
      ::close(c.fd);
      c.fd = -1;
      retry_or_fail(core);
      return;
    }
    c.conn_timer = c.shard->reactor.add_deadline(
        options.connect_timeout, [this, weak = std::weak_ptr(core)] {
          const auto locked = weak.lock();
          if (!locked || !locked->conn_timer_armed) return;
          locked->conn_timer_armed = false;
          // Attempt timed out: drop the half-open socket and retry.
          drop_socket(*locked);
          retry_or_fail(locked);
        });
    c.conn_timer_armed = true;
  }

  void retry_or_fail(const std::shared_ptr<ChannelCore>& core) {
    ChannelCore& c = *core;
    if (--c.attempts_left <= 0) {
      fail_all(core, make_error(ErrorCode::kInternal,
                             "client connect to " + c.host + ":" +
                                 std::to_string(c.port) + " failed after " +
                                 std::to_string(options.connect_attempts) +
                                 " attempts"));
      return;
    }
    connect_retries.fetch_add(1, std::memory_order_relaxed);
    const Millis delay = jittered_backoff(c.next_backoff, c.jitter_state);
    c.next_backoff *= 2;
    c.st = ChannelCore::St::kBackoff;
    c.conn_timer = c.shard->reactor.add_deadline(
        delay, [this, weak = std::weak_ptr(core)] {
          const auto locked = weak.lock();
          if (!locked || !locked->conn_timer_armed) return;
          locked->conn_timer_armed = false;
          start_connect(locked);
        });
    c.conn_timer_armed = true;
  }

  void on_connected(const std::shared_ptr<ChannelCore>& core) {
    ChannelCore& c = *core;
    disarm_conn_timer(c);
    connects_established.fetch_add(1, std::memory_order_relaxed);
    // Request/reply traffic is one small segment each way; Nagle
    // coalescing would only add latency.
    const int one = 1;
    (void)::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    c.st = ChannelCore::St::kConnected;
    // A mux channel sends Hello before anything else; staged submissions
    // flush when its answer resolves the capability (they must not hit
    // the wire wrapped if the peer turns out not to speak streams). A
    // plain channel asks for nothing: it is stream 0 of a connection that
    // negotiated nothing, and flushes now. Either way each exchange's
    // io_timeout clock starts at its flush (the connect phase had its own
    // bound).
    if (c.mux_enabled) {
      start_negotiation(core);
      return;
    }
    c.set_neg(ChannelCore::Neg::kOff);
    flush_staged(core);
  }

  // ----------------------------------------------------- connected I/O

  void on_event(const std::shared_ptr<ChannelCore>& core,
                std::uint32_t events) {
    ChannelCore& c = *core;
    if (c.st == ChannelCore::St::kConnecting) {
      if (events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) {
        int err = 0;
        socklen_t len = sizeof(err);
        if ((events & (EPOLLERR | EPOLLHUP)) ||
            ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
            err != 0) {
          disarm_conn_timer(c);
          drop_socket(c);
          retry_or_fail(core);
          return;
        }
        on_connected(core);
      }
      return;
    }
    if (c.st != ChannelCore::St::kConnected) return;
    if (events & EPOLLERR) {
      fail_all(core,
               make_error(ErrorCode::kInternal, "client socket error"));
      return;
    }
    if (events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) {
      if (!read_some(core)) return;  // channel torn down
    }
    if (c.st == ChannelCore::St::kConnected) pump(core);
  }

  /// Drain replies, bounded per event like the server side. Returns false
  /// when the channel was torn down (EOF or error).
  bool read_some(const std::shared_ptr<ChannelCore>& core) {
    ChannelCore& c = *core;
    std::uint8_t buf[16384];
    for (int burst = 0; burst < 16; ++burst) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        if (!c.assembler.feed(std::span<const std::uint8_t>(
                buf, static_cast<std::size_t>(n)))) {
          fail_all(core,
                   make_error(ErrorCode::kOversized,
                              "client recv: declared length above cap"));
          return false;
        }
        if (!drain_replies(core)) return false;
        continue;
      }
      if (n == 0) {
        on_eof(core);
        return false;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      fail_all(core, make_error(ErrorCode::kInternal,
                                std::string("client recv: ") +
                                    std::strerror(errno)));
      return false;
    }
    return true;
  }

  bool drain_replies(const std::shared_ptr<ChannelCore>& core) {
    ChannelCore& c = *core;
    while (auto frame = c.assembler.next())
      if (!deliver_reply(core, std::move(*frame))) return false;
    maybe_reap(core);
    // The reap (released facade, queue drained) closes the socket; tell
    // read_some to stop. A released channel still awaiting replies keeps
    // reading.
    return c.fd >= 0;
  }

  void on_eof(const std::shared_ptr<ChannelCore>& core) {
    ChannelCore& c = *core;
    // On a negotiated mux connection a truncated frame cannot be
    // attributed to a stream before its id arrives; every outstanding
    // exchange surfaces as a lost response below.
    if (c.neg != ChannelCore::Neg::kOn && c.assembler.mid_frame() &&
        !c.pending.empty()) {
      // The head reply was truncated mid-frame; everything behind it is a
      // lost response.
      PendingExchange head = std::move(c.pending.front());
      c.pending.pop_front();
      disarm_deadline(c, head);
      deliver_error(c, head,
                    make_error(ErrorCode::kTruncated,
                               "client recv: peer closed mid-frame"));
    }
    complete_all_empty(core);
  }

  void pump(const std::shared_ptr<ChannelCore>& core) {
    ChannelCore& c = *core;
    for (;;) {
      fill_out(c);
      bool blocked = false;
      while (c.out_off < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_off += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          blocked = true;
          break;
        }
        fail_all(core, make_error(ErrorCode::kInternal,
                                  std::string("client send: ") +
                                      std::strerror(errno)));
        return;
      }
      if (c.out_off >= c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
      // A fully-drained buffer with a non-empty ring means the watermark
      // was the only thing holding stream frames back — fill again.
      if (blocked || c.write_ring.empty() || c.out_off < c.out.size())
        break;
    }
    update_interest(core);
  }

  void update_interest(const std::shared_ptr<ChannelCore>& core) {
    ChannelCore& c = *core;
    std::uint32_t want = EPOLLIN | EPOLLRDHUP;
    if (c.out_off < c.out.size()) want |= EPOLLOUT;
    if (want == c.interest) return;
    try {
      c.shard->reactor.modify_fd(c.fd, want);
      c.interest = want;
    } catch (const ProtoError&) {
      fail_all(core, make_error(ErrorCode::kInternal,
                                "client epoll interest update failed"));
    }
  }
};

/// The one way an exchange enters a core, from any thread. A frame the
/// wire cap cannot carry is refused here with kOversized, before a byte
/// is sent: a stream frame grows by its 4-byte stream id when wrapped,
/// and an over-cap declared length would make the server close the
/// socket under every sibling stream (no legal envelope is affected: the
/// largest is kMaxTcpFrameBytes - 4). Otherwise the frame is posted to
/// the loop thread; the carrier fires the completion exactly once even
/// if the reactor refuses the post.
void post_exchange(const std::shared_ptr<ChannelCore>& core,
                   std::uint32_t stream, std::vector<std::uint8_t> frame,
                   AsyncCompletionFn done) {
  const std::size_t wrap =
      stream == 0 ? 0 : kMuxEnvelopeHeaderBytes - kEnvelopeHeaderBytes;
  if (frame.size() > kMaxTcpFrameBytes - wrap) {
    if (done)
      done(AsyncResult{.reply = {},
                       .error = make_error(ErrorCode::kOversized,
                                           "client send: frame above cap")});
    return;
  }
  auto carrier = std::make_shared<DoneCarrier>(std::move(done));
  ClientReactorImpl* impl = core->impl;
  (void)core->shard->reactor.post(
      [impl, core, f = std::move(frame), carrier, stream]() mutable {
        impl->submit(core, std::move(f), carrier->take(), stream);
      });
}

/// The last facade reference is gone: mark the core released on its loop
/// thread; it is reaped (socket closed, shard-map entry erased) as soon as
/// the last in-flight completion has fired. A refused post means the
/// reactor stopped — its stop() sweep owns the cleanup.
void release(const std::shared_ptr<ChannelCore>& core) {
  ClientReactorImpl* impl = core->impl;
  (void)core->shard->reactor.post([impl, core] {
    core->released = true;
    impl->maybe_reap(core);
  });
}

TransportStats stats_of(const ChannelCore& core) {
  TransportStats s;
  s.messages_sent = core.msgs_sent.load(std::memory_order_relaxed);
  s.messages_received = core.msgs_received.load(std::memory_order_relaxed);
  s.bytes_sent = core.bytes_sent.load(std::memory_order_relaxed);
  s.bytes_received = core.bytes_received.load(std::memory_order_relaxed);
  return s;
}

}  // namespace detail

// ---------------------------------------------------------- ClientChannel

ClientChannel::ClientChannel(std::shared_ptr<detail::ChannelCore> core)
    : core_(std::move(core)) {}

void ClientChannel::exchange_async(std::vector<std::uint8_t> frame,
                                   AsyncCompletionFn done) {
  detail::post_exchange(core_, 0, std::move(frame), std::move(done));
}

void ClientChannel::close() {
  detail::ClientReactorImpl* impl = core_->impl;
  (void)core_->shard->reactor.post([impl, core = core_] {
    impl->fail_all(core, std::make_exception_ptr(ProtoError(
                             ErrorCode::kInternal, "channel closed")));
  });
}

ClientChannel::~ClientChannel() { detail::release(core_); }

TransportStats ClientChannel::stats() const {
  return detail::stats_of(*core_);
}

// ------------------------------------------------- MuxChannel / MuxStream

MuxChannel::MuxChannel(std::shared_ptr<detail::ChannelCore> core)
    : core_(std::move(core)) {}

// Streams hold the channel, so this runs only once every facade is gone.
MuxChannel::~MuxChannel() { detail::release(core_); }

std::shared_ptr<MuxStream> MuxChannel::open_stream() {
  return open_stream(next_id_.fetch_add(1, std::memory_order_relaxed));
}

std::shared_ptr<MuxStream> MuxChannel::open_stream(std::uint32_t id) {
  return std::shared_ptr<MuxStream>(
      new MuxStream(shared_from_this(), id));
}

bool MuxChannel::mux_negotiated() const noexcept {
  return core_->neg_observed.load(std::memory_order_relaxed) ==
         static_cast<int>(detail::ChannelCore::Neg::kOn);
}

TransportStats MuxChannel::stats() const { return detail::stats_of(*core_); }

std::uint64_t MuxChannel::unavailable_retries() const noexcept {
  return core_->unavailable_retries.load(std::memory_order_relaxed);
}

std::uint32_t MuxChannel::streams_opened() const noexcept {
  return next_id_.load(std::memory_order_relaxed) - 1;
}

MuxStream::MuxStream(std::shared_ptr<MuxChannel> channel, std::uint32_t id)
    : channel_(std::move(channel)), id_(id) {}

void MuxStream::exchange_async(std::vector<std::uint8_t> frame,
                               AsyncCompletionFn done) {
  detail::post_exchange(channel_->core_, id_, std::move(frame),
                        std::move(done));
}

// ---------------------------------------------------------- ClientReactor

ClientReactor::ClientReactor(ClientReactorOptions options)
    : impl_(std::make_shared<detail::ClientReactorImpl>(std::move(options))) {
}

ClientReactor::~ClientReactor() {
  if (impl_) impl_->stop();
}

namespace {

std::shared_ptr<detail::ChannelCore> make_core(
    const std::shared_ptr<detail::ClientReactorImpl>& impl, std::string host,
    std::uint16_t port) {
  const std::uint64_t id =
      impl->next_channel.fetch_add(1, std::memory_order_relaxed);
  detail::Shard* shard =
      impl->shards[impl->rr.fetch_add(1, std::memory_order_relaxed) %
                   impl->shards.size()]
          .get();
  auto core = std::make_shared<detail::ChannelCore>();
  core->impl = impl.get();
  core->keepalive = impl;
  core->shard = shard;
  core->id = id;
  core->host = std::move(host);
  core->port = port;
  // Independent deterministic jitter stream per channel: a swarm opened
  // from one seed still spreads its reconnects.
  core->jitter_state =
      impl->options.backoff_jitter_seed ^ (id * 0x9e3779b97f4a7c15ull);
  (void)shard->reactor.post(
      [shard, core] { shard->channels.emplace(core->id, core); });
  return core;
}

}  // namespace

std::shared_ptr<ClientChannel> ClientReactor::open(std::string host,
                                                   std::uint16_t port) {
  return std::shared_ptr<ClientChannel>(
      new ClientChannel(make_core(impl_, std::move(host), port)));
}

std::shared_ptr<MuxChannel> ClientReactor::open_mux(std::string host,
                                                    std::uint16_t port,
                                                    MuxOptions mux) {
  auto core = make_core(impl_, std::move(host), port);
  core->mux_enabled = true;
  core->mux_retry_max =
      mux.max_unavailable_retries > 0 ? mux.max_unavailable_retries : 0;
  return std::shared_ptr<MuxChannel>(new MuxChannel(std::move(core)));
}

void ClientReactor::stop() { impl_->stop(); }

std::size_t ClientReactor::shards() const noexcept {
  return impl_->shards.size();
}

ClientReactorCounters ClientReactor::counters() const {
  ClientReactorCounters c;
  c.connects_attempted =
      impl_->connects_attempted.load(std::memory_order_relaxed);
  c.connects_established =
      impl_->connects_established.load(std::memory_order_relaxed);
  c.connect_retries = impl_->connect_retries.load(std::memory_order_relaxed);
  c.exchanges_started =
      impl_->exchanges_started.load(std::memory_order_relaxed);
  c.exchanges_completed =
      impl_->exchanges_completed.load(std::memory_order_relaxed);
  c.exchanges_failed =
      impl_->exchanges_failed.load(std::memory_order_relaxed);
  c.deadline_drops = impl_->deadline_drops.load(std::memory_order_relaxed);
  c.mux_negotiated = impl_->mux_negotiated.load(std::memory_order_relaxed);
  c.unavailable_retries =
      impl_->unavailable_retries.load(std::memory_order_relaxed);
  for (const auto& shard : impl_->shards)
    c.eventfd_wakeups += shard->reactor.eventfd_wakeups();
  return c;
}

}  // namespace eyw::proto
