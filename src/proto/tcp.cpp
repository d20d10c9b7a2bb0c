#include "proto/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "proto/buffer_pool.hpp"
#include "proto/frame_assembler.hpp"
#include "proto/raw_frame_io.hpp"
#include "proto/reactor.hpp"

namespace eyw::proto {

namespace {

using Millis = std::chrono::milliseconds;

[[noreturn]] void throw_io(const std::string& what) {
  throw ProtoError(ErrorCode::kInternal,
                   what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw_io("fcntl(O_NONBLOCK)");
}

void set_nodelay(int fd) {
  // One exchange is one request segment + one reply segment; without
  // NODELAY, Nagle + delayed ACK can stall a round trip by ~40 ms
  // whenever a frame leaves in more than one segment (measured delta in
  // docs/perf.md).
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Wait for `events` on fd. Returns true when ready, false on timeout.
/// The acceptor's wake-up poll, so stop() is noticed within `timeout`.
bool poll_wait(int fd, short events, Millis timeout) {
  struct pollfd pfd {};
  pfd.fd = fd;
  pfd.events = events;
  for (;;) {
    const int rv = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
    if (rv < 0) {
      if (errno == EINTR) continue;
      throw_io("poll");
    }
    return rv > 0;
  }
}

}  // namespace

// ---------------------------------------------------------------- server
//
// One acceptor thread + N reactor shards. Each connection lives on
// exactly one shard and all of its state transitions run on that shard's
// loop thread, so the per-connection state machine needs no locks; the
// only cross-thread traffic is the acceptor handing over a fresh fd and
// an async handler completion from another thread marshalling its reply
// back — both via Reactor::post. A completion that fires on the loop
// thread while dispatch_stream is still handing its frame over (a
// synchronous handler, a dispatcher shed, a submission the dispatcher ran
// inline) hands the reply straight back instead: no post, no eventfd.
//
// Connection state machine (all on the loop thread). A connection is a
// set of streams, each with one handler in flight and a FIFO behind it;
// one that never negotiated mux has exactly one, stream 0:
//
//        ┌──────── readable ────────┐
//        v                          │
//   [reading] --frame complete--> [stream's handler in flight]
//   --completion (inline, or posted)--> [reply appended, flushing] -->
//   next queued frame on that stream, or back to [reading]
//
// Backpressure: a mux connection stops reading once its unflushed replies
// pass a watermark; a version-1 connection stops while stream 0 has a
// handler in flight or a reply unflushed — a client that floods
// pipelined requests fills its kernel socket buffer and blocks, it cannot
// grow server-side queues. The per-frame io_timeout deadline (reactor
// wheel) bounds frame completion and reply drain; idle-between-frames is
// unbounded by design.

struct FrameServer::Impl {
  /// Close-on-destroy fd ownership for the accept -> adopt handover
  /// (shared_ptr'd because Reactor::Task requires copyable closures).
  struct FdCloser {
    int fd;
    explicit FdCloser(int f) noexcept : fd(f) {}
    FdCloser(const FdCloser&) = delete;
    FdCloser& operator=(const FdCloser&) = delete;
    ~FdCloser() {
      if (fd >= 0) ::close(fd);
    }
    int release() noexcept { return std::exchange(fd, -1); }
  };

  /// One logical channel of a connection. `handler_pending` is the
  /// per-stream in-flight gate (exactly one handler per stream, FIFO);
  /// `queue` holds work that arrived behind it — either a full frame or a
  /// shed marker whose payload was already dropped but whose refusal must
  /// still leave in arrival order, so the client's positional per-stream
  /// reply correlation never slips.
  struct StreamState {
    struct Work {
      std::vector<std::uint8_t> frame;  // empty when shed
      bool shed = false;
    };
    bool handler_pending = false;
    std::deque<Work> queue;
  };

  struct Conn {
    explicit Conn(BufferPool* pool)
        : assembler(kMaxTcpFrameBytes, pool) {}

    int fd = -1;
    std::uint64_t gen = 0;
    FrameAssembler assembler;
    std::vector<std::uint8_t> out;  // framed reply/replies being written
    std::size_t out_off = 0;
    bool eof = false;
    bool close_after_flush = false;
    bool deadline_armed = false;
    Reactor::TimerId deadline = 0;
    std::uint64_t deadline_frame = 0;  // frames_completed() when armed
    bool deadline_for_write = false;   // reply-drain vs frame-completion
    std::uint32_t interest = 0;
    bool mux = false;          // a Hello negotiated kCapMux
    std::size_t inflight = 0;  // handlers in flight across streams
    std::unordered_map<std::uint32_t, StreamState> streams;
  };

  /// Buffered-reply watermark for mux connections: reads pause once this
  /// many unflushed reply bytes are queued, resuming as the writer
  /// drains. Version-1 connections keep the stricter one-reply gate
  /// (lane_held).
  static constexpr std::size_t kMuxWriteWatermark = 256 * 1024;

  /// The frame dispatch_stream is handing to the handler right now. A
  /// completion that fires inside that call leaves its reply here.
  struct Handing {
    int fd = -1;
    std::uint64_t gen = 0;
    std::uint32_t stream = 0;
    bool done = false;
    std::vector<std::uint8_t> reply = {};
  };

  struct Shard {
    Reactor reactor;
    std::unordered_map<int, std::unique_ptr<Conn>> conns;  // loop thread
    Handing* handing = nullptr;                             // loop thread
    std::uint64_t next_gen = 1;
    std::size_t index = 0;
    std::atomic<std::uint64_t> msgs_in{0};
    std::atomic<std::uint64_t> msgs_out{0};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> bytes_out{0};
  };

  AsyncFrameHandler handler;
  FrameServerOptions options;
  /// Server-wide frame body pool (see buffer_pool.hpp for why it is not
  /// per-connection). shared_ptr because frame_recycler() closures and
  /// the sync-handler wrapper must outlive this Impl.
  std::shared_ptr<BufferPool> pool;
  int listen_fd = -1;
  std::uint16_t port = 0;
  std::vector<std::unique_ptr<Shard>> shards;
  std::weak_ptr<Impl> self;  // set right after make_shared
  std::thread acceptor;
  std::atomic<bool> stopping{false};
  std::mutex stop_mu;
  bool stop_done = false;
  std::atomic<std::size_t> active{0};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> refused{0};
  std::atomic<std::uint64_t> deadline_drops{0};
  std::atomic<std::uint64_t> mux_connections{0};
  std::atomic<std::uint64_t> streams_shed{0};
  std::atomic<std::uint64_t> bytes_copied{0};

  Impl(AsyncFrameHandler h, FrameServerOptions opts,
       std::shared_ptr<BufferPool> pool_in)
      : handler(std::move(h)),
        options(std::move(opts)),
        pool(std::move(pool_in)) {
    if (!pool) pool = std::make_shared<BufferPool>();
    if (!handler) throw std::invalid_argument("FrameServer: null handler");
    if (options.max_connections == 0)
      throw std::invalid_argument("FrameServer: max_connections == 0");
    if (options.reactor_shards == 0) {
      options.reactor_shards =
          std::max(1u, std::thread::hardware_concurrency());
    }

    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) throw_io("socket");
    const int one = 1;
    (void)::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof(one));

    struct sockaddr_in addr {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options.port);
    if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
        1) {
      ::close(listen_fd);
      throw std::invalid_argument("FrameServer: bad bind address " +
                                  options.bind_address);
    }
    if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(listen_fd, options.backlog) < 0) {
      const int saved = errno;
      ::close(listen_fd);
      errno = saved;
      throw_io("bind/listen " + options.bind_address + ":" +
               std::to_string(options.port));
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                      &len) < 0) {
      const int saved = errno;
      ::close(listen_fd);
      errno = saved;
      throw_io("getsockname");
    }
    port = ntohs(addr.sin_port);
    set_nonblocking(listen_fd);
  }

  ~Impl() { stop(); }

  /// Spawn the shards and the acceptor (separate from the constructor so
  /// `self` is a valid weak_ptr before any completion can capture it).
  void start() {
    shards.reserve(options.reactor_shards);
    for (std::size_t i = 0; i < options.reactor_shards; ++i) {
      auto shard = std::make_unique<Shard>();
      shard->index = i;
      shard->reactor.start();
      shards.push_back(std::move(shard));
    }
    acceptor = std::thread([this] {
      pthread_setname_np(pthread_self(), "eyw-accept");
      accept_loop();
    });
  }

  void stop() {
    std::lock_guard<std::mutex> lock(stop_mu);
    if (stop_done) return;
    stop_done = true;
    stopping.store(true, std::memory_order_relaxed);
    if (acceptor.joinable()) acceptor.join();
    // Reactor::stop joins the loop thread mid-iteration at the latest, so
    // after this no connection state machine runs; late async completions
    // find a stopped reactor and are dropped.
    for (auto& shard : shards) shard->reactor.stop();
    for (auto& shard : shards) {
      for (auto& [fd, conn] : shard->conns) ::close(fd);
      shard->conns.clear();
    }
    active.store(0, std::memory_order_relaxed);
  }

  // ------------------------------------------------------------- acceptor

  void accept_loop() {
    std::size_t rr = 0;
    while (!stopping.load(std::memory_order_relaxed)) {
      bool ready = false;
      try {
        ready = poll_wait(listen_fd, POLLIN, Millis(50));
      } catch (const ProtoError&) {
        break;  // listener died; stop() will clean up
      }
      if (!ready) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      try {
        set_nonblocking(fd);
      } catch (const ProtoError&) {
        ::close(fd);
        continue;
      }
      set_nodelay(fd);
      if (active.load(std::memory_order_relaxed) >=
          options.max_connections) {
        // Admission control: refuse loudly with a machine-readable code
        // instead of accumulating unbounded connection state. Best-effort
        // single write — the socket is fresh, so the frame fits the empty
        // send buffer.
        refused.fetch_add(1, std::memory_order_relaxed);
        const auto frame = raw::with_prefix(
            ErrorReply{.code = ErrorCode::kUnavailable,
                       .detail = "server at connection capacity"}
                .encode());
        (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      accepted.fetch_add(1, std::memory_order_relaxed);
      active.fetch_add(1, std::memory_order_relaxed);
      Shard* shard = shards[rr++ % shards.size()].get();
      // The guard owns the fd until adopt() takes it on the loop thread:
      // a task posted in the instant before stop() may be dropped unrun,
      // and destruction must close the socket (client sees EOF) instead
      // of leaking it.
      auto guard = std::make_shared<FdCloser>(fd);
      if (!shard->reactor.post(
              [this, shard, guard] { adopt(*shard, guard->release()); })) {
        active.fetch_sub(1, std::memory_order_relaxed);  // guard closes fd
      }
    }
    ::close(listen_fd);
    listen_fd = -1;
  }

  // ------------------------------------- connection machine (loop thread)

  /// Version-1 rule: stream 0 of a connection that never negotiated mux
  /// holds the connection while its handler runs or its reply drains — no
  /// read, no next frame — so a pipelined frame waits in the socket, never
  /// in a stream queue (max_stream_backlog never applies to it).
  [[nodiscard]] static bool lane_held(const Conn& c) noexcept {
    return !c.mux && (c.inflight > 0 || c.out_off < c.out.size());
  }

  [[nodiscard]] static bool want_read(const Conn& c) noexcept {
    if (c.eof || c.close_after_flush || c.assembler.oversized() ||
        lane_held(c))
      return false;
    // A mux connection keeps reading while handlers are in flight — that
    // is the point of the streams — gated only on the reply backlog, so a
    // peer that stops reading still cannot grow server-side buffers
    // unboundedly.
    return c.out.size() - c.out_off < kMuxWriteWatermark;
  }

  void adopt(Shard& s, int fd) {
    auto conn = std::make_unique<Conn>(pool.get());
    conn->fd = fd;
    conn->gen = s.next_gen++;
    conn->interest = EPOLLIN | EPOLLRDHUP;
    Conn* c = conn.get();
    s.conns.emplace(fd, std::move(conn));
    try {
      s.reactor.add_fd(fd, c->interest, [this, sp = &s, fd](
                                            std::uint32_t events) {
        try {
          on_event(*sp, fd, events);
        } catch (...) {
          // E.g. bad_alloc sizing a cap-bounded frame buffer under
          // memory pressure: costs this connection, never the shard.
          close_conn(*sp, fd);
        }
      });
    } catch (const ProtoError&) {
      s.conns.erase(fd);
      ::close(fd);
      active.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  void close_conn(Shard& s, int fd) {
    const auto it = s.conns.find(fd);
    if (it == s.conns.end()) return;
    Conn& c = *it->second;
    // Frames queued behind an in-flight stream handler die with the
    // connection — recycle their buffers instead of leaking them out of
    // the pool (shed markers hold an empty vector; release drops those).
    for (auto& [stream, st] : c.streams)
      for (StreamState::Work& work : st.queue)
        pool->release(std::move(work.frame));
    if (c.deadline_armed) s.reactor.cancel_deadline(c.deadline);
    s.reactor.remove_fd(fd);
    ::close(fd);
    s.conns.erase(it);
    active.fetch_sub(1, std::memory_order_relaxed);
  }

  void on_event(Shard& s, int fd, std::uint32_t events) {
    const auto it = s.conns.find(fd);
    if (it == s.conns.end()) return;
    Conn& c = *it->second;
    if (events & (EPOLLERR | EPOLLHUP)) {
      close_conn(s, fd);
      return;
    }
    if ((events & (EPOLLIN | EPOLLRDHUP)) && want_read(c)) {
      if (!read_some(s, c)) return;  // hard error closed the connection
    }
    pump(s, fd);
  }

  /// Drain the socket into the assembler, bounded per event so one
  /// fire-hosing connection cannot monopolize its shard (level-triggered
  /// epoll re-delivers whatever is left). Returns false when a hard error
  /// closed the connection.
  bool read_some(Shard& s, Conn& c) {
    std::uint8_t buf[16384];
    for (int burst = 0; burst < 16; ++burst) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        if (!c.assembler.feed(std::span<const std::uint8_t>(
                buf, static_cast<std::size_t>(n)))) {
          // Declared length above the cap, refused before allocation.
          // Stop reading (the stream is unsynchronizable past the unread
          // body); pump() answers Error(kOversized) once the frames
          // completed ahead of it have been served, then closes.
          return true;
        }
        continue;
      }
      if (n == 0) {
        c.eof = true;
        return true;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      close_conn(s, c.fd);  // hard socket error: nothing to answer
      return false;
    }
    return true;
  }

  /// Append one reply to the connection's writer (several streams'
  /// replies interleave on one socket). Version-1 rule: an empty reply
  /// leaves as a zero-length frame, the wire form of "no reply". On a mux
  /// connection a zero-length frame cannot be attributed to a stream, so
  /// it is sent as nothing at all and a dropped response surfaces as the
  /// client's exchange deadline, same as a lost loopback reply.
  void append_reply(Shard& s, Conn& c, std::span<const std::uint8_t> reply) {
    if (reply.empty() && c.mux) return;
    if (!reply.empty()) {
      s.msgs_out.fetch_add(1, std::memory_order_relaxed);
      s.bytes_out.fetch_add(reply.size(), std::memory_order_relaxed);
    }
    if (c.out_off >= c.out.size()) {
      c.out.clear();  // keeps capacity: one steady-state buffer per conn
      c.out_off = 0;
    } else if (c.out_off >= kMuxWriteWatermark / 4) {
      // Reclaim the drained prefix before it dominates the buffer.
      c.out.erase(c.out.begin(),
                  c.out.begin() + static_cast<std::ptrdiff_t>(c.out_off));
      c.out_off = 0;
    }
    raw::append_framed(c.out, reply);
  }

  /// Wrap a version-1 reply back onto its stream (stream 0 is sent
  /// un-wrapped) and append it to the connection's writer.
  /// Takes the reply by value: the stream id is patched in place, which
  /// is free when the encoder reserved mux headroom (every encoder in
  /// this repo does — message.cpp encode_envelope). A foreign buffer
  /// without headroom still works, it just pays the reallocation the
  /// bytes_copied gauge counts.
  void append_reply_wrapped(Shard& s, Conn& c, std::uint32_t stream,
                            std::vector<std::uint8_t> reply) {
    if (reply.empty() || stream == 0) {
      append_reply(s, c, reply);
      return;
    }
    if (reply.capacity() < reply.size() + sizeof(std::uint32_t))
      bytes_copied.fetch_add(reply.size(), std::memory_order_relaxed);
    add_stream_inplace(reply, stream);
    append_reply(s, c, reply);
  }

  // ------------------------------------------- streams (loop thread)

  /// Conn-layer capability handshake. Answered here — never dispatched —
  /// so negotiation works identically whatever endpoint sits behind the
  /// server, and an old client that never sends Hello never sees any of
  /// this. The reply carries the intersection of the client's capability
  /// bits with what this server speaks (kCapMux).
  void answer_hello(Shard& s, Conn& c, std::uint32_t stream,
                    std::span<const std::uint8_t> frame) {
    std::uint32_t caps = 0;
    try {
      const Hello hello = Hello::decode(decode_envelope(frame));
      caps = hello.capabilities & kCapMux;
    } catch (const ProtoError& e) {
      append_reply_wrapped(
          s, c, stream,
          ErrorReply{.code = e.code(), .detail = e.what()}.encode());
      return;
    }
    if ((caps & kCapMux) != 0 && !c.mux) {
      c.mux = true;
      mux_connections.fetch_add(1, std::memory_order_relaxed);
    }
    append_reply_wrapped(s, c, stream,
                         Hello{.capabilities = caps}.encode(0));
  }

  /// Route one complete frame: on a mux connection strip the stream id —
  /// an in-place header patch on the pooled buffer, not a copy (version-1
  /// rule: a connection that never negotiated mux strips nothing, every
  /// frame is stream 0) — then either dispatch it (stream idle), queue it
  /// behind the stream's in-flight handler, or shed it (stream id above
  /// the cap, or backlog full). Everything downstream of this point sees
  /// version-1 bytes. Frames that die here (hello, sheds, errors) go back
  /// to the pool; dispatched frames come back through the consumer's
  /// recycler.
  void on_frame(Shard& s, Conn& c, std::vector<std::uint8_t> frame) {
    std::uint32_t stream = 0;
    try {
      if (c.mux) stream = strip_stream_inplace(frame);
    } catch (const ProtoError& e) {
      // Unattributable (the stream field itself is broken): answer on
      // stream 0. The length framing is intact, so the socket is still
      // synchronized. strip_stream_inplace leaves the frame untouched on
      // throw, so the buffer is clean to recycle.
      append_reply(
          s, c, ErrorReply{.code = e.code(), .detail = e.what()}.encode());
      pool->release(std::move(frame));
      return;
    }
    if (peek_kind(frame) == MsgKind::kHello) {
      answer_hello(s, c, stream, frame);
      pool->release(std::move(frame));
      return;
    }
    if (stream > options.max_streams_per_connection) {
      // Permanent for this connection — deliberately no retry hint, a
      // client must open another connection for more channels.
      streams_shed.fetch_add(1, std::memory_order_relaxed);
      append_reply_wrapped(
          s, c, stream,
          ErrorReply{.code = ErrorCode::kUnavailable,
                     .detail = "stream id above per-connection cap"}
              .encode());
      pool->release(std::move(frame));
      return;
    }
    const auto sit = c.streams.try_emplace(stream).first;
    StreamState& st = sit->second;
    if (st.handler_pending || !st.queue.empty()) {
      if (st.queue.size() >= options.max_stream_backlog) {
        // Shed now (the payload is the load), refuse in order (a marker).
        streams_shed.fetch_add(1, std::memory_order_relaxed);
        st.queue.push_back(StreamState::Work{.frame = {}, .shed = true});
        pool->release(std::move(frame));
      } else {
        st.queue.push_back(
            StreamState::Work{.frame = std::move(frame), .shed = false});
      }
      return;
    }
    dispatch_stream(s, c, stream, st, std::move(frame));
    // Answered inline: reap the idle stream as finish_stream does.
    if (stream != 0 && !st.handler_pending && st.queue.empty())
      c.streams.erase(sit);
  }

  /// Hand one frame to the handler. A completion fired inside the call on
  /// this loop thread is answered here, before returning; any other
  /// completion posts its reply to finish_stream.
  void dispatch_stream(Shard& s, Conn& c, std::uint32_t stream,
                       StreamState& st, std::vector<std::uint8_t> frame) {
    st.handler_pending = true;
    ++c.inflight;
    const int fd = c.fd;
    const std::uint64_t gen = c.gen;
    const std::size_t shard_idx = s.index;
    CompletionFn done = [weak = self, shard_idx, fd, gen,
                         stream](std::vector<std::uint8_t> reply) {
      // The weak_ptr keeps Impl alive across the post() call; a stopped
      // reactor drops the task, so a completion arriving after stop() is
      // a no-op, and the generation check in finish_stream catches fd
      // reuse.
      if (const std::shared_ptr<Impl> impl = weak.lock()) {
        Shard* shard = impl->shards[shard_idx].get();
        // Shard fields are loop-thread-only: check the thread first.
        if (shard->reactor.on_loop_thread()) {
          Handing* h = shard->handing;
          if (h != nullptr && !h->done && h->fd == fd && h->gen == gen &&
              h->stream == stream) {
            h->reply = std::move(reply);
            h->done = true;
            return;
          }
        }
        (void)shard->reactor.post(
            [impl_raw = impl.get(), shard, fd, gen, stream,
             r = std::move(reply)]() mutable {
              try {
                impl_raw->finish_stream(*shard, fd, gen, stream,
                                        std::move(r));
              } catch (...) {
                // finish_stream throws only past its generation check, so
                // the fd still names this completion's connection.
                impl_raw->close_conn(*shard, fd);
              }
            });
      }
    };
    Handing handing{.fd = fd, .gen = gen, .stream = stream};
    s.handing = &handing;
    try {
      handler(std::move(frame), std::move(done));
    } catch (const std::exception& e) {
      // The handler threw on the loop thread before answering: answer
      // here, same mapping as everywhere else.
      if (!handing.done) {
        handing.reply =
            ErrorReply{.code = ErrorCode::kInternal, .detail = e.what()}
                .encode();
        handing.done = true;
      }
    } catch (...) {
      s.handing = nullptr;
      throw;
    }
    s.handing = nullptr;
    if (!handing.done) return;  // the completion will post its reply
    st.handler_pending = false;
    --c.inflight;
    append_reply_wrapped(s, c, stream, std::move(handing.reply));
  }

  /// Pop the stream's queue until a handler is in flight again or it is
  /// empty; shed markers turn into in-order refusals here.
  void advance_stream(Shard& s, Conn& c, std::uint32_t stream,
                      StreamState& st) {
    while (!st.handler_pending && !st.queue.empty()) {
      StreamState::Work work = std::move(st.queue.front());
      st.queue.pop_front();
      if (work.shed) {
        append_reply_wrapped(
            s, c, stream,
            ErrorReply{.code = ErrorCode::kUnavailable,
                       .detail = "stream backlog at depth cap",
                       .retry_after_ms = options.stream_shed_retry_after_ms}
                .encode());
        continue;
      }
      dispatch_stream(s, c, stream, st, std::move(work.frame));
    }
  }

  /// A handler completion posted back to the loop thread.
  void finish_stream(Shard& s, int fd, std::uint64_t gen,
                     std::uint32_t stream, std::vector<std::uint8_t> reply) {
    const auto it = s.conns.find(fd);
    if (it == s.conns.end() || it->second->gen != gen) return;
    Conn& c = *it->second;
    const auto sit = c.streams.find(stream);
    if (sit == c.streams.end() || !sit->second.handler_pending) return;
    StreamState& st = sit->second;
    st.handler_pending = false;
    if (c.inflight > 0) --c.inflight;
    append_reply_wrapped(s, c, stream, std::move(reply));
    advance_stream(s, c, stream, st);
    // Reap idle stream state so a long-lived connection cycling through
    // many logical channels stays O(active streams), not O(ever-used).
    // Stream 0 stays: it is a version-1 connection's only stream, and
    // reaping it would cost that connection a node allocation per frame.
    if (stream != 0 && !st.handler_pending && st.queue.empty())
      c.streams.erase(sit);
    pump(s, fd);
  }

  /// Run the connection's state transitions until it blocks on I/O, a
  /// handler, or goes idle. Safe to call after any state change.
  void pump(Shard& s, int fd) {
    const auto it = s.conns.find(fd);
    if (it == s.conns.end()) return;
    Conn* c = it->second.get();
    for (;;) {
      if (c->out_off < c->out.size()) {
        while (c->out_off < c->out.size()) {
          const ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                                   c->out.size() - c->out_off, MSG_NOSIGNAL);
          if (n > 0) {
            c->out_off += static_cast<std::size_t>(n);
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          close_conn(s, fd);  // peer gone mid-reply
          return;
        }
        if (c->out_off < c->out.size()) break;  // wait for EPOLLOUT
        c->out.clear();
        c->out_off = 0;
      }
      if (c->close_after_flush) {
        close_conn(s, fd);
        return;
      }
      if (lane_held(*c)) break;
      if (auto frame = c->assembler.next()) {
        s.msgs_in.fetch_add(1, std::memory_order_relaxed);
        s.bytes_in.fetch_add(frame->size(), std::memory_order_relaxed);
        on_frame(s, *c, std::move(*frame));
        continue;
      }
      if (c->assembler.oversized()) {
        append_reply(s, *c,
                     ErrorReply{.code = ErrorCode::kOversized,
                                .detail = "frame length above cap"}
                         .encode());
        c->close_after_flush = true;
        continue;  // flush the refusal, then close
      }
      if (c->eof) {
        // A peer that half-closed may still be reading: let in-flight
        // handlers finish and their replies flush first (finish_stream
        // re-pumps; inflight == 0 implies every stream queue drained).
        if (c->inflight > 0) break;
        // Clean close at a frame boundary, or truncated mid-frame:
        // nothing left to answer either way.
        close_conn(s, fd);
        return;
      }
      break;  // idle between frames: wait for bytes
    }
    update_deadline(s, *c);
    update_interest(s, *c);
  }

  /// One progress deadline per connection, two mutually-exclusive uses:
  /// completing an in-progress incoming frame (armed once per frame — a
  /// dripping peer cannot extend it) and draining a buffered reply to a
  /// slow reader. No deadline while idle between frames or while a
  /// handler is in flight.
  void update_deadline(Shard& s, Conn& c) {
    const bool flushing = c.out_off < c.out.size();
    const bool mid_read = want_read(c) && c.assembler.mid_frame();
    const std::uint64_t frame_no = c.assembler.frames_completed();
    const bool want = flushing || mid_read;
    if (!want) {
      if (c.deadline_armed) {
        s.reactor.cancel_deadline(c.deadline);
        c.deadline_armed = false;
      }
      return;
    }
    // Keep an armed deadline only while it still guards the same thing:
    // same frame *and* same phase. A pipelined frame that started
    // arriving while the previous reply drained must get a fresh
    // io_timeout when reading resumes, not the drain deadline's residue.
    if (c.deadline_armed && c.deadline_frame == frame_no &&
        c.deadline_for_write == flushing)
      return;
    if (c.deadline_armed) s.reactor.cancel_deadline(c.deadline);
    const int fd = c.fd;
    const std::uint64_t gen = c.gen;
    c.deadline = s.reactor.add_deadline(
        options.io_timeout, [this, sp = &s, fd, gen] {
          const auto it = sp->conns.find(fd);
          if (it == sp->conns.end() || it->second->gen != gen) return;
          if (!it->second->deadline_armed) return;
          // A fired timer id is spent: unarm before close_conn so it is
          // not re-cancelled (a cancel for an id no longer in the wheel
          // would pin an entry in the reactor's cancelled-set forever).
          it->second->deadline_armed = false;
          deadline_drops.fetch_add(1, std::memory_order_relaxed);
          close_conn(*sp, fd);  // stalled mid-frame or unread reply
        });
    c.deadline_armed = true;
    c.deadline_frame = frame_no;
    c.deadline_for_write = flushing;
  }

  void update_interest(Shard& s, Conn& c) {
    std::uint32_t want = 0;
    if (want_read(c)) want |= EPOLLIN | EPOLLRDHUP;
    if (c.out_off < c.out.size()) want |= EPOLLOUT;
    if (want == c.interest) return;
    try {
      s.reactor.modify_fd(c.fd, want);
      c.interest = want;
    } catch (const ProtoError&) {
      close_conn(s, c.fd);
    }
  }

  [[nodiscard]] FrameServerStats stats() const {
    FrameServerStats total;
    for (const auto& shard : shards) {
      total.messages_received +=
          shard->msgs_in.load(std::memory_order_relaxed);
      total.messages_sent += shard->msgs_out.load(std::memory_order_relaxed);
      total.bytes_received += shard->bytes_in.load(std::memory_order_relaxed);
      total.bytes_sent += shard->bytes_out.load(std::memory_order_relaxed);
      total.reactor.eventfd_wakeups += shard->reactor.eventfd_wakeups();
    }
    total.reactor.connections_accepted =
        accepted.load(std::memory_order_relaxed);
    total.reactor.connections_refused =
        refused.load(std::memory_order_relaxed);
    total.reactor.deadline_drops =
        deadline_drops.load(std::memory_order_relaxed);
    total.reactor.mux_connections =
        mux_connections.load(std::memory_order_relaxed);
    total.reactor.streams_shed =
        streams_shed.load(std::memory_order_relaxed);
    total.reactor.frames_pooled = pool->hits();
    total.reactor.pool_misses = pool->misses();
    total.reactor.bytes_copied_ingest =
        bytes_copied.load(std::memory_order_relaxed);
    return total;
  }
};

namespace {

AsyncFrameHandler wrap_sync(FrameHandler handler,
                            std::shared_ptr<BufferPool> pool) {
  if (!handler) throw std::invalid_argument("FrameServer: null handler");
  // Runs on the shard loop thread; exceptions map to Error(kInternal)
  // exactly as the thread-per-connection server did. The completion fires
  // inline, so dispatch_stream appends the reply itself, with no post.
  // The frame dies in this wrapper, so this is also where its buffer
  // returns to the pool — a sync-handler server recycles without any
  // external recycler wiring.
  return [handler = std::move(handler), pool = std::move(pool)](
             std::vector<std::uint8_t> frame, CompletionFn done) {
    std::vector<std::uint8_t> reply;
    try {
      reply = handler(frame);
    } catch (const std::exception& e) {
      reply = ErrorReply{.code = ErrorCode::kInternal, .detail = e.what()}
                  .encode();
    }
    pool->release(std::move(frame));
    done(std::move(reply));
  };
}

}  // namespace

FrameServer::FrameServer(FrameHandler handler, FrameServerOptions options) {
  auto pool = std::make_shared<BufferPool>();
  impl_ = std::make_shared<Impl>(wrap_sync(std::move(handler), pool),
                                 std::move(options), std::move(pool));
  impl_->self = impl_;
  impl_->start();
}

FrameServer::FrameServer(AsyncFrameHandler handler,
                         FrameServerOptions options) {
  impl_ = std::make_shared<Impl>(std::move(handler), std::move(options),
                                 nullptr);
  impl_->self = impl_;
  impl_->start();
}

FrameServer::~FrameServer() {
  if (impl_) impl_->stop();
}

std::uint16_t FrameServer::port() const noexcept { return impl_->port; }

void FrameServer::stop() { impl_->stop(); }

FrameServerStats FrameServer::stats() const { return impl_->stats(); }

FrameRecycler FrameServer::frame_recycler() const {
  return [pool = impl_->pool](std::vector<std::uint8_t>&& frame) {
    pool->release(std::move(frame));
  };
}

std::size_t FrameServer::active_connections() const noexcept {
  return impl_->active.load(std::memory_order_relaxed);
}

std::uint64_t FrameServer::connections_accepted() const noexcept {
  return impl_->accepted.load(std::memory_order_relaxed);
}

std::uint64_t FrameServer::connections_refused() const noexcept {
  return impl_->refused.load(std::memory_order_relaxed);
}

std::size_t FrameServer::shards() const noexcept {
  return impl_->shards.size();
}

}  // namespace eyw::proto
