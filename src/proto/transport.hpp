// Transport abstraction: how encoded envelopes move between parties.
//
// Every cross-party byte in the system flows through a Transport, so
// message counts and byte totals are measured at one choke point instead of
// estimated on the side. The in-process LoopbackTransport plays the
// network for tests, benches, and the single-process simulator; a
// fault-injecting wrapper corrupts/truncates/drops a chosen exchange so
// decoder error paths are exercised end to end.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <vector>

namespace eyw::proto {

/// Byte/message accounting for one direction pair of a channel. "Sent" is
/// the request (caller -> peer), "received" the response.
struct TransportStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;

  /// One exchange() == one round trip.
  [[nodiscard]] std::uint64_t round_trips() const noexcept {
    return messages_sent;
  }
  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return bytes_sent + bytes_received;
  }
};

/// A synchronous request/response channel for encoded frames. exchange()
/// does the stats accounting; implementations override do_exchange().
class Transport {
 public:
  virtual ~Transport() = default;

  /// Send one frame, return the peer's reply frame (possibly empty when
  /// the transport lost the response).
  [[nodiscard]] std::vector<std::uint8_t> exchange(
      std::span<const std::uint8_t> frame);

  [[nodiscard]] const TransportStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  virtual std::vector<std::uint8_t> do_exchange(
      std::span<const std::uint8_t> frame) = 0;

  TransportStats stats_;
};

using FrameHandler =
    std::function<std::vector<std::uint8_t>(std::span<const std::uint8_t>)>;

/// Delivers a reply frame for one asynchronously-handled request. Safe to
/// invoke from any thread, exactly once; invoking it after the server that
/// issued it has been torn down is a harmless no-op.
using CompletionFn = std::function<void(std::vector<std::uint8_t> reply)>;

/// Returns a consumed request frame's buffer to the pool it came from
/// (FrameServer::frame_recycler()). Whatever consumes the frames a
/// FrameServer hands out — server::AsyncDispatcher, typically — calls
/// this once per handled frame so steady-state ingest reuses buffers
/// instead of allocating per report. Safe from any thread; passing a
/// frame that did not come from the pool is harmless (it is simply
/// retained or freed by the pool's own policy).
using FrameRecycler = std::function<void(std::vector<std::uint8_t>&&)>;

/// The non-blocking server-handler shape: take ownership of the request
/// frame and deliver the reply through `done` — inline, before returning,
/// when the work is short (a FrameServer then appends the reply without
/// a cross-thread wake-up), or later from another thread. Reactor-mode
/// servers call this from the event loop, so an implementation must not
/// block on slow work: queue it and complete from elsewhere
/// (server::AsyncDispatcher applies an idle lane's submission inline and
/// queues everything else).
using AsyncFrameHandler = std::function<void(std::vector<std::uint8_t> frame,
                                             CompletionFn done)>;

/// Outcome of one asynchronous exchange: either a reply frame (possibly
/// empty — the peer lost the response, same meaning as a sync Transport
/// returning an empty vector) or an error, never both.
struct AsyncResult {
  std::vector<std::uint8_t> reply;
  std::exception_ptr error;  // null on success

  [[nodiscard]] bool ok() const noexcept { return error == nullptr; }
};

/// Delivers the outcome of one exchange_async(). Invoked exactly once,
/// possibly inline from the submitting call, possibly later from a reactor
/// loop thread — so it must not block (signal a condition variable, bump a
/// counter, chain the next exchange).
using AsyncCompletionFn = std::function<void(AsyncResult)>;

/// The client-side non-blocking channel shape: start an exchange and
/// return immediately; the reply (or failure) arrives through `done`. Any
/// number of exchanges may be in flight at once — implementations pipeline
/// them on one connection and correlate replies in submission order.
/// exchange_async() is safe to call from any thread, including from inside
/// a completion.
class AsyncTransport {
 public:
  virtual ~AsyncTransport() = default;

  virtual void exchange_async(std::vector<std::uint8_t> frame,
                              AsyncCompletionFn done) = 0;
};

/// Blocking facade over an AsyncTransport: one exchange in flight, the
/// caller's thread parked until the completion fires. Existing Transport
/// users (RemoteBackend, OprfUrlMapper, the round coordinator) run
/// unchanged over a reactor channel through this — same replies, same
/// exceptions, same stats accounting as any other Transport.
class SyncTransportAdapter final : public Transport {
 public:
  explicit SyncTransportAdapter(AsyncTransport& inner) : inner_(inner) {}

 private:
  std::vector<std::uint8_t> do_exchange(
      std::span<const std::uint8_t> frame) override;

  AsyncTransport& inner_;
};

/// In-process transport: delivers the frame to a handler (an endpoint's
/// dispatch function) and returns its reply. The frame is passed as a span
/// of the caller's buffer — the handler must not retain it.
class LoopbackTransport final : public Transport {
 public:
  explicit LoopbackTransport(FrameHandler handler);

 private:
  std::vector<std::uint8_t> do_exchange(
      std::span<const std::uint8_t> frame) override;

  FrameHandler handler_;
};

/// What a FaultInjectingTransport does to its chosen exchange.
struct FaultPlan {
  enum class Action {
    kNone,
    kTruncateRequest,   // forward only the first `offset` request bytes
    kCorruptRequest,    // xor request byte `offset` with `xor_mask`
    kCorruptResponse,   // xor response byte `offset` with `xor_mask`
    kDropResponse,      // swallow the response, return an empty frame
  };

  Action action = Action::kNone;
  std::uint64_t nth = 0;       // 0-based exchange index the fault fires on
  std::size_t offset = 0;      // truncation length / corrupted byte index
  std::uint8_t xor_mask = 0xff;
};

/// Wraps another transport and applies one planned fault; every other
/// exchange passes through untouched. Offsets beyond the frame are
/// clamped/ignored so a plan can never crash the wrapper itself.
class FaultInjectingTransport final : public Transport {
 public:
  FaultInjectingTransport(Transport& inner, FaultPlan plan);

  /// Total exchanges seen (including the faulted one).
  [[nodiscard]] std::uint64_t exchanges() const noexcept { return count_; }

 private:
  std::vector<std::uint8_t> do_exchange(
      std::span<const std::uint8_t> frame) override;

  Transport& inner_;
  FaultPlan plan_;
  std::uint64_t count_ = 0;
};

}  // namespace eyw::proto
