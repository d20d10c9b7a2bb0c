// Client-side stub of a back-end living in another process: implements the
// RoundBackend surface by speaking the wire protocol's control plane and
// submission envelopes over any transport (a ClientReactor channel for a
// real deployment, LoopbackTransport in tests).
//
// This is what makes the multi-process deployment a drop-in change: a
// RoundCoordinator handed a RemoteBackend runs the exact same code it runs
// against an in-process BackendServer — every call here is one exchange
// with the remote BackendEndpoint (which must be constructed with
// serve_control = true), and an Error reply surfaces as ProtoError with
// the carried code, exactly like a local refusal.
//
// Two wire modes:
//   * over a sync Transport (a channel behind SyncTransportAdapter, or
//     loopback) every call is one blocking round trip, and a refused
//     submission throws at the call that made it;
//   * over an AsyncTransport (a ClientReactor channel) submissions
//     *pipeline*: submit_report/submit_adjustment return once the frame is
//     in flight, acks are collected in the background, and the protocol's
//     own phase barriers (begin_round / missing_participants /
//     finalize_round) flush — they wait for every outstanding ack before
//     their own round trip. The round result is bit-identical (the server
//     applies frames in arrival order, which pipelining preserves per
//     connection); what changes is that N submissions cost ~1 round-trip
//     time instead of N. A submission the server refused surfaces as
//     ProtoError at the next barrier instead of at the submitting call —
//     the protocol never advances past an unflushed error.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <vector>

#include "proto/transport.hpp"
#include "server/backend.hpp"

namespace eyw::server {

class RemoteBackend final : public RoundBackend {
 public:
  /// `config` is the round configuration this deployment agreed on
  /// out-of-band (both processes must run the same geometry — a mismatch
  /// surfaces as kGeometryMismatch on the first submission). `transport`
  /// must outlive the backend. One blocking round trip per call.
  RemoteBackend(proto::Transport& transport, BackendConfig config);

  /// Pipelined mode over an async channel (see the header comment).
  /// `channel` must outlive the backend.
  RemoteBackend(proto::AsyncTransport& channel, BackendConfig config);

  /// Waits (error-swallowing) for outstanding pipelined acks: their
  /// completions write through `this`, so destruction must not race them.
  ~RemoteBackend() override;

  [[nodiscard]] const BackendConfig& config() const noexcept override {
    return config_;
  }

  void begin_round(std::uint64_t round, std::size_t roster_size) override;

  /// Attach to round `round` WITHOUT a BeginRound exchange — the
  /// reconnect path after a backend crash: the restarted server recovered
  /// the in-flight round from its journal, and re-opening it would throw
  /// the recovered submissions away. Subsequent calls stamp this round on
  /// their envelopes; the server's round validation refuses them if the
  /// recovered round disagrees.
  void adopt_round(std::uint64_t round) noexcept { round_ = round; }

  [[nodiscard]] std::uint64_t current_round() const noexcept override {
    return round_;
  }
  void submit_report(std::size_t participant_index,
                     std::vector<crypto::BlindCell> blinded_cells) override;
  [[nodiscard]] std::vector<std::size_t> missing_participants() const override;
  void submit_adjustment(std::size_t participant_index,
                         std::vector<crypto::BlindCell> adjustment) override;

  /// Fetches the server's RoundSummary and rebuilds the RoundResult from
  /// it — bit-identical to the server's local result (the aggregate rides
  /// an 'EYWS' frame, the threshold is a bit-cast f64, the distribution
  /// its exact histogram). A histogram with more bins than the configured
  /// sketch has cells, or more ids than id_space, is refused with
  /// kMalformed. `pool` is ignored: the scan fans out server-side.
  [[nodiscard]] RoundResult finalize_round(
      util::ThreadPool* pool = nullptr) override;

  /// Wait until every pipelined submission has been acked; rethrows the
  /// first ack error if any submission was refused or lost. No-op in sync
  /// mode (nothing is ever outstanding). The barrier calls run this
  /// implicitly.
  void flush() const;

  /// Pipelined submissions currently awaiting their ack (0 in sync mode).
  [[nodiscard]] std::size_t outstanding() const;

 private:
  /// One blocking round trip (flushing first in pipelined mode).
  [[nodiscard]] std::vector<std::uint8_t> exchange_barrier(
      std::span<const std::uint8_t> frame) const;
  /// Submission path: blocking exchange+ack in sync mode, fire-and-track
  /// in pipelined mode.
  void submit_frame(std::vector<std::uint8_t> frame);

  proto::Transport* transport_ = nullptr;       // sync mode
  proto::AsyncTransport* channel_ = nullptr;    // pipelined mode
  /// Blocking facade over channel_ for the barrier round trips.
  mutable std::optional<proto::SyncTransportAdapter> barrier_link_;
  BackendConfig config_;
  std::uint64_t round_ = 0;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::size_t outstanding_ = 0;
  mutable std::exception_ptr first_error_;
};

}  // namespace eyw::server
