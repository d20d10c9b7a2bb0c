// The bridge between reactor callbacks and stateful endpoints: reactor
// handlers must not wait on slow work, and BackendEndpoint/OprfEndpoint
// mutate unsynchronized round state — AsyncDispatcher solves both at once.
// It owns one or more FIFO dispatch lanes. Each lane has a run token, held
// by whichever thread is applying one of the lane's frames, so a lane
// applies its frames one at a time and in order; the reply travels back
// through the completion callback the server supplied.
//
// Where a frame runs — inline when idle, queue when busy (IX's
// run-to-completion policy, Belay et al., OSDI 2014): a per-participant
// submission (a frame the router places by sender) that finds its lane
// idle — queue empty, token free, not paused or stopping, phase gate not
// held by a barrier — is applied on the submitting reactor thread, and
// its completion fires before submit() returns. Every other frame (the
// control plane, OPRF, unpeekable bytes, anything meeting a busy, paused
// or gated lane, every frame of a single-lane dispatcher) is queued,
// bounded and shed as below, and applied by the lane's worker once it
// holds the token. Only an empty lane runs inline, so per-lane FIFO
// order, the phase gate and the lane bound are the same either way. The
// reactor only try-locks the gate; the handler itself can wait where a
// lane worker would (the journal's backpressure bound, sync_each_submit
// — docs/durability.md).
//
// Sharded dispatch: with `lanes > 1` and a LaneRouter, independent frames
// run concurrently — one lane per backend shard, so ingest dispatch scales
// past a single serialization thread while every pair of frames that
// touches the same shard state still serializes (same shard => same lane).
// cluster_lane_router() builds the router matched to a BackendCluster's
// own routing function; anything that is not a per-participant submission
// (control plane, OPRF, undecodable bytes) rides lane 0.
//
// Cross-lane safety does NOT rest on clients behaving: control-plane
// frames (begin/missing/finalize — they touch every shard) are classified
// by the BarrierPredicate and run exclusively, while every other frame
// runs under a shared phase lock. A late, retransmitted, or malicious
// submission racing a finalize therefore gets a defined serialization
// (and the backend's normal accept/refuse answer) instead of an
// unsynchronized write into shard state the finalize is reading. Within a
// phase, lanes only ever touch disjoint shards, and per-shard submission
// order — the only order aggregation can observe — is preserved per
// lane, so round results are bit-identical to the single-lane path
// (asserted in tests/server/test_tcp_round.cpp; the inline path in
// tests/server/test_dispatcher.cpp).
//
// Heavy per-frame work — batch OPRF modexps, finalize's id-space scan —
// still fans out across util::ThreadPool *inside* the handler exactly as
// it does in-process, on a lane worker: such frames never run inline.
//
// Lifetime: the dispatcher must outlive the FrameServer it feeds
// (declare it first). Completions delivered after the server stopped are
// no-ops by the server's contract, so teardown order is the only rule.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <thread>
#include <vector>

#include "proto/transport.hpp"

namespace eyw::server {

class BackendCluster;
struct EndpointCounters;

/// Overload policy for the dispatch lanes. With `max_lane_depth == 0`
/// (the default) queues are unbounded — the pre-existing behavior. With a
/// bound, a submit that finds its routed lane full is SHED: the frame is
/// dropped on the spot and the caller's completion fires immediately with
/// Error(kUnavailable) carrying `retry_after_ms` as the backoff hint, so
/// overload degrades to explicit, client-visible refusals instead of
/// unbounded memory growth (the reactor write path then drains the reply
/// like any other). `counters`, when set, mirrors every shed onto the
/// endpoint's refusal tallies so the stats endpoint sees one coherent
/// story.
struct DispatcherLimits {
  std::size_t max_lane_depth = 0;
  std::uint32_t retry_after_ms = 25;
  EndpointCounters* counters = nullptr;
};

class AsyncDispatcher {
 public:
  /// Chooses the dispatch lane for a frame placed by participant — the
  /// frames that may run inline — and returns nothing for every other
  /// frame, which rides lane 0. Runs on the reactor loop thread, so it
  /// must be cheap (header peeks, no decode). Out-of-range results are
  /// clamped modulo the lane count.
  using LaneRouter = std::function<std::optional<std::size_t>(
      std::span<const std::uint8_t> frame)>;
  /// True for frames that must run exclusively (no other lane mid-frame);
  /// cheap header peeks only. Such a frame never runs inline.
  using BarrierPredicate =
      std::function<bool(std::span<const std::uint8_t> frame)>;

  /// Single-lane dispatcher: `handler` is the synchronous frame->reply
  /// dispatch (an endpoint's handle(), or a routing composition over
  /// several). It runs on the one dispatch thread, serialized.
  explicit AsyncDispatcher(proto::FrameHandler handler);

  /// Sharded dispatcher: `lanes` FIFO workers, frames assigned by
  /// `router`; frames matching `barrier` (typically
  /// control_plane_barrier()) run exclusively against every lane. Beyond
  /// that, the handler runs concurrently across lanes — it (and the
  /// endpoints under it) must only share state between frames the router
  /// maps to the same lane.
  AsyncDispatcher(proto::FrameHandler handler, std::size_t lanes,
                  LaneRouter router, BarrierPredicate barrier = nullptr,
                  DispatcherLimits limits = {});

  ~AsyncDispatcher();

  AsyncDispatcher(const AsyncDispatcher&) = delete;
  AsyncDispatcher& operator=(const AsyncDispatcher&) = delete;

  /// Apply one frame on the calling thread if its lane is idle and it may
  /// run inline (see the header comment), else enqueue it on its routed
  /// lane; `done` fires with the reply once the frame has been applied —
  /// before submit() returns in the inline case. Never waits beyond the
  /// lane mutex for anything but the inline frame's own handler.
  void submit(std::vector<std::uint8_t> frame, proto::CompletionFn done);

  /// Wire the server's buffer recycler (FrameServer::frame_recycler()):
  /// every frame the dispatcher consumes — handled, shed at the lane
  /// bound, or refused during teardown — has its buffer returned through
  /// it, closing the pool's read-dispatch-recycle loop. Call at wiring
  /// time, right after constructing the server the dispatcher feeds.
  void set_frame_recycler(proto::FrameRecycler recycler);

  /// The AsyncFrameHandler shape FrameServer consumes (binds submit()).
  [[nodiscard]] proto::AsyncFrameHandler handler();

  /// Drain every lane (every pending frame is still answered), then join
  /// the workers. Idempotent; the destructor calls it.
  void stop();

  /// Frames accepted but not yet answered, across all lanes: every queued
  /// frame plus the one each held run token is applying.
  [[nodiscard]] std::size_t pending() const;

  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_.size(); }

  /// Freeze the lanes after their current frame: queued frames stay
  /// queued, submits keep landing (and shedding past the bound), and no
  /// frame runs inline.
  /// The deterministic overload inducer — pause, fire bound+S submits,
  /// observe exactly S sheds, resume. stop() overrides a pause (the
  /// workers wake to drain), so teardown never deadlocks.
  void pause();
  void resume();

  /// Frames accepted over the dispatcher's lifetime, queued or applied
  /// inline.
  [[nodiscard]] std::uint64_t accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }
  /// Frames refused at the lane bound (Error(kUnavailable) + retry-after).
  [[nodiscard]] std::uint64_t shed() const noexcept {
    return shed_.load(std::memory_order_relaxed);
  }

 private:
  struct Lane {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<std::pair<std::vector<std::uint8_t>, proto::CompletionFn>>
        queue;
    /// The run token: some thread is applying one of this lane's frames.
    bool running = false;
    bool stopping = false;
    std::thread worker;
  };

  void worker_loop(Lane& lane);
  /// The handler, with an exception mapped to Error(kInternal).
  [[nodiscard]] std::vector<std::uint8_t> apply(
      std::span<const std::uint8_t> frame);
  /// Recycle the consumed frame, release the lane's run token, then
  /// deliver the reply.
  void finish(Lane& lane, std::vector<std::uint8_t> frame,
              proto::CompletionFn done, std::vector<std::uint8_t> reply);
  /// Thread-safe snapshot of the recycler (set once at wiring time, read
  /// per frame by workers and the shed path).
  [[nodiscard]] proto::FrameRecycler recycler() const;

  proto::FrameHandler handler_;
  LaneRouter router_;
  BarrierPredicate barrier_;
  DispatcherLimits limits_;
  std::atomic<bool> paused_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> shed_{0};
  /// Phase gate: barrier frames hold it exclusively, everything else
  /// shared. Uncontended shared acquisition is what an ingest frame pays.
  std::shared_mutex phase_mu_;
  mutable std::mutex recycler_mu_;
  proto::FrameRecycler recycler_;
  // unique_ptr: Lane owns a mutex/cv, so the vector must never relocate.
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// BarrierPredicate matching the operator control plane — the frames
/// whose handling reads or resets state across every backend shard
/// (BeginRound / MissingQuery / FinalizeRequest).
[[nodiscard]] AsyncDispatcher::BarrierPredicate control_plane_barrier();

/// Lane router matched to `cluster`'s own routing function: client
/// submissions (BlindedReport / Adjustment / ShardedSubmit — sender is
/// authoritative, enforced at decode) ride the lane of their owning
/// backend shard, and are the only frames that may run inline; everything
/// else gets no lane and serializes on lane 0. Build the dispatcher with
/// lanes == cluster.shard_count() for full-width ingest. `cluster` must
/// outlive the dispatcher.
[[nodiscard]] AsyncDispatcher::LaneRouter cluster_lane_router(
    const BackendCluster& cluster);

}  // namespace eyw::server
