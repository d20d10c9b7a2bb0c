#include "server/dispatcher.hpp"

#include <pthread.h>

#include <stdexcept>
#include <utility>

#include "proto/message.hpp"
#include "server/cluster.hpp"
#include "server/endpoint.hpp"

namespace eyw::server {

AsyncDispatcher::AsyncDispatcher(proto::FrameHandler handler)
    : AsyncDispatcher(std::move(handler), 1, nullptr, nullptr, {}) {}

AsyncDispatcher::AsyncDispatcher(proto::FrameHandler handler,
                                 std::size_t lanes, LaneRouter router,
                                 BarrierPredicate barrier,
                                 DispatcherLimits limits)
    : handler_(std::move(handler)),
      router_(std::move(router)),
      barrier_(std::move(barrier)),
      limits_(limits) {
  if (!handler_)
    throw std::invalid_argument("AsyncDispatcher: null handler");
  if (lanes == 0) throw std::invalid_argument("AsyncDispatcher: 0 lanes");
  if (lanes > 1 && !router_)
    throw std::invalid_argument("AsyncDispatcher: multiple lanes need a router");
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
    Lane* lane = lanes_.back().get();
    lane->worker = std::thread([this, lane] {
      pthread_setname_np(pthread_self(), "eyw-lane");
      worker_loop(*lane);
    });
  }
}

AsyncDispatcher::~AsyncDispatcher() { stop(); }

void AsyncDispatcher::set_frame_recycler(proto::FrameRecycler recycler) {
  std::lock_guard<std::mutex> lock(recycler_mu_);
  recycler_ = std::move(recycler);
}

proto::FrameRecycler AsyncDispatcher::recycler() const {
  std::lock_guard<std::mutex> lock(recycler_mu_);
  return recycler_;
}

void AsyncDispatcher::submit(std::vector<std::uint8_t> frame,
                             proto::CompletionFn done) {
  const std::optional<std::size_t> routed =
      router_ ? router_(frame) : std::nullopt;
  Lane& lane = *lanes_[routed ? *routed % lanes_.size() : 0];
  // Inline candidates: per-participant submissions on a sharded
  // dispatcher (a single lane is one worker's total order), never a
  // barrier.
  const bool may_inline =
      routed && lanes_.size() > 1 && !(barrier_ && barrier_(frame));
  std::shared_lock<std::shared_mutex> phase(phase_mu_, std::defer_lock);
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(lane.mu);
    if (!lane.stopping) {
      if (may_inline && lane.queue.empty() && !lane.running &&
          !paused_.load(std::memory_order_relaxed) && phase.try_lock()) {
        lane.running = true;  // idle lane: run to completion right here
      } else if (limits_.max_lane_depth != 0 &&
                 lane.queue.size() >= limits_.max_lane_depth) {
        // Bounded lane: past the depth cap the frame is shed on the spot
        // — its payload is dropped now (that IS the load relief), only
        // the small refusal reply survives to travel back.
        shed = true;
      } else {
        accepted_.fetch_add(1, std::memory_order_relaxed);
        lane.queue.emplace_back(std::move(frame), std::move(done));
        // A held token wakes the worker itself when it is released.
        if (!lane.running) lane.cv.notify_one();
        return;
      }
    }
  }
  if (phase.owns_lock()) {  // this thread holds the token and the gate
    accepted_.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::uint8_t> reply = apply(frame);
    phase.unlock();
    finish(lane, std::move(frame), std::move(done), std::move(reply));
    return;
  }
  // Both refusal paths below drop the payload here and now — the buffer
  // goes straight back to the server's pool instead of dying with the
  // local.
  if (const proto::FrameRecycler recycle = recycler())
    recycle(std::move(frame));
  if (shed) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    if (limits_.counters != nullptr) {
      limits_.counters->shed_ingest.fetch_add(1, std::memory_order_relaxed);
      limits_.counters->refusals.fetch_add(1, std::memory_order_relaxed);
      limits_.counters
          ->refused_by_code[static_cast<std::size_t>(
              proto::ErrorCode::kUnavailable)]
          .fetch_add(1, std::memory_order_relaxed);
    }
    if (done)
      done(proto::ErrorReply{.code = proto::ErrorCode::kUnavailable,
                             .detail = "dispatch lane at depth cap",
                             .retry_after_ms = limits_.retry_after_ms}
               .encode());
    return;
  }
  // Late frame during teardown: answer from here rather than drop the
  // caller's completion (the server side treats it like any Error reply).
  if (done)
    done(proto::ErrorReply{.code = proto::ErrorCode::kUnavailable,
                           .detail = "dispatcher stopping"}
             .encode());
}

proto::AsyncFrameHandler AsyncDispatcher::handler() {
  return [this](std::vector<std::uint8_t> frame, proto::CompletionFn done) {
    submit(std::move(frame), std::move(done));
  };
}

void AsyncDispatcher::pause() {
  paused_.store(true, std::memory_order_relaxed);
}

void AsyncDispatcher::resume() {
  paused_.store(false, std::memory_order_relaxed);
  for (auto& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane->mu);
    lane->cv.notify_all();
  }
}

void AsyncDispatcher::stop() {
  for (auto& lane : lanes_) {
    {
      std::lock_guard<std::mutex> lock(lane->mu);
      lane->stopping = true;
      lane->cv.notify_all();
    }
    if (lane->worker.joinable()) lane->worker.join();
  }
}

std::size_t AsyncDispatcher::pending() const {
  std::size_t total = 0;
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane->mu);
    total += lane->queue.size() + (lane->running ? 1 : 0);
  }
  return total;
}

void AsyncDispatcher::worker_loop(Lane& lane) {
  for (;;) {
    std::pair<std::vector<std::uint8_t>, proto::CompletionFn> job;
    {
      std::unique_lock<std::mutex> lock(lane.mu);
      // The worker takes the run token from an inline submission only
      // once it is released. A pause freezes dequeue (not enqueue) until
      // resume; stop() overrides it so a paused dispatcher still drains
      // on teardown.
      lane.cv.wait(lock, [&] {
        return !lane.running &&
               (lane.stopping || (!paused_.load(std::memory_order_relaxed) &&
                                  !lane.queue.empty()));
      });
      if (lane.queue.empty()) return;  // stopping and drained
      job = std::move(lane.queue.front());
      lane.queue.pop_front();
      lane.running = true;
    }
    std::vector<std::uint8_t> reply;
    // The phase gate makes cross-lane interleavings defined without
    // trusting clients to respect the protocol's barriers: a frame the
    // predicate marks as a barrier (control plane) excludes every lane;
    // everything else holds the gate shared. Single lane (or no
    // predicate): no gate — one worker is already a total order.
    if (barrier_ && lanes_.size() > 1) {
      if (barrier_(job.first)) {
        std::unique_lock<std::shared_mutex> phase(phase_mu_);
        reply = apply(job.first);
      } else {
        std::shared_lock<std::shared_mutex> phase(phase_mu_);
        reply = apply(job.first);
      }
    } else {
      reply = apply(job.first);
    }
    finish(lane, std::move(job.first), std::move(job.second),
           std::move(reply));
  }
}

std::vector<std::uint8_t> AsyncDispatcher::apply(
    std::span<const std::uint8_t> frame) {
  try {
    return handler_(frame);
  } catch (const std::exception& e) {
    return proto::ErrorReply{.code = proto::ErrorCode::kInternal,
                             .detail = e.what()}
        .encode();
  }
}

void AsyncDispatcher::finish(Lane& lane, std::vector<std::uint8_t> frame,
                             proto::CompletionFn done,
                             std::vector<std::uint8_t> reply) {
  // The frame is consumed: recycle its buffer before delivering the
  // reply, so by the time the client sees the answer the pool is ready
  // to serve the next read.
  if (const proto::FrameRecycler recycle = recycler())
    recycle(std::move(frame));
  {
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.running = false;
    // Frames that met the held token, or a stop, are the worker's now.
    if (!lane.queue.empty() || lane.stopping) lane.cv.notify_one();
  }
  if (done) done(std::move(reply));
}

AsyncDispatcher::BarrierPredicate control_plane_barrier() {
  return [](std::span<const std::uint8_t> frame) {
    const std::optional<proto::MsgKind> kind = proto::peek_kind(frame);
    return kind == proto::MsgKind::kBeginRound ||
           kind == proto::MsgKind::kMissingQuery ||
           kind == proto::MsgKind::kFinalizeRequest;
  };
}

AsyncDispatcher::LaneRouter cluster_lane_router(
    const BackendCluster& cluster) {
  return [&cluster](std::span<const std::uint8_t> frame)
             -> std::optional<std::size_t> {
    const std::optional<proto::MsgKind> kind = proto::peek_kind(frame);
    if (kind != proto::MsgKind::kBlindedReport &&
        kind != proto::MsgKind::kAdjustment &&
        kind != proto::MsgKind::kShardedSubmit)
      return std::nullopt;
    const std::optional<std::uint32_t> sender = proto::peek_sender(frame);
    if (!sender) return std::nullopt;
    return cluster.shard_for(*sender);
  };
}

}  // namespace eyw::server
