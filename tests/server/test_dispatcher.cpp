// server::AsyncDispatcher's two paths: a per-participant submission that
// meets an idle lane runs to completion on the submitting thread, and
// every other frame — or one that meets a busy, paused or gated lane — is
// queued for its lane worker. A submission applied inline is
// indistinguishable from a queued one: per-lane FIFO order, the phase gate
// and the lane bound hold either way (docs/architecture.md, invariants).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <latch>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "proto/client_reactor.hpp"
#include "proto/message.hpp"
#include "proto/tcp.hpp"
#include "server/cluster.hpp"
#include "server/deployment.hpp"
#include "server/dispatcher.hpp"

namespace eyw::server {
namespace {

using proto::MsgKind;

/// A frame of `kind` with an empty payload: the router, the barrier and
/// the test handlers read only its header. Lane = sender % 2.
std::vector<std::uint8_t> frame_of(MsgKind kind, std::uint32_t sender,
                                   std::uint64_t tag = 0) {
  return proto::encode_envelope(kind, sender, tag, {});
}

std::vector<std::uint8_t> report(std::uint32_t sender,
                                 std::uint64_t tag = 0) {
  return frame_of(MsgKind::kBlindedReport, sender, tag);
}

/// What the handler saw, in application order.
struct Call {
  std::thread::id thread;
  std::uint32_t sender = 0;
  std::uint64_t tag = 0;
};

/// A handler that records each call and, for frames tagged kHold, blocks
/// until the test opens the gate. Bytes too broken to peek are recorded
/// with tag kBroken.
class Recorder {
 public:
  static constexpr std::uint64_t kHold = 0xffff;
  static constexpr std::uint64_t kBroken = 0xbad;

  [[nodiscard]] proto::FrameHandler handler() {
    return [this](std::span<const std::uint8_t> frame) {
      Call call{.thread = std::this_thread::get_id(), .tag = kBroken};
      if (proto::peek_kind(frame)) {
        const proto::EnvelopeView env = proto::decode_envelope_view(frame);
        call.sender = env.sender;
        call.tag = env.round;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        calls_.push_back(call);
      }
      if (call.tag == kHold) {
        held_.count_down();
        gate_.wait();
      }
      return proto::encode_ack();
    };
  }

  /// Blocks until a kHold frame is inside the handler.
  void await_held() { held_.wait(); }
  void open_gate() { gate_.count_down(); }

  [[nodiscard]] std::vector<Call> calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Call> calls_;
  std::latch held_{1};
  std::latch gate_{1};
};

/// Counts the replies delivered so far.
class Replies {
 public:
  [[nodiscard]] proto::CompletionFn expect() {
    return [this](std::vector<std::uint8_t>) {
      std::lock_guard<std::mutex> lock(mu_);
      ++fired_;
      cv_.notify_all();
    };
  }
  [[nodiscard]] std::size_t fired() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fired_;
  }
  void await(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    ASSERT_TRUE(cv_.wait_for(lock, std::chrono::seconds(10),
                             [&] { return fired_ >= n; }))
        << "only " << fired_ << " of " << n << " replies";
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::size_t fired_ = 0;
};

/// The deployed dispatcher shape: two lanes, cluster routing, the
/// control-plane barrier.
struct TwoLanes {
  explicit TwoLanes(proto::FrameHandler handler)
      : dispatcher(std::move(handler), 2, cluster_lane_router(cluster),
                   control_plane_barrier()) {}

  BackendCluster cluster{default_config(), 2};
  AsyncDispatcher dispatcher;
};

TEST(DispatcherInline, IdleLaneRunsASubmissionOnTheSubmittingThread) {
  Recorder rec;
  Replies replies;
  TwoLanes lanes(rec.handler());
  const MsgKind kinds[] = {MsgKind::kBlindedReport, MsgKind::kAdjustment,
                           MsgKind::kShardedSubmit};
  std::size_t submitted = 0;
  for (const MsgKind kind : kinds) {
    for (std::uint32_t sender = 0; sender < 2; ++sender) {  // both lanes
      lanes.dispatcher.submit(frame_of(kind, sender), replies.expect());
      ++submitted;
      EXPECT_EQ(replies.fired(), submitted)
          << proto::to_string(kind) << " from " << sender
          << ": the completion must fire before submit() returns";
    }
  }
  for (const Call& call : rec.calls())
    EXPECT_EQ(call.thread, std::this_thread::get_id());
  EXPECT_EQ(lanes.dispatcher.accepted(), submitted);
  EXPECT_EQ(lanes.dispatcher.pending(), 0u);
}

TEST(DispatcherInline, FramesBehindAnInlineTokenRunOnTheWorkerInOrder) {
  Recorder rec;
  Replies replies;
  TwoLanes lanes(rec.handler());
  // Lane 0's token is held by a submitter whose inline frame blocks.
  std::thread holder([&] {
    lanes.dispatcher.submit(report(0, Recorder::kHold), replies.expect());
  });
  rec.await_held();
  // A held token queues the next frame, and a non-empty queue the one
  // after it; neither is answered by submit().
  lanes.dispatcher.submit(report(2, 1), replies.expect());
  lanes.dispatcher.submit(report(4, 2), replies.expect());
  EXPECT_EQ(replies.fired(), 0u);
  EXPECT_EQ(lanes.dispatcher.pending(), 3u);
  // Lane 1 is independent: still idle, still inline.
  lanes.dispatcher.submit(report(1, 3), replies.expect());
  EXPECT_EQ(replies.fired(), 1u);

  rec.open_gate();
  holder.join();
  replies.await(4);
  const std::vector<Call> calls = rec.calls();
  ASSERT_EQ(calls.size(), 4u);
  EXPECT_EQ(calls[0].tag, Recorder::kHold);
  EXPECT_EQ(calls[1].tag, 3u);  // lane 1, inline on this thread
  EXPECT_EQ(calls[1].thread, std::this_thread::get_id());
  EXPECT_EQ(calls[2].tag, 1u);  // then lane 0's queue, in order
  EXPECT_EQ(calls[3].tag, 2u);
  EXPECT_EQ(calls[2].thread, calls[3].thread);
  EXPECT_NE(calls[2].thread, std::this_thread::get_id());
  EXPECT_NE(calls[2].thread, calls[0].thread);
  EXPECT_EQ(lanes.dispatcher.pending(), 0u);
}

TEST(DispatcherInline, FramesBehindAWorkerTokenQueueInOrder) {
  Recorder rec;
  Replies replies;
  TwoLanes lanes(rec.handler());
  // An OPRF key query rides lane 0's worker, which holds the token while
  // the frame blocks.
  lanes.dispatcher.submit(frame_of(MsgKind::kOprfKeyQuery, 0, Recorder::kHold),
                          replies.expect());
  rec.await_held();
  lanes.dispatcher.submit(report(0, 1), replies.expect());
  lanes.dispatcher.submit(report(2, 2), replies.expect());
  EXPECT_EQ(replies.fired(), 0u);
  EXPECT_EQ(lanes.dispatcher.pending(), 3u);

  rec.open_gate();
  replies.await(3);
  const std::vector<Call> calls = rec.calls();
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[1].tag, 1u);
  EXPECT_EQ(calls[2].tag, 2u);
  for (const Call& call : calls) EXPECT_EQ(call.thread, calls[0].thread);
  EXPECT_NE(calls[0].thread, std::this_thread::get_id());
}

TEST(DispatcherInline, OnlyPerParticipantSubmissionsRunInline) {
  Recorder rec;
  Replies replies;
  TwoLanes lanes(rec.handler());
  // The control plane (barriers), the OPRF endpoint's frames and bytes too
  // broken to peek all go to a lane worker, even with every lane idle.
  std::vector<std::vector<std::uint8_t>> frames;
  std::uint64_t tag = 0;
  for (const MsgKind kind :
       {MsgKind::kBeginRound, MsgKind::kMissingQuery,
        MsgKind::kFinalizeRequest, MsgKind::kOprfEvalRequest,
        MsgKind::kOprfKeyQuery})
    frames.push_back(frame_of(kind, 1, tag++));
  frames.push_back({0xde, 0xad, 0xbe, 0xef});
  for (std::size_t i = 0; i < frames.size(); ++i) {
    lanes.dispatcher.submit(std::move(frames[i]), replies.expect());
    replies.await(i + 1);
  }
  const std::vector<Call> calls = rec.calls();
  ASSERT_EQ(calls.size(), frames.size());
  for (const Call& call : calls)
    EXPECT_NE(call.thread, std::this_thread::get_id())
        << "the frame tagged " << call.tag << " ran inline";
  EXPECT_EQ(calls.back().tag, Recorder::kBroken);
}

TEST(DispatcherInline, PausedLaneQueuesTheSubmission) {
  Recorder rec;
  Replies replies;
  TwoLanes lanes(rec.handler());
  lanes.dispatcher.pause();
  lanes.dispatcher.submit(report(0), replies.expect());
  EXPECT_EQ(replies.fired(), 0u);
  // Queued; a paused lane holds no token.
  EXPECT_EQ(lanes.dispatcher.pending(), 1u);
  lanes.dispatcher.resume();
  replies.await(1);
  ASSERT_EQ(rec.calls().size(), 1u);
  EXPECT_NE(rec.calls()[0].thread, std::this_thread::get_id());
}

TEST(DispatcherInline, HeldBarrierQueuesTheSubmission) {
  Recorder rec;
  Replies replies;
  TwoLanes lanes(rec.handler());
  // A finalize holds the phase gate exclusively on lane 0's worker. Lane 1
  // is idle, but its submission must not run past the barrier.
  lanes.dispatcher.submit(
      frame_of(MsgKind::kFinalizeRequest, 0, Recorder::kHold),
      replies.expect());
  rec.await_held();
  lanes.dispatcher.submit(report(1, 1), replies.expect());
  EXPECT_EQ(replies.fired(), 0u);
  rec.open_gate();
  replies.await(2);
  const std::vector<Call> calls = rec.calls();
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[1].tag, 1u);
  EXPECT_NE(calls[1].thread, std::this_thread::get_id());
}

TEST(DispatcherInline, SingleLaneDispatcherNeverInlines) {
  Recorder rec;
  Replies replies;
  BackendCluster one_shard(default_config(), 1);
  AsyncDispatcher plain(rec.handler());
  AsyncDispatcher routed(rec.handler(), 1, cluster_lane_router(one_shard),
                         control_plane_barrier());
  plain.submit(report(0), replies.expect());
  routed.submit(report(0), replies.expect());
  replies.await(2);
  for (const Call& call : rec.calls())
    EXPECT_NE(call.thread, std::this_thread::get_id());
}

TEST(DispatcherPending, CountsTheFrameBeingApplied) {
  // On a lane worker.
  {
    Recorder rec;
    Replies replies;
    AsyncDispatcher single(rec.handler());
    single.submit(report(0, Recorder::kHold), replies.expect());
    rec.await_held();
    EXPECT_EQ(single.pending(), 1u);
    rec.open_gate();
    replies.await(1);
    EXPECT_EQ(single.pending(), 0u);
  }
  // Inline, on a submitting thread.
  {
    Recorder rec;
    Replies replies;
    TwoLanes lanes(rec.handler());
    std::thread submitter([&] {
      lanes.dispatcher.submit(report(0, Recorder::kHold), replies.expect());
    });
    rec.await_held();
    EXPECT_EQ(lanes.dispatcher.pending(), 1u);
    rec.open_gate();
    submitter.join();
    EXPECT_EQ(replies.fired(), 1u);
    EXPECT_EQ(lanes.dispatcher.pending(), 0u);
  }
}

TEST(DispatcherInline, ConcurrentSubmittersKeepEachLaneSerialAndInOrder) {
  // 4 submitters x 20,000 frames over 2 lanes, with a barrier frame every
  // 1,000: inline runs, queued runs and barriers interleave freely. The
  // per-lane state below is plain memory touched by whichever thread
  // holds the lane's token, so an overlap is a ThreadSanitizer report as
  // well as a failed check.
  constexpr std::uint32_t kSubmitters = 4;
  constexpr std::uint64_t kFrames = 20'000;
  constexpr std::uint64_t kBarrierEvery = 1'000;
  std::atomic<bool> busy[2] = {false, false};
  std::atomic<int> active{0};
  std::atomic<bool> in_barrier{false};
  std::atomic<std::uint64_t> overlaps{0};
  std::atomic<std::uint64_t> reordered{0};
  std::atomic<std::uint64_t> crossed_barrier{0};
  std::uint64_t next_tag[kSubmitters][2] = {};
  const auto handler = [&](std::span<const std::uint8_t> frame) {
    const proto::EnvelopeView env = proto::decode_envelope_view(frame);
    if (env.kind == MsgKind::kMissingQuery) {
      if (in_barrier.exchange(true) || active.load() != 0)
        crossed_barrier.fetch_add(1);
      in_barrier.store(false);
      return proto::encode_ack();
    }
    const std::uint32_t lane = env.sender % 2;
    const std::uint32_t submitter = env.sender / 2;
    active.fetch_add(1);
    if (in_barrier.load()) crossed_barrier.fetch_add(1);
    if (busy[lane].exchange(true)) overlaps.fetch_add(1);
    // Each submitter alternates lanes, so a lane sees every other tag.
    if (env.round != next_tag[submitter][lane]) reordered.fetch_add(1);
    next_tag[submitter][lane] = env.round + 2;
    busy[lane].store(false);
    active.fetch_sub(1);
    return proto::encode_ack();
  };
  for (std::uint32_t s = 0; s < kSubmitters; ++s) next_tag[s][1] = 1;
  TwoLanes lanes(handler);
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> submitters;
  for (std::uint32_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (std::uint64_t i = 0; i < kFrames; ++i) {
        const auto done = [&](std::vector<std::uint8_t>) {
          answered.fetch_add(1);
        };
        if (i % kBarrierEvery == 0)
          lanes.dispatcher.submit(frame_of(MsgKind::kMissingQuery, 0), done);
        lanes.dispatcher.submit(
            report(s * 2 + static_cast<std::uint32_t>(i % 2), i), done);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  lanes.dispatcher.stop();
  const std::uint64_t barriers = kSubmitters * (kFrames / kBarrierEvery);
  EXPECT_EQ(answered.load(), kSubmitters * kFrames + barriers);
  EXPECT_EQ(lanes.dispatcher.accepted(), kSubmitters * kFrames + barriers);
  EXPECT_EQ(overlaps.load(), 0u) << "two calls for one lane overlapped";
  EXPECT_EQ(reordered.load(), 0u) << "a submitter's frames reached a lane "
                                     "out of submission order";
  EXPECT_EQ(crossed_barrier.load(), 0u)
      << "a submission ran while a barrier held the phase gate";
  for (std::uint32_t s = 0; s < kSubmitters; ++s) {
    EXPECT_EQ(next_tag[s][0], kFrames);
    EXPECT_EQ(next_tag[s][1], kFrames + 1);
  }
}

/// `n` one-at-a-time exchanges of `make(i)` on one version-1 channel; the
/// number of replies of kind `want`.
template <typename Make>
std::size_t exchange_one_at_a_time(std::uint16_t port, std::size_t n,
                                   MsgKind want, Make make) {
  proto::ClientReactor reactor({.shards = 1});
  const auto channel = reactor.open("127.0.0.1", port);
  proto::SyncTransportAdapter link(*channel);
  std::size_t ok = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (proto::peek_kind(link.exchange(make(i))) == want) ++ok;
  return ok;
}

TEST(DispatcherInline, IdleExchangesCostNoEventfdWakeup) {
  // The exact count: a completion fired inline appends its reply on the
  // loop thread, so the only cross-thread wakeup each connection costs is
  // its accept handover.
  constexpr std::size_t kExchanges = 1000;
  {
    proto::FrameServer echo(
        [](std::span<const std::uint8_t>) { return proto::encode_ack(); },
        {.reactor_shards = 1});
    EXPECT_EQ(exchange_one_at_a_time(echo.port(), kExchanges, MsgKind::kAck,
                                     [](std::size_t i) {
                                       return report(
                                           static_cast<std::uint32_t>(i));
                                     }),
              kExchanges);
    EXPECT_EQ(echo.stats().reactor.eventfd_wakeups, 1u)
        << "sync-handler server";
  }
  {
    Deployment deployment;
    // Open the round in process: a barrier runs on lane 0's worker and
    // its completion does not touch the reactor.
    Replies begun;
    deployment.dispatcher().submit(
        proto::BeginRound{.roster = static_cast<std::uint32_t>(kExchanges)}
            .encode(1),
        begun.expect());
    begun.await(1);
    const sketch::CmsParams params = deployment.config().cms_params;
    const std::size_t acked = exchange_one_at_a_time(
        deployment.port(), kExchanges, MsgKind::kAck, [&](std::size_t i) {
          return proto::BlindedReport{
              .participant = static_cast<std::uint32_t>(i),
              .params = params,
              .cells = std::vector<std::uint32_t>(params.depth * params.width,
                                                  7)}
              .encode(1);
        });
    EXPECT_EQ(acked, kExchanges);
    EXPECT_EQ(deployment.server().stats().reactor.eventfd_wakeups, 1u)
        << "reporter channel to a Deployment with idle lanes";
  }
}

}  // namespace
}  // namespace eyw::server
