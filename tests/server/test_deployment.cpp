// server::Deployment's own contract: the overload policy it deploys is
// live end to end — a paused lane fills to the deployed bound, sheds the
// excess with the deployed retry-after hint, and the client's backoff
// gets every shed frame served once the lane thaws — and its stats
// endpoint lists exactly the counter families its configuration has.
#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "proto/client_reactor.hpp"
#include "proto/message.hpp"
#include "proto/raw_frame_io.hpp"
#include "scenario/scenario.hpp"
#include "server/deployment.hpp"

namespace eyw::server {
namespace {

using scenario::stat;

/// Names in a rendered stats document that start with `prefix`.
std::size_t count_prefixed(const std::string& json,
                           const std::string& prefix) {
  std::size_t count = 0;
  for (std::size_t at = json.find("\"" + prefix); at != std::string::npos;
       at = json.find("\"" + prefix, at + 1))
    ++count;
  return count;
}

TEST(Deployment, PausedLaneShedsPastTheDeployedBoundAndRetriesServeAll) {
  // Lane 0 serializes the control plane and the OPRF endpoint. With its
  // worker paused, OprfKeyQuery frames — one in flight per mux stream —
  // queue there up to the deployed bound, and every frame past it is
  // shed on the spot.
  constexpr std::size_t kOverflow = 64;
  constexpr std::size_t kFrames = Deployment::kMaxLaneDepth + kOverflow;
  Deployment deployment;

  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  std::size_t answered = 0;
  proto::ClientReactor reactor({.shards = 1});
  // Each shed reply carries the retry-after hint and the channel
  // resubmits on its own; the budget outlasts the pause even under a
  // sanitizer.
  auto mux = reactor.open_mux("127.0.0.1", deployment.port(),
                              {.max_unavailable_retries = 1'000});
  std::vector<std::shared_ptr<proto::MuxStream>> streams;
  streams.reserve(kFrames);
  deployment.dispatcher().pause();
  for (std::size_t i = 0; i < kFrames; ++i) {
    streams.push_back(mux->open_stream());
    streams.back()->exchange_async(
        proto::encode_oprf_key_query(), [&](proto::AsyncResult r) {
          bool ok = false;
          if (r.ok()) {
            try {
              (void)proto::expect_reply(r.reply,
                                        proto::MsgKind::kOprfKeyAnswer);
              ok = true;
            } catch (const proto::ProtoError&) {
            }
          }
          std::lock_guard<std::mutex> lock(mu);
          ++done;
          if (ok) ++answered;
          cv.notify_one();
        });
  }
  const auto lane_sheds = [&] {
    return stat(deployment.stats_port(), "dispatch_shed");
  };
  for (int spin = 0; spin < 6'000 && lane_sheds() < kOverflow; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_GE(lane_sheds(), kOverflow)
      << "the paused lane never reached its bound";

  // A version-1 peer arriving now meets the same refusal and reads the
  // deployed hint off the wire (the mux channel consumes its own).
  const int fd = proto::raw::connect_loopback(deployment.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(proto::raw::send_all(
      fd, proto::raw::with_prefix(proto::encode_oprf_key_query())));
  const proto::ErrorReply shed = proto::ErrorReply::decode(
      proto::decode_envelope(proto::raw::read_framed(fd)));
  ::close(fd);
  EXPECT_EQ(shed.code, proto::ErrorCode::kUnavailable);
  EXPECT_EQ(shed.retry_after_ms, Deployment::kRetryAfterMs);

  // The operator surface tells the same story at every layer: the lane
  // holds exactly its bound, and the dispatcher's sheds are mirrored onto
  // the endpoint's shed and refusal tallies. Hinted retries keep landing
  // on the full lane, so these only grow.
  const std::string stats = stats_http_get(deployment.stats_port());
  EXPECT_EQ(stats_value(stats, "dispatch_pending"),
            Deployment::kMaxLaneDepth);
  EXPECT_GE(stats_value(stats, "dispatch_shed"), kOverflow + 1);
  EXPECT_GE(stats_value(stats, "shed_ingest"), kOverflow + 1);
  EXPECT_GE(stats_value(stats, "refused_unavailable"), kOverflow + 1);
  EXPECT_EQ(stats_value(stats, "streams_shed"), 0u)
      << "one frame per stream never reaches the stream backlog bound";

  deployment.dispatcher().resume();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == kFrames; });
  }
  EXPECT_EQ(answered, kFrames) << "a shed frame was never served";
  EXPECT_GE(mux->unavailable_retries(), kOverflow);
  EXPECT_EQ(stat(deployment.stats_port(), "dispatch_pending"), 0u);
}

TEST(Deployment, StatsListJournalCountersExactlyWhenJournaled) {
  const std::vector<std::string> durable_names = {
      "journal_records",           "journal_reencodes",
      "journal_checkpoints",       "journal_fsyncs",
      "recovery_checkpoint_loaded", "recovery_records_replayed",
      "recovery_records_refused",  "recovery_torn_bytes"};
  {
    Deployment plain;
    const std::string json = stats_http_get(plain.stats_port());
    EXPECT_EQ(count_prefixed(json, "journal_"), 0u) << json;
    EXPECT_EQ(count_prefixed(json, "recovery_"), 0u) << json;
  }

  std::string dir =
      (std::filesystem::temp_directory_path() / "eyw-test-deployment.XXXXXX")
          .string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  {
    Deployment journaled({.journal = DurabilityConfig{.dir = dir}});
    const std::string json = stats_http_get(journaled.stats_port());
    EXPECT_EQ(count_prefixed(json, "journal_") +
                  count_prefixed(json, "recovery_"),
              durable_names.size())
        << json;
    for (const std::string& name : durable_names)
      EXPECT_NO_THROW((void)stats_value(json, name)) << name;
    EXPECT_EQ(stats_value(json, "journal_reencodes"), 0u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace eyw::server
