// DurabilityQueue bounds: backpressure counts stalls but can never
// wedge a producer — in particular a payload larger than the whole byte
// bound must be admitted alone, not wait for room that cannot exist.
// Group commit: one window takes every record enqueued while it is open
// into one append and one fdatasync, and each of its closing conditions
// (a waiter, a checkpoint, the half-full queue) ends it long before a
// 10 s max_commit_delay would.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "storage/checkpoint.hpp"
#include "storage/durability_queue.hpp"
#include "storage/journal.hpp"
#include "storage_test_util.hpp"

namespace eyw::storage {
namespace {

std::vector<std::uint8_t> filled(std::size_t len, std::uint8_t byte) {
  return std::vector<std::uint8_t>(len, byte);
}

TEST(DurabilityQueue, RecordsReachJournalThroughGroupCommit) {
  TempDir tmp;
  {
    DurabilityQueue queue(std::make_unique<Journal>(tmp.path()));
    for (std::uint8_t i = 0; i < 8; ++i)
      EXPECT_EQ(queue.enqueue_record(filled(16, i)), i);
    queue.flush();
    const DurabilityStats stats = queue.stats();
    EXPECT_EQ(stats.records, 8u);
    EXPECT_EQ(stats.off_writer_io, 0u);
  }
  Journal reopened(tmp.path());
  std::uint64_t seen = 0;
  reopened.replay(0, [&](std::uint64_t index,
                         std::span<const std::uint8_t> payload) {
    EXPECT_EQ(index, seen++);
    ASSERT_EQ(payload.size(), 16u);
    EXPECT_EQ(payload[0], static_cast<std::uint8_t>(index));
  });
  EXPECT_EQ(seen, 8u);
}

TEST(DurabilityQueue, OversizedRecordAdmittedAloneNotLivelocked) {
  TempDir tmp;
  DurabilityQueue queue(std::make_unique<Journal>(tmp.path()),
                        {.max_pending_records = 4,
                         .max_pending_bytes = 1024});
  // 4 KiB against a 1 KiB byte bound: queued_bytes + size can never fit
  // under the bound, so only the empty-queue escape admits it. Without
  // that escape this call blocks forever.
  const std::uint64_t idx = queue.enqueue_record(filled(4096, 0xAB));
  queue.wait_durable(idx);
  const DurabilityStats stats = queue.stats();
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.record_bytes, 4096u);

  // And the queue keeps working normally afterwards.
  queue.wait_durable(queue.enqueue_record(filled(16, 0x01)));
  EXPECT_EQ(queue.stats().records, 2u);
}

using Clock = std::chrono::steady_clock;

constexpr std::chrono::milliseconds kLongWindow{10'000};
/// Far below kLongWindow: a wait this long only passes if something
/// other than the delay closed the window.
constexpr std::chrono::seconds kPrompt{5};

/// Poll `done` until it holds or kPrompt passes.
bool eventually(const std::function<bool()>& done) {
  const Clock::time_point give_up = Clock::now() + kPrompt;
  while (!done()) {
    if (Clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(DurabilityQueue, WindowGroupsTrickledRecordsIntoOneCommit) {
  TempDir tmp;
  DurabilityQueue queue(std::make_unique<Journal>(tmp.path()),
                        {.max_commit_delay = kLongWindow});
  constexpr std::uint8_t kRecords = 40;
  for (std::uint8_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(queue.enqueue_record(filled(32, i)), i);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const Clock::time_point start = Clock::now();
  queue.flush();
  EXPECT_LT(Clock::now() - start, kPrompt);
  const DurabilityStats stats = queue.stats();
  EXPECT_EQ(stats.records, kRecords);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.fsyncs, 1u);
  EXPECT_EQ(stats.off_writer_io, 0u);
}

TEST(DurabilityQueue, CheckpointClosesTheWindow) {
  TempDir tmp;
  DurabilityQueue queue(std::make_unique<Journal>(tmp.path()),
                        {.max_commit_delay = kLongWindow});
  for (std::uint8_t i = 0; i < 5; ++i) queue.enqueue_record(filled(16, i));
  CheckpointData data;
  data.snapshot.round = 1;
  data.snapshot.roster = 4;
  data.snapshot.params = test_config().cms_params;
  data.journal_next = queue.next_index();
  queue.enqueue_checkpoint(encode_checkpoint(data), data.journal_next);

  // No flush: the queued checkpoint alone ends the window, and the
  // records in front of it are synced before it installs.
  ASSERT_TRUE(eventually([&] { return queue.stats().checkpoints == 1; }));
  const DurabilityStats stats = queue.stats();
  EXPECT_EQ(stats.records, 5u);
  EXPECT_EQ(stats.fsyncs, 1u);
  const auto loaded = load_checkpoint(tmp.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->journal_next, 5u);
}

TEST(DurabilityQueue, HalfFullQueueDrainsWithoutAWaiter) {
  TempDir tmp;
  DurabilityQueue queue(std::make_unique<Journal>(tmp.path()),
                        {.max_pending_records = 8,
                         .max_commit_delay = kLongWindow});
  for (std::uint8_t i = 0; i < 3; ++i) queue.enqueue_record(filled(16, i));
  // Below half the bound the window stays open: nothing is written yet.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(queue.stats().records, 0u);

  // The fourth record fills the queue to half of 8 and closes the window.
  queue.enqueue_record(filled(16, 3));
  ASSERT_TRUE(eventually([&] { return queue.stats().records == 4; }));
  const DurabilityStats stats = queue.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.fsyncs, 1u);
  EXPECT_EQ(stats.enqueue_stalls, 0u);
}

TEST(DurabilityQueue, ConcurrentProducersFlushesAndACheckpoint) {
  TempDir tmp;
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 300;
  DurabilityQueue queue(
      std::make_unique<Journal>(tmp.path(),
                                JournalOptions{.segment_bytes = 2048}),
      {.max_pending_records = 64,
       .max_commit_delay = std::chrono::milliseconds(2)});

  std::atomic<bool> producing{true};
  std::thread flusher([&] {
    while (producing.load()) {
      queue.flush();
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint32_t seq = 0; seq < kPerProducer; ++seq) {
        std::vector<std::uint8_t> record(12, 0);
        record[0] = static_cast<std::uint8_t>(p);
        std::memcpy(record.data() + 4, &seq, sizeof(seq));
        const std::uint64_t index = queue.enqueue_record(std::move(record));
        if (seq % 97 == 0) queue.wait_durable(index);
      }
    });
  }
  ASSERT_TRUE(eventually(
      [&] { return queue.next_index() >= kProducers * kPerProducer / 2; }));
  CheckpointData data;
  data.snapshot.round = 1;
  data.snapshot.roster = 4;
  data.snapshot.params = test_config().cms_params;
  data.journal_next = 0;  // covers nothing: every record stays replayable
  queue.enqueue_checkpoint(encode_checkpoint(data), data.journal_next);
  for (auto& t : producers) t.join();
  producing.store(false);
  flusher.join();
  queue.flush();

  const DurabilityStats stats = queue.stats();
  EXPECT_EQ(stats.records, kProducers * kPerProducer);
  EXPECT_EQ(stats.checkpoints, 1u);
  EXPECT_EQ(stats.off_writer_io, 0u);
  EXPECT_LE(stats.fsyncs, stats.batches + stats.checkpoints);

  // Every record is on disk exactly once, each producer's in its order.
  Journal reopened(tmp.path(), {.segment_bytes = 2048});
  std::vector<std::uint32_t> next_seq(kProducers, 0);
  std::uint64_t seen = 0;
  const auto replay = reopened.replay(
      0, [&](std::uint64_t index, std::span<const std::uint8_t> payload) {
        EXPECT_EQ(index, seen++);
        ASSERT_EQ(payload.size(), 12u);
        std::uint32_t seq = 0;
        std::memcpy(&seq, payload.data() + 4, sizeof(seq));
        EXPECT_EQ(seq, next_seq[payload[0]]++);
      });
  EXPECT_TRUE(replay.clean);
  EXPECT_EQ(seen, kProducers * kPerProducer);
}

}  // namespace
}  // namespace eyw::storage
