// The write-ahead journal's on-disk contract: append/replay roundtrips,
// segment rotation, torn-tail truncation on reopen, checkpoint-driven
// truncation, index reservation, the single-writer I/O invariant, and
// run appends writing exactly the bytes one-at-a-time appends write.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "storage/journal.hpp"
#include "storage_test_util.hpp"

namespace eyw::storage {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> payload_for(std::size_t i, std::size_t len) {
  std::vector<std::uint8_t> p(len);
  for (std::size_t b = 0; b < len; ++b)
    p[b] = static_cast<std::uint8_t>(i * 31 + b);
  return p;
}

std::size_t segment_count(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".seg") ++n;
  return n;
}

/// Append raw bytes to the single tail segment (simulating the partial
/// write a crash leaves behind — the journal handle must be closed).
void append_raw_to_tail(const std::string& dir,
                        const std::vector<std::uint8_t>& bytes) {
  std::string tail;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".seg" &&
        (tail.empty() || entry.path().string() > tail))
      tail = entry.path().string();
  ASSERT_FALSE(tail.empty());
  const int fd = ::open(tail.c_str(), O_WRONLY | O_APPEND);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fd);
}

TEST(Journal, FreshDirectoryStartsEmpty) {
  TempDir tmp;
  Journal journal(tmp.path());
  EXPECT_EQ(journal.next_index(), 0u);
  const auto stats =
      journal.replay(0, [](std::uint64_t, std::span<const std::uint8_t>) {
        FAIL() << "no records expected";
      });
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.torn_bytes, 0u);
  EXPECT_TRUE(stats.clean);
}

TEST(Journal, AppendSyncReplayRoundtrip) {
  TempDir tmp;
  Journal journal(tmp.path());
  constexpr std::size_t kRecords = 20;
  for (std::size_t i = 0; i < kRecords; ++i)
    EXPECT_EQ(journal.append(payload_for(i, 5 + i)), i);
  journal.sync();

  std::uint64_t seen = 0;
  const auto stats = journal.replay(
      0, [&](std::uint64_t index, std::span<const std::uint8_t> payload) {
        EXPECT_EQ(index, seen);
        const auto want = payload_for(index, 5 + index);
        ASSERT_EQ(payload.size(), want.size());
        EXPECT_TRUE(std::equal(payload.begin(), payload.end(), want.begin()));
        ++seen;
      });
  EXPECT_EQ(seen, kRecords);
  EXPECT_EQ(stats.records, kRecords);
  EXPECT_EQ(stats.torn_bytes, 0u);
  EXPECT_TRUE(stats.clean);
}

TEST(Journal, ReplayFromSkipsCoveredPrefix) {
  TempDir tmp;
  Journal journal(tmp.path());
  for (std::size_t i = 0; i < 10; ++i) journal.append(payload_for(i, 8));
  std::vector<std::uint64_t> indices;
  journal.replay(7, [&](std::uint64_t index, std::span<const std::uint8_t>) {
    indices.push_back(index);
  });
  EXPECT_EQ(indices, (std::vector<std::uint64_t>{7, 8, 9}));
}

TEST(Journal, IndexSurvivesReopen) {
  TempDir tmp;
  {
    Journal journal(tmp.path());
    for (std::size_t i = 0; i < 6; ++i) journal.append(payload_for(i, 16));
    journal.sync();
  }
  Journal reopened(tmp.path());
  EXPECT_EQ(reopened.next_index(), 6u);
  EXPECT_EQ(reopened.append(payload_for(6, 16)), 6u);
  const auto stats = reopened.replay(
      0, [](std::uint64_t, std::span<const std::uint8_t>) {});
  EXPECT_EQ(stats.records, 7u);
  EXPECT_TRUE(stats.clean);
}

TEST(Journal, RefusesEmptyAndOversizedRecords) {
  TempDir tmp;
  Journal journal(tmp.path(), {.max_record_bytes = 64});
  EXPECT_THROW(journal.append(std::span<const std::uint8_t>{}),
               std::invalid_argument);
  EXPECT_THROW(journal.append(payload_for(0, 65)), std::invalid_argument);
  EXPECT_EQ(journal.next_index(), 0u);  // refused appends consume nothing
  EXPECT_EQ(journal.append(payload_for(0, 64)), 0u);
}

TEST(Journal, RotatesSegmentsAndReplaysAcrossThem) {
  TempDir tmp;
  // Tiny segments: every record (8 B header + 24 B payload) overflows the
  // 64 B bound, so each append after the first rotates.
  Journal journal(tmp.path(), {.segment_bytes = 64});
  constexpr std::size_t kRecords = 9;
  for (std::size_t i = 0; i < kRecords; ++i) journal.append(payload_for(i, 24));
  journal.sync();
  EXPECT_GT(segment_count(tmp.path()), 1u);

  std::uint64_t seen = 0;
  const auto stats = journal.replay(
      0, [&](std::uint64_t index, std::span<const std::uint8_t> payload) {
        EXPECT_EQ(index, seen++);
        EXPECT_EQ(payload.size(), 24u);
      });
  EXPECT_EQ(stats.records, kRecords);
  EXPECT_TRUE(stats.clean);

  // And the rotated stream reopens where it left off.
  Journal reopened(tmp.path(), {.segment_bytes = 64});
  EXPECT_EQ(reopened.next_index(), kRecords);
}

TEST(Journal, RotationSyncsOutgoingSegmentBeforeRetiringIt) {
  TempDir tmp;
  Journal journal(tmp.path(), {.segment_bytes = 64});
  for (std::size_t i = 0; i < 3; ++i) journal.append(payload_for(i, 24));
  ASSERT_GT(segment_count(tmp.path()), 1u);
  // sync() can only reach the fd it holds: once a segment is rotated
  // away it is unreachable, so the rotation itself must have fdatasynced
  // it — otherwise a group commit spanning the rotation would publish
  // records as durable that only the page cache holds.
  EXPECT_GE(journal.data_syncs(), 1u);
}

TEST(Journal, TornTailTruncatedOnReopen) {
  TempDir tmp;
  {
    Journal journal(tmp.path());
    for (std::size_t i = 0; i < 4; ++i) journal.append(payload_for(i, 12));
    journal.sync();
  }
  // A record header claiming 50 payload bytes followed by only 5 — the
  // shape a kill -9 mid-append leaves.
  append_raw_to_tail(tmp.path(),
                     {50, 0, 0, 0, 0xAA, 0xBB, 0xCC, 0xDD, 1, 2, 3, 4, 5});

  Journal reopened(tmp.path());
  EXPECT_EQ(reopened.next_index(), 4u);  // the torn record never happened
  EXPECT_EQ(reopened.append(payload_for(4, 12)), 4u);
  std::uint64_t seen = 0;
  const auto stats = reopened.replay(
      0, [&](std::uint64_t index, std::span<const std::uint8_t> payload) {
        EXPECT_EQ(index, seen++);
        const auto want = payload_for(index, 12);
        EXPECT_TRUE(std::equal(payload.begin(), payload.end(), want.begin()));
      });
  EXPECT_EQ(stats.records, 5u);
  EXPECT_EQ(stats.torn_bytes, 0u);  // reopen already cut the damage away
  EXPECT_TRUE(stats.clean);
}

TEST(Journal, ZeroedPreallocationIsNotARecord) {
  TempDir tmp;
  {
    Journal journal(tmp.path());
    journal.append(payload_for(0, 12));
    journal.sync();
  }
  // A zero-filled region (filesystem preallocation surviving a crash)
  // must parse as a torn tail, never as valid empty records.
  append_raw_to_tail(tmp.path(), std::vector<std::uint8_t>(64, 0));
  Journal reopened(tmp.path());
  EXPECT_EQ(reopened.next_index(), 1u);
}

TEST(Journal, MidStreamDamageReportedUnclean) {
  TempDir tmp;
  {
    Journal journal(tmp.path(), {.segment_bytes = 64});
    for (std::size_t i = 0; i < 4; ++i) journal.append(payload_for(i, 24));
    journal.sync();
  }
  // Flip a payload byte in the FIRST segment: damage before the tail
  // means records were lost mid-stream — replay must say so.
  std::string first;
  for (const auto& entry : fs::directory_iterator(tmp.path()))
    if (entry.path().extension() == ".seg" &&
        (first.empty() || entry.path().string() < first))
      first = entry.path().string();
  {
    const int fd = ::open(first.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    std::uint8_t byte = 0;
    ASSERT_EQ(::pread(fd, &byte, 1, 16 + 8 + 3), 1);  // a payload byte
    byte ^= 0x40;
    ASSERT_EQ(::pwrite(fd, &byte, 1, 16 + 8 + 3), 1);
    ::close(fd);
  }
  Journal reopened(tmp.path(), {.segment_bytes = 64});
  const auto stats = reopened.replay(
      0, [](std::uint64_t, std::span<const std::uint8_t>) {});
  EXPECT_FALSE(stats.clean);
  EXPECT_LT(stats.records, 4u);
}

TEST(Journal, TruncateThroughDeletesCoveredSegments) {
  TempDir tmp;
  Journal journal(tmp.path(), {.segment_bytes = 64});
  for (std::size_t i = 0; i < 9; ++i) journal.append(payload_for(i, 24));
  journal.sync();
  const std::size_t before = segment_count(tmp.path());
  ASSERT_GT(before, 2u);

  journal.truncate_through(journal.next_index());
  // Everything covered, but the active tail must survive: it carries the
  // on-disk base for the next append.
  EXPECT_EQ(segment_count(tmp.path()), 1u);
  EXPECT_EQ(journal.next_index(), 9u);

  // Appends continue seamlessly and replay sees only the surviving tail.
  journal.append(payload_for(9, 24));
  std::vector<std::uint64_t> indices;
  journal.replay(9, [&](std::uint64_t index, std::span<const std::uint8_t>) {
    indices.push_back(index);
  });
  EXPECT_EQ(indices, (std::vector<std::uint64_t>{9}));
}

TEST(Journal, TruncatePartialCoverageKeepsUncoveredSegments) {
  TempDir tmp;
  Journal journal(tmp.path(), {.segment_bytes = 64});
  for (std::size_t i = 0; i < 9; ++i) journal.append(payload_for(i, 24));
  journal.sync();
  const std::size_t before = segment_count(tmp.path());
  journal.truncate_through(2);  // covers at most the first segments
  const std::size_t after = segment_count(tmp.path());
  EXPECT_LT(after, before);
  // Records >= 2 still replay.
  std::uint64_t seen = 0;
  journal.replay(2, [&](std::uint64_t, std::span<const std::uint8_t>) {
    ++seen;
  });
  EXPECT_EQ(seen, 7u);
}

TEST(Journal, ReserveThroughOpensFreshSegmentAtNewBase) {
  TempDir tmp;
  Journal journal(tmp.path());
  journal.append(payload_for(0, 8));
  journal.append(payload_for(1, 8));
  journal.reserve_through(10);
  EXPECT_EQ(journal.next_index(), 10u);
  journal.reserve_through(3);  // never moves backwards
  EXPECT_EQ(journal.next_index(), 10u);
  EXPECT_EQ(journal.append(payload_for(10, 8)), 10u);
  // The reserved range exists in no segment: a reopen agrees on the base.
  Journal reopened(tmp.path());
  EXPECT_EQ(reopened.next_index(), 11u);
}

TEST(Journal, ReservedGapBelowReplayFromIsNotDamage) {
  TempDir tmp;
  Journal journal(tmp.path());
  journal.append(payload_for(0, 8));
  journal.append(payload_for(1, 8));
  journal.sync();
  // The recovery shape: a checkpoint covers indices [0, 10) of which the
  // journal only ever held 0..1, so appends resume at 10 in a fresh
  // segment — leaving an index gap between the two segments.
  journal.reserve_through(10);
  journal.append(payload_for(10, 8));
  journal.sync();

  // Replaying from the checkpoint boundary: the gap sits entirely under
  // checkpoint coverage, so it is the reservation, not lost records.
  auto stats = journal.replay(
      10, [](std::uint64_t, std::span<const std::uint8_t>) {});
  EXPECT_EQ(stats.records, 1u);
  EXPECT_TRUE(stats.clean);

  // Without checkpoint coverage the same gap IS missing records.
  stats =
      journal.replay(0, [](std::uint64_t, std::span<const std::uint8_t>) {});
  EXPECT_FALSE(stats.clean);
}

TEST(Journal, OffThreadIoCounterCatchesForeignThreads) {
  TempDir tmp;
  Journal journal(tmp.path());
  journal.bind_io_thread(std::this_thread::get_id());
  journal.append(payload_for(0, 8));
  journal.sync();
  EXPECT_EQ(journal.off_thread_io(), 0u);  // the bound thread is free

  std::thread intruder([&] { journal.append(payload_for(1, 8)); });
  intruder.join();
  EXPECT_EQ(journal.off_thread_io(), 1u);
}

/// Every segment file in `dir`, name -> bytes.
std::map<std::string, std::vector<std::uint8_t>> segment_files(
    const std::string& dir) {
  std::map<std::string, std::vector<std::uint8_t>> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".seg") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    out[entry.path().filename().string()] = {
        std::istreambuf_iterator<char>(in), {}};
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> replay_all(const Journal& journal) {
  std::vector<std::vector<std::uint8_t>> out;
  const auto stats = journal.replay(
      0, [&](std::uint64_t index, std::span<const std::uint8_t> payload) {
        EXPECT_EQ(index, out.size());
        out.emplace_back(payload.begin(), payload.end());
      });
  EXPECT_TRUE(stats.clean);
  EXPECT_EQ(stats.torn_bytes, 0u);
  return out;
}

TEST(Journal, RunAppendIsByteIdenticalToOneAtATime) {
  // Sizes 1..97 cycling, so rotation at 4 KiB lands mid-run at varying
  // offsets; one run is longer than a single writev may carry.
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t i = 0; i < 3 * kRunRecordsPerWrite + 40; ++i)
    payloads.push_back(payload_for(i, 1 + (i * 37) % 97));
  const JournalOptions options{.segment_bytes = 4096};

  TempDir singles;
  {
    Journal journal(singles.path(), options);
    for (std::size_t i = 0; i < payloads.size(); ++i)
      EXPECT_EQ(journal.append(payloads[i]), i);
    journal.sync();
  }
  TempDir runs;
  {
    Journal journal(runs.path(), options);
    const std::vector<std::span<const std::uint8_t>> all(payloads.begin(),
                                                         payloads.end());
    const std::span<const std::span<const std::uint8_t>> rest(all);
    std::size_t at = 0;
    for (const std::size_t len :
         {std::size_t{1}, std::size_t{3}, std::size_t{0},
          kRunRecordsPerWrite + 100, std::size_t{60}}) {
      EXPECT_EQ(journal.append(rest.subspan(at, len)), at);
      at += len;
    }
    EXPECT_EQ(journal.append(rest.subspan(at)), at);
    EXPECT_EQ(journal.next_index(), payloads.size());
    journal.sync();
  }

  const auto want = segment_files(singles.path());
  EXPECT_GT(want.size(), 5u);
  EXPECT_EQ(segment_files(runs.path()), want);
  Journal reopened_singles(singles.path(), options);
  Journal reopened_runs(runs.path(), options);
  EXPECT_EQ(reopened_runs.next_index(), payloads.size());
  const auto replayed = replay_all(reopened_runs);
  EXPECT_EQ(replayed, replay_all(reopened_singles));
  EXPECT_EQ(replayed, payloads);
}

TEST(Journal, InvalidRecordMidRunLandsThePrefixThenThrows) {
  const std::vector<std::uint8_t> p0 = payload_for(0, 24);
  const std::vector<std::uint8_t> p1 = payload_for(1, 40);
  const std::vector<std::uint8_t> oversized = payload_for(2, 65);
  const JournalOptions options{.segment_bytes = 64, .max_record_bytes = 64};

  TempDir runs;
  Journal journal(runs.path(), options);
  const std::span<const std::uint8_t> with_empty[] = {p0, p1, {}, p0};
  EXPECT_THROW(journal.append(with_empty), std::invalid_argument);
  EXPECT_EQ(journal.next_index(), 2u);
  const std::span<const std::uint8_t> with_oversized[] = {p1, oversized};
  EXPECT_THROW(journal.append(with_oversized), std::invalid_argument);
  EXPECT_EQ(journal.next_index(), 3u);
  journal.sync();

  TempDir singles;
  {
    Journal one(singles.path(), options);
    one.append(p0);
    one.append(p1);
    one.append(p1);
    one.sync();
  }
  EXPECT_EQ(segment_files(runs.path()), segment_files(singles.path()));
  EXPECT_EQ(replay_all(journal),
            (std::vector<std::vector<std::uint8_t>>{p0, p1, p1}));
}

}  // namespace
}  // namespace eyw::storage
