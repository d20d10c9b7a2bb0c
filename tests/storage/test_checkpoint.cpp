// Checkpoint robustness: encode/decode roundtrips, exhaustive truncation
// and bit-flip corruption (every damaged input must throw, never yield
// partial state), and the atomic install / prev-fallback protocol.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "storage/checkpoint.hpp"
#include "storage_test_util.hpp"

namespace eyw::storage {
namespace {

CheckpointData sample_data() {
  const server::BackendConfig config = test_config();
  server::RoundSnapshot snapshot;
  snapshot.round = 7;
  snapshot.roster = 9;
  snapshot.bytes_received = 1234;
  snapshot.params = config.cms_params;
  snapshot.base_cells.resize(config.cms_params.cells());
  for (std::size_t i = 0; i < snapshot.base_cells.size(); ++i)
    snapshot.base_cells[i] = static_cast<crypto::BlindCell>(i * 7919u + 3u);
  snapshot.reporters = {0, 2, 5, 8};
  snapshot.adjusters = {2, 5};
  return {std::move(snapshot), /*journal_next=*/42};
}

void expect_equal(const CheckpointData& want, const CheckpointData& got) {
  EXPECT_EQ(got.snapshot.round, want.snapshot.round);
  EXPECT_EQ(got.snapshot.roster, want.snapshot.roster);
  EXPECT_EQ(got.snapshot.bytes_received, want.snapshot.bytes_received);
  EXPECT_EQ(got.snapshot.params, want.snapshot.params);
  EXPECT_EQ(got.snapshot.reporters, want.snapshot.reporters);
  EXPECT_EQ(got.snapshot.adjusters, want.snapshot.adjusters);
  EXPECT_EQ(got.journal_next, want.journal_next);
  // An empty base encodes as explicit zeros; both mean "all-zero sum".
  std::vector<crypto::BlindCell> want_cells = want.snapshot.base_cells;
  if (want_cells.empty())
    want_cells.assign(want.snapshot.params.cells(), 0);
  std::vector<crypto::BlindCell> got_cells = got.snapshot.base_cells;
  if (got_cells.empty()) got_cells.assign(got.snapshot.params.cells(), 0);
  EXPECT_EQ(got_cells, want_cells);
}

TEST(Checkpoint, EncodeDecodeRoundtrip) {
  const CheckpointData data = sample_data();
  expect_equal(data, decode_checkpoint(encode_checkpoint(data)));
}

// A checkpoint as the byte-at-a-time CRC wrote it: round 7, roster 5,
// reporters {0, 1, 3}, adjuster {1}, a 2x4 partial sum, journal_next 4.
constexpr std::uint8_t kGoldenCheckpoint[] = {
    0x45, 0x59, 0x57, 0x43, 0x01, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2c, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x45, 0x59, 0x57, 0x53,
    0x01, 0x00, 0x02, 0x00, 0x02, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x05, 0x00, 0x00, 0x00,
    0x06, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00,
    0x33, 0xf7, 0xc8, 0xa2};

TEST(Checkpoint, GoldenBytesDecodeAndReencode) {
  CheckpointData want;
  want.snapshot.round = 7;
  want.snapshot.roster = 5;
  want.snapshot.bytes_received = 300;
  want.snapshot.params = {.depth = 2, .width = 4};
  want.snapshot.base_cells = {1, 0xFFFFFFFFu, 3, 0x80000000u, 5, 6, 7, 8};
  want.snapshot.reporters = {0, 1, 3};
  want.snapshot.adjusters = {1};
  want.journal_next = 4;
  expect_equal(want, decode_checkpoint(kGoldenCheckpoint));
  EXPECT_EQ(encode_checkpoint(want),
            std::vector<std::uint8_t>(std::begin(kGoldenCheckpoint),
                                      std::end(kGoldenCheckpoint)));
}

TEST(Checkpoint, EmptyRoundRoundtrip) {
  CheckpointData data;
  data.snapshot.round = 1;
  data.snapshot.roster = 4;
  data.snapshot.params = test_config().cms_params;
  // base_cells empty = no submissions folded in yet (the round anchor).
  expect_equal(data, decode_checkpoint(encode_checkpoint(data)));
}

TEST(Checkpoint, EveryTruncationFailsCleanly) {
  const std::vector<std::uint8_t> bytes = encode_checkpoint(sample_data());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(
        (void)decode_checkpoint(std::span(bytes.data(), len)),
        std::invalid_argument)
        << "truncation to " << len << " of " << bytes.size() << " decoded";
  }
}

TEST(Checkpoint, TrailingGarbageRefused) {
  std::vector<std::uint8_t> bytes = encode_checkpoint(sample_data());
  bytes.push_back(0);
  EXPECT_THROW((void)decode_checkpoint(bytes), std::invalid_argument);
}

TEST(Checkpoint, EveryBitFlipFailsCleanly) {
  const std::vector<std::uint8_t> good = encode_checkpoint(sample_data());
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bad = good;
      bad[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_THROW((void)decode_checkpoint(bad), std::invalid_argument)
          << "flip of byte " << byte << " bit " << bit << " decoded";
    }
  }
}

TEST(Checkpoint, WriteThenLoadRoundtrip) {
  TempDir tmp;
  const CheckpointData data = sample_data();
  write_checkpoint_file(tmp.path(), encode_checkpoint(data));
  std::string error;
  const auto loaded = load_checkpoint(tmp.path(), &error);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(error.empty());
  expect_equal(data, *loaded);
}

TEST(Checkpoint, EmptyDirectoryIsFreshNotDamaged) {
  TempDir tmp;
  std::string error;
  EXPECT_FALSE(load_checkpoint(tmp.path(), &error).has_value());
  EXPECT_TRUE(error.empty());  // "nothing there" != "nothing decodes"
}

TEST(Checkpoint, InstallRotatesAndFallsBackToPrev) {
  TempDir tmp;
  CheckpointData first = sample_data();
  first.journal_next = 10;
  write_checkpoint_file(tmp.path(), encode_checkpoint(first));
  CheckpointData second = sample_data();
  second.journal_next = 20;
  write_checkpoint_file(tmp.path(), encode_checkpoint(second));

  // Newest wins while it decodes...
  auto loaded = load_checkpoint(tmp.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->journal_next, 20u);

  // ...and a half-written install (damaged .ckpt) falls back to .prev
  // instead of failing recovery.
  const std::string ckpt = tmp.path() + "/" + kCheckpointName;
  {
    const int fd = ::open(ckpt.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    std::uint8_t byte = 0;
    ASSERT_EQ(::pread(fd, &byte, 1, 12), 1);
    byte ^= 0x01;
    ASSERT_EQ(::pwrite(fd, &byte, 1, 12), 1);
    ::close(fd);
  }
  std::string error;
  loaded = load_checkpoint(tmp.path(), &error);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->journal_next, 10u);

  // With BOTH damaged the caller must see "damaged", not "fresh".
  const std::string prev = tmp.path() + "/" + kCheckpointPrevName;
  std::filesystem::remove(prev);
  std::filesystem::copy_file(ckpt, prev);
  error.clear();
  EXPECT_FALSE(load_checkpoint(tmp.path(), &error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace eyw::storage
