// The RoundSummary decoder against hostile bytes. The histogram it
// carries is sized by a count the peer declares, so every refusal must be
// typed and must not allocate anything sized by that count. The
// allocation probe below replaces the global operator new/delete for the
// whole binary, which is why these tests live apart from tests/proto.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <new>
#include <utility>
#include <vector>

#include "proto/message.hpp"
#include "proto/transport.hpp"
#include "proto/wire.hpp"
#include "server/backend.hpp"
#include "server/remote_backend.hpp"

// Allocation probe for the decoder tests: the largest single operator-new
// request made on this thread since the probe was last reset.
namespace {
thread_local std::size_t g_largest_alloc = 0;
}  // namespace

void* operator new(std::size_t size) {
  g_largest_alloc = std::max(g_largest_alloc, size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_largest_alloc = std::max(g_largest_alloc, size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }


namespace eyw::proto {
namespace {

const sketch::CmsParams kParams{.depth = 2, .width = 8};

ErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ProtoError& e) {
    return e.code();
  }
  return ErrorCode::kOk;
}

/// A RoundSummary whose histogram is written field by field, so hostile
/// variants can declare one bin count and carry any bins at all.
std::vector<std::uint8_t> summary_payload(
    std::uint32_t declared,
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& bins) {
  WireWriter w;
  w.u64(0);  // users_th
  w.u32(1);  // reports
  w.u32(1);  // roster
  w.u32(declared);
  for (const auto& [value, weight] : bins) {
    w.u32(value);
    w.u64(weight);
  }
  return w.take();
}

/// A refusal allocates its message and nothing sized by the input.
constexpr std::size_t kSmallAlloc = 1024;

/// Decode `payload` as a RoundSummary; the refusal code (kOk if accepted)
/// and the largest single allocation the decode made.
std::pair<ErrorCode, std::size_t> decode_summary(
    std::span<const std::uint8_t> payload) {
  const Envelope env = decode_envelope(
      encode_envelope(MsgKind::kRoundSummary, kServerSender, 0, payload));
  g_largest_alloc = 0;
  const ErrorCode code = code_of([&] { (void)RoundSummary::decode(env); });
  return {code, g_largest_alloc};
}

TEST(RoundSummaryDecoder, TruncatedAtEveryByteRefused) {
  const auto payload = summary_payload(3, {{1, 7}, {2, 1}, {40, 2}});
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const auto [code, largest] =
        decode_summary(std::span<const std::uint8_t>(payload.data(), cut));
    EXPECT_EQ(code, ErrorCode::kTruncated) << "cut=" << cut;
    EXPECT_LT(largest, kSmallAlloc) << "cut=" << cut;
  }
  EXPECT_EQ(decode_summary(payload).first, ErrorCode::kOk);
}

TEST(RoundSummaryDecoder, BinsAboveCellCapRefusedBeforeAllocation) {
  // No sketch has more than kMaxFrameCells cells, so no histogram has
  // more bins. A declared count under the cap but backed by nothing must
  // die on the payload length, before a count-sized reserve.
  for (const std::uint64_t declared :
       {std::uint64_t{sketch::kMaxFrameCells} + 1, std::uint64_t{0xffffffff}}) {
    EXPECT_EQ(decode_summary(summary_payload(
                                 static_cast<std::uint32_t>(declared), {}))
                  .first,
              ErrorCode::kOversized);
  }
  const auto [code, largest] = decode_summary(summary_payload(
      static_cast<std::uint32_t>(sketch::kMaxFrameCells), {{1, 1}}));
  EXPECT_EQ(code, ErrorCode::kTruncated);
  EXPECT_LT(largest, kSmallAlloc);
}

TEST(RoundSummaryDecoder, UnsortedOrDuplicateValuesRefused) {
  EXPECT_EQ(decode_summary(summary_payload(2, {{3, 1}, {2, 1}})).first,
            ErrorCode::kMalformed);
  EXPECT_EQ(decode_summary(summary_payload(2, {{2, 1}, {2, 1}})).first,
            ErrorCode::kMalformed);
}

TEST(RoundSummaryDecoder, ZeroValueOrZeroWeightRefused) {
  // Ids that query to 0 are not ads, and an empty bin is not a bin.
  EXPECT_EQ(decode_summary(summary_payload(1, {{0, 5}})).first,
            ErrorCode::kMalformed);
  EXPECT_EQ(decode_summary(summary_payload(2, {{1, 5}, {3, 0}})).first,
            ErrorCode::kMalformed);
}

TEST(RoundSummaryDecoder, WeightSumOverflowRefused) {
  EXPECT_EQ(
      decode_summary(summary_payload(2, {{1, ~std::uint64_t{0}}, {2, 1}}))
          .first,
      ErrorCode::kMalformed);
  EXPECT_EQ(decode_summary(
                summary_payload(2, {{1, ~std::uint64_t{0} - 1}, {2, 1}}))
                .first,
            ErrorCode::kOk);
}

TEST(RoundSummaryDecoder, RemoteBackendRefusesHistogramLargerThanTheRound) {
  // The decoder cannot know the round's geometry or id space; the
  // RemoteBackend that asked for the summary does.
  const server::BackendConfig config{
      .cms_params = kParams, .cms_hash_seed = 1, .id_space = 100};
  RoundSummary summary;
  summary.reports = 1;
  summary.roster = 1;
  summary.sketch_frame =
      sketch::encode_sketch(sketch::CountMinSketch(kParams, 1));
  LoopbackTransport link(
      [&](std::span<const std::uint8_t>) { return summary.encode(0); });
  server::RemoteBackend remote(link, config);
  const auto finalize_code = [&] {
    return code_of([&] { (void)remote.finalize_round(); });
  };

  summary.distribution = core::UsersDistribution::from_bins(
      {{.value = 1, .weight = 60}, {.value = 2, .weight = 41}});
  EXPECT_EQ(finalize_code(), ErrorCode::kMalformed);  // 101 ids > id_space

  std::vector<core::UsersBin> bins;
  for (std::uint32_t v = 1; v <= kParams.cells() + 1; ++v)
    bins.push_back({.value = v, .weight = 1});
  summary.distribution = core::UsersDistribution::from_bins(bins);
  EXPECT_EQ(finalize_code(), ErrorCode::kMalformed);  // 17 bins > 16 cells

  summary.distribution = core::UsersDistribution::from_bins(
      {{.value = 1, .weight = 60}, {.value = 2, .weight = 40}});
  EXPECT_EQ(remote.finalize_round().distribution, summary.distribution);
}

}  // namespace
}  // namespace eyw::proto
