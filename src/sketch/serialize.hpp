// Wire format for sketches and blinded reports.
//
// The deployed system ships blinded cell vectors and sketch geometry
// between extensions and the back-end weekly. This module defines the
// byte-exact, versioned, endian-stable encoding used for that transport
// (and for the report frames the write-ahead journal persists).
//
// Layout (all integers little-endian):
//   magic   u32  'EYWS'
//   version u16  (currently 1)
//   kind    u16  (1 = plaintext CMS, 2 = blinded report)
//   depth   u32
//   width   u32
//   seed    u64  (CMS hash seed; 0 for blinded reports — geometry only)
//   round   u64  (reporting round; 0 for plaintext sketches)
//   cells   u32[depth*width]
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sketch/count_min.hpp"

namespace eyw::sketch {

/// Encoded frame kinds.
enum class FrameKind : std::uint16_t {
  kPlainSketch = 1,
  kBlindedReport = 2,
};

/// Hard cap on depth * width accepted by decode_frame, checked before any
/// size arithmetic or allocation. A crafted header with huge dimensions
/// could otherwise wrap the expected-size computation (depth and width are
/// u32, so depth * width * 4 can overflow std::size_t) and drive a
/// multi-gigabyte allocation from a 36-byte input. 2^26 cells = 256 MB,
/// ~300x the paper's largest sketch.
inline constexpr std::size_t kMaxFrameCells = std::size_t{1} << 26;

struct DecodedFrame {
  FrameKind kind = FrameKind::kPlainSketch;
  CmsParams params;
  std::uint64_t hash_seed = 0;
  std::uint64_t round = 0;
  std::vector<std::uint32_t> cells;
};

/// Serialize a plaintext sketch.
[[nodiscard]] std::vector<std::uint8_t> encode_sketch(
    const CountMinSketch& cms);

/// Serialize a blinded report (cells as produced by
/// client::BrowserExtension::build_blinded_report).
[[nodiscard]] std::vector<std::uint8_t> encode_blinded_report(
    const CmsParams& params, std::uint64_t round,
    std::span<const std::uint32_t> blinded_cells);

/// Parse either frame kind. Throws std::invalid_argument on bad magic,
/// unsupported version, truncation, or geometry/payload mismatch.
[[nodiscard]] DecodedFrame decode_frame(std::span<const std::uint8_t> bytes);

/// Reconstruct a CountMinSketch from a decoded kPlainSketch frame.
[[nodiscard]] CountMinSketch sketch_from_frame(const DecodedFrame& frame);

/// Size in bytes of the encoding for the given geometry (header + cells).
[[nodiscard]] std::size_t encoded_size(const CmsParams& params) noexcept;

}  // namespace eyw::sketch
