// Cell-array kernels behind a runtime-dispatched interface — the sketch
// side of the pattern crypto/mont_kernel.* established for Montgomery
// multiplication.
//
// Everything that touches count-min cells in bulk (merge, the id-space
// min-scan, blinded aggregation and adjustment) bottoms out in one of
// three primitive loops over 32-bit cells. Each exists twice:
//
//  * portable — plain scalar loops compiled for the baseline target.
//    Always present; also the agreement oracle for the differential tests.
//  * avx2 — 8-lane AVX2 implementations compiled as their own translation
//    unit with `-mavx2`, selected only when CPUID reports AVX2 and the OS
//    saves YMM state (util/cpu_features.hpp).
//
// Selection happens once per process in active_sketch_kernel(); the
// environment variable EYW_SKETCH_KERNEL ("portable" | "avx2" | "auto")
// overrides it, which is how CI keeps the fallback path tested on
// AVX2-capable runners.
//
// Kernel contract (all functions):
//  * cells are wrapping uint32_t; every operation is elementwise, so the
//    two backends are bit-identical by construction (no reassociation of
//    anything narrower than a lane).
//  * pointers may be unaligned; `dst`/`out` must not alias `src`/`row`/
//    `idx`.
//  * `idx[i] < row length` is the caller's responsibility (row_min reads
//    row[idx[i]]); indices must fit in 31 bits (AVX2 gathers are signed).
#pragma once

#include <cstddef>
#include <cstdint>

namespace eyw::sketch {

struct SketchKernel {
  /// dst[i] += src[i] (wrapping), i in [0, n).
  void (*add_cells)(std::uint32_t* dst, const std::uint32_t* src,
                    std::size_t n);
  /// dst[i] -= src[i] (wrapping), i in [0, n).
  void (*sub_cells)(std::uint32_t* dst, const std::uint32_t* src,
                    std::size_t n);
  /// out[i] = min(out[i], row[idx[i]]) — the gather half of the count-min
  /// min-scan (hashes stay scalar; see CountMinSketch).
  void (*row_min)(std::uint32_t* out, const std::uint32_t* row,
                  const std::uint32_t* idx, std::size_t n);
  /// Stable identifier ("portable", "avx2") — surfaces in benches and the
  /// BENCH_*.json trajectory artifacts.
  const char* name;
};

/// The scalar reference kernel. Always available.
[[nodiscard]] const SketchKernel& portable_sketch_kernel() noexcept;

/// The AVX2 kernel, or nullptr when it was not compiled in (non-x86 build /
/// toolchain without -mavx2) or the CPU lacks AVX2.
[[nodiscard]] const SketchKernel* avx2_sketch_kernel() noexcept;

/// CPUID says this CPU executes AVX2 and XCR0 says the OS saves YMM state
/// (independent of whether the kernel was compiled in).
[[nodiscard]] bool cpu_supports_avx2() noexcept;

/// The kernel bulk cell operations use: avx2 when compiled in and the CPU
/// supports it, else portable; EYW_SKETCH_KERNEL overrides (read once, at
/// first use).
[[nodiscard]] const SketchKernel& active_sketch_kernel() noexcept;

}  // namespace eyw::sketch
