// The runtime-dispatched kernels a process actually selected (CPUID plus
// the EYW_*_KERNEL overrides). Both benchmark processes record theirs: a
// results.json compares like with like only when these agree.
#pragma once

#include <string>

#include "crypto/mont_kernel.hpp"
#include "crypto/sha256_kernel.hpp"
#include "sketch/sketch_kernel.hpp"

namespace eyw::bench {

struct Kernels {
  std::string mont;
  std::string sketch;
  std::string sha256;
};

[[nodiscard]] inline Kernels active_kernels() {
  return {crypto::active_mont_kernel().name,
          sketch::active_sketch_kernel().name,
          crypto::active_sha256_kernel().name};
}

}  // namespace eyw::bench
