// Shared fixtures for the storage tests: a self-deleting journal
// directory and the small round geometry every suite reuses.
#pragma once

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <stdlib.h>

#include "server/backend.hpp"

namespace eyw::storage {

/// mkdtemp under the working directory (CI sandboxes contain every byte
/// the tests write), removed with everything in it on destruction.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "eyw-storage-test.XXXXXX";
    if (::mkdtemp(tmpl) == nullptr)
      throw std::runtime_error("mkdtemp failed");
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Small geometry so finalize's id-space scan stays cheap in tests.
inline server::BackendConfig test_config() {
  return {.cms_params = {.depth = 2, .width = 32},
          .cms_hash_seed = 9,
          .id_space = 200,
          .users_rule = core::ThresholdRule::kMean};
}

/// Deterministic synthetic cells for participant `i` (wrapping arithmetic
/// makes any subset-sum reproducible, which is what recovery equality
/// tests lean on).
inline std::vector<crypto::BlindCell> test_cells(
    const server::BackendConfig& config, std::size_t i) {
  std::vector<crypto::BlindCell> cells(config.cms_params.cells());
  for (std::size_t c = 0; c < cells.size(); ++c)
    cells[c] = static_cast<crypto::BlindCell>(i * 2654435761u + c * 97u + 1u);
  return cells;
}

/// Field-by-field bit-identity of two round results.
inline bool results_identical(const server::RoundResult& a,
                              const server::RoundResult& b) {
  const auto ac = a.aggregate.cells();
  const auto bc = b.aggregate.cells();
  if (ac.size() != bc.size() || a.users_threshold != b.users_threshold ||
      a.distribution != b.distribution ||
      a.reports != b.reports || a.roster != b.roster)
    return false;
  for (std::size_t i = 0; i < ac.size(); ++i)
    if (ac[i] != bc[i]) return false;
  return true;
}

}  // namespace eyw::storage
