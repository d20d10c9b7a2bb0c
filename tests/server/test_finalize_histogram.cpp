// The fused finalize scan against the path it replaced. The oracle
// materializes every id's count-min estimate with query_range, builds the
// distribution with from_counts, and applies the sample rule to the
// expanded sample of non-zero estimates; the materialization exists only
// in this test, and from_counts and the sample rule only in
// tests/oracle/sample_detector.hpp.
// Histograms must be equal, and the Mean, Median and Mean+Median
// thresholds bit-identical. Mean+Stddev must be within 4 ulp of the
// exactly computed value; the oracle's own sequential double sum of
// squared deviations drifts by a few hundred ulp over 10^6 ids, so
// against it the bound is relative.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "../oracle/sample_detector.hpp"
#include "server/backend.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace eyw::server {
namespace {

constexpr core::ThresholdRule kRules[] = {
    core::ThresholdRule::kMean, core::ThresholdRule::kMedian,
    core::ThresholdRule::kMeanPlusMedian, core::ThresholdRule::kMeanPlusStddev};

/// An aggregate over `ads` random ids of [0, id_space), 1-20 users each
/// (0 ads: the all-zero aggregate).
std::vector<std::uint32_t> aggregate_cells(sketch::CmsParams params,
                                           std::uint64_t id_space,
                                           std::size_t ads,
                                           std::uint64_t seed) {
  sketch::CountMinSketch sketch(params, /*hash_seed=*/77);
  util::Rng rng(seed);
  for (std::size_t a = 0; a < ads; ++a)
    sketch.update(rng.below(id_space),
                  static_cast<std::uint32_t>(1 + rng.below(20)));
  const auto cells = sketch.cells();
  return {cells.begin(), cells.end()};
}

/// The non-zero estimates of every id, in id order.
std::vector<double> materialized_sample(const sketch::CountMinSketch& aggregate,
                                        std::uint64_t id_space) {
  std::vector<std::uint32_t> raw(id_space);
  aggregate.query_range(0, id_space, raw);
  std::vector<double> sample;
  for (const std::uint32_t v : raw)
    if (v != 0) sample.push_back(v);
  return sample;
}

/// Mean + sample stddev of `sample`, from exact integer moments.
double exact_mean_plus_stddev(const std::vector<double>& sample) {
  const auto n = static_cast<std::uint64_t>(sample.size());
  if (n == 0) return 0.0;
  unsigned __int128 s1 = 0;
  unsigned __int128 s2 = 0;
  for (const double x : sample) {
    const auto v = static_cast<std::uint64_t>(x);
    s1 += v;
    s2 += static_cast<unsigned __int128>(v) * v;
  }
  const double mean = static_cast<double>(s1) / static_cast<double>(n);
  if (n < 2) return mean;
  const long double var = static_cast<long double>(n * s2 - s1 * s1) /
                          (static_cast<long double>(n) * (n - 1));
  return mean + static_cast<double>(std::sqrt(var));
}

std::uint64_t ulp_distance(double a, double b) {
  const auto ia = std::bit_cast<std::int64_t>(a);
  const auto ib = std::bit_cast<std::int64_t>(b);
  return ia > ib ? static_cast<std::uint64_t>(ia - ib)
                 : static_cast<std::uint64_t>(ib - ia);
}

TEST(FinalizeHistogram, FusedScanMatchesMaterializedOracle) {
  util::ThreadPool pool(3);
  const sketch::CmsParams geometries[] = {
      {.depth = 1, .width = 1},
      {.depth = 4, .width = 256},
      {.depth = 8, .width = 1024}};
  const std::uint64_t id_spaces[] = {1, 4095, 4096, 4097, 1'000'000};
  for (const sketch::CmsParams& params : geometries) {
    for (const std::uint64_t id_space : id_spaces) {
      for (const std::size_t ads :
           {std::size_t{0}, std::size_t{64}, std::size_t{20'000}}) {
        SCOPED_TRACE(testing::Message()
                     << params.depth << "x" << params.width
                     << " id_space=" << id_space << " ads=" << ads);
        const auto cells = aggregate_cells(params, id_space, ads, id_space);
        const auto aggregate =
            sketch::CountMinSketch::from_cells(params, 77, cells);
        const std::vector<double> sample =
            materialized_sample(aggregate, id_space);
        const core::UsersDistribution want = oracle::from_counts(sample);

        for (const core::ThresholdRule rule : kRules) {
          SCOPED_TRACE(core::to_string(rule));
          const BackendConfig config{.cms_params = params,
                                     .cms_hash_seed = 77,
                                     .id_space = id_space,
                                     .users_rule = rule};
          const RoundResult got =
              finalize_from_cells(config, cells, 1, 1, pool);
          ASSERT_EQ(got.distribution, want);
          ASSERT_LE(got.distribution.histogram().size(), params.cells());
          const double sampled = oracle::sample_threshold(sample, rule);
          if (rule == core::ThresholdRule::kMeanPlusStddev) {
            EXPECT_LE(ulp_distance(got.users_threshold,
                                   exact_mean_plus_stddev(sample)),
                      4u);
            EXPECT_NEAR(got.users_threshold, sampled, 1e-12 * sampled);
          } else {
            EXPECT_EQ(got.users_threshold, sampled);
          }
        }
      }
    }
  }
}

TEST(FinalizeHistogram, SameResultForAnyThreadCount) {
  const sketch::CmsParams params{.depth = 4, .width = 256};
  const BackendConfig config{.cms_params = params,
                             .cms_hash_seed = 77,
                             .id_space = 100'000,
                             .users_rule = core::ThresholdRule::kMean};
  const auto cells = aggregate_cells(params, config.id_space, 5'000, 3);
  util::ThreadPool one(1);
  util::ThreadPool four(4);
  const RoundResult a = finalize_from_cells(config, cells, 1, 1, one);
  const RoundResult b = finalize_from_cells(config, cells, 1, 1, four);
  EXPECT_EQ(a.distribution, b.distribution);
  EXPECT_EQ(a.users_threshold, b.users_threshold);
}

}  // namespace
}  // namespace eyw::server
