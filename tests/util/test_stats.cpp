#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace eyw::util {
namespace {

const std::vector<double> kSample{2, 4, 4, 4, 5, 5, 7, 9};

TEST(Stats, MeanBasic) { EXPECT_DOUBLE_EQ(mean(kSample), 5.0); }

TEST(Stats, MeanEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, MeanSingle) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{3.5}), 3.5);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Stats, PearsonPerfectAnticorrelation) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantInputIsZero) {
  const std::vector<double> x{1, 1, 1};
  const std::vector<double> y{1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Stats, PearsonSizeMismatchThrows) {
  EXPECT_THROW(
      (void)pearson(std::vector<double>{1, 2}, std::vector<double>{1, 2, 3}),
      std::invalid_argument);
}

}  // namespace
}  // namespace eyw::util
