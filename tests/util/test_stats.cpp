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

TEST(Stats, MedianOddSize) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{5, 1, 3}), 3.0);
}

TEST(Stats, MedianEvenSizeAveragesMiddle) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4, 1, 3, 2}), 2.5);
}

TEST(Stats, MedianDoesNotMutateInput) {
  const std::vector<double> v{9, 1, 5};
  const auto copy = v;
  (void)median(v);
  EXPECT_EQ(v, copy);
}

TEST(Stats, MedianEmptyIsZero) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{}), 0.0);
}

TEST(Stats, SampleStddev) {
  const double expected = std::sqrt(32.0 / 7.0);
  EXPECT_NEAR(stddev(kSample), expected, 1e-12);
}

TEST(Stats, StddevDegenerate) {
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{5.0}), 0.0);
}

TEST(Stats, StddevConstantIsZero) {
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{3, 3, 3, 3}), 0.0);
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
