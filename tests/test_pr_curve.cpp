#include <gtest/gtest.h>

#include <stdexcept>

#include "eval/metrics.hpp"
#include "numerics/rng.hpp"

namespace pfm::eval {
namespace {

TEST(PrCurve, PerfectClassifier) {
  const std::vector<double> scores{0.9, 0.8, 0.2, 0.1};
  const std::vector<int> labels{1, 1, 0, 0};
  const auto curve = pr_curve(scores, labels);
  // Every point up to full recall has precision 1.
  for (const auto& p : curve) {
    if (p.recall <= 1.0 && p.threshold >= 0.8) {
      EXPECT_DOUBLE_EQ(p.precision, 1.0);
    }
  }
  EXPECT_DOUBLE_EQ(average_precision(scores, labels), 1.0);
}

TEST(PrCurve, RecallIsMonotone) {
  num::Rng rng(4);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 500; ++i) {
    const int y = rng.bernoulli(0.3) ? 1 : 0;
    scores.push_back(rng.normal(y * 1.0, 1.0));
    labels.push_back(y);
  }
  labels[0] = 1;
  labels[1] = 0;
  const auto curve = pr_curve(scores, labels);
  double prev = 0.0;
  for (const auto& p : curve) {
    EXPECT_GE(p.recall, prev);
    EXPECT_GE(p.precision, 0.0);
    EXPECT_LE(p.precision, 1.0);
    prev = p.recall;
  }
  EXPECT_DOUBLE_EQ(curve.back().recall, 1.0);
  // At full recall, precision equals the base rate.
  double base = 0.0;
  for (int y : labels) base += y;
  base /= static_cast<double>(labels.size());
  EXPECT_NEAR(curve.back().precision, base, 1e-12);
}

TEST(PrCurve, AveragePrecisionBeatsBaseRateForInformativeScores) {
  num::Rng rng(6);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 2000; ++i) {
    const int y = rng.bernoulli(0.2) ? 1 : 0;
    scores.push_back(rng.normal(y * 1.5, 1.0));
    labels.push_back(y);
  }
  EXPECT_GT(average_precision(scores, labels), 0.35);  // base rate 0.2
}

TEST(PrCurve, Validation) {
  EXPECT_THROW(pr_curve(std::vector<double>{}, std::vector<int>{}),
               std::invalid_argument);
  EXPECT_THROW(pr_curve(std::vector<double>{0.1}, std::vector<int>{1, 0}),
               std::invalid_argument);
  EXPECT_THROW(
      pr_curve(std::vector<double>{0.1, 0.2}, std::vector<int>{1, 1}),
      std::invalid_argument);
}

}  // namespace
}  // namespace pfm::eval
