#include "eval/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "numerics/rng.hpp"

namespace pfm::eval {
namespace {

TEST(ContingencyTable, MetricsMatchDefinitions) {
  // Sect. 3.3's worked example: precision 0.8 means 80% of warnings are
  // true; recall 0.9 means 90% of failures are caught.
  ContingencyTable t;
  t.true_positives = 8;
  t.false_positives = 2;
  t.false_negatives = 1;  // 8 of 9 failures predicted -> recall 8/9
  t.true_negatives = 89;
  EXPECT_DOUBLE_EQ(t.precision(), 0.8);
  EXPECT_NEAR(t.recall(), 8.0 / 9.0, 1e-12);
  EXPECT_NEAR(t.false_positive_rate(), 2.0 / 91.0, 1e-12);
  EXPECT_EQ(t.total(), 100u);
  EXPECT_NEAR(t.accuracy(), 0.97, 1e-12);
  const double p = 0.8, r = 8.0 / 9.0;
  EXPECT_NEAR(t.f_measure(), 2 * p * r / (p + r), 1e-12);
}

TEST(ContingencyTable, DegenerateDenominators) {
  ContingencyTable t;  // all zero
  EXPECT_DOUBLE_EQ(t.precision(), 1.0);
  EXPECT_DOUBLE_EQ(t.recall(), 1.0);
  EXPECT_DOUBLE_EQ(t.false_positive_rate(), 0.0);
  EXPECT_DOUBLE_EQ(t.accuracy(), 0.0);
}

TEST(ScoreContingency, ThresholdSplitsCorrectly) {
  const std::vector<double> scores{0.9, 0.8, 0.3, 0.1};
  const std::vector<int> labels{1, 0, 1, 0};
  const auto t = score_contingency(scores, labels, 0.5);
  EXPECT_EQ(t.true_positives, 1u);
  EXPECT_EQ(t.false_positives, 1u);
  EXPECT_EQ(t.false_negatives, 1u);
  EXPECT_EQ(t.true_negatives, 1u);
  // Threshold is inclusive.
  const auto t2 = score_contingency(scores, labels, 0.9);
  EXPECT_EQ(t2.true_positives, 1u);
  EXPECT_EQ(t2.false_positives, 0u);
}

TEST(ScoreContingency, LengthMismatchThrows) {
  EXPECT_THROW(score_contingency(std::vector<double>{1.0},
                                 std::vector<int>{1, 0}, 0.5),
               std::invalid_argument);
}

TEST(Roc, PerfectClassifierHasUnitAuc) {
  const std::vector<double> scores{0.9, 0.8, 0.2, 0.1};
  const std::vector<int> labels{1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(auc(scores, labels), 1.0);
}

TEST(Roc, InvertedClassifierHasZeroAuc) {
  const std::vector<double> scores{0.1, 0.2, 0.8, 0.9};
  const std::vector<int> labels{1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(auc(scores, labels), 0.0);
}

TEST(Roc, RandomScoresGiveHalfAuc) {
  num::Rng rng(9);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 20000; ++i) {
    scores.push_back(rng.uniform());
    labels.push_back(rng.bernoulli(0.3) ? 1 : 0);
  }
  EXPECT_NEAR(auc(scores, labels), 0.5, 0.02);
}

TEST(Roc, CurveIsMonotone) {
  num::Rng rng(11);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 500; ++i) {
    const int y = rng.bernoulli(0.4) ? 1 : 0;
    scores.push_back(y ? rng.normal(1.0, 1.0) : rng.normal(0.0, 1.0));
    labels.push_back(y);
  }
  const auto roc = roc_curve(scores, labels);
  ASSERT_GE(roc.size(), 3u);
  EXPECT_DOUBLE_EQ(roc.front().false_positive_rate, 0.0);
  EXPECT_DOUBLE_EQ(roc.front().true_positive_rate, 0.0);
  EXPECT_DOUBLE_EQ(roc.back().false_positive_rate, 1.0);
  EXPECT_DOUBLE_EQ(roc.back().true_positive_rate, 1.0);
  for (std::size_t i = 1; i < roc.size(); ++i) {
    EXPECT_GE(roc[i].false_positive_rate, roc[i - 1].false_positive_rate);
    EXPECT_GE(roc[i].true_positive_rate, roc[i - 1].true_positive_rate);
  }
  // A separable-ish problem must beat chance.
  EXPECT_GT(auc(roc), 0.6);
}

TEST(Roc, TiedScoresHandledAsOneGroup) {
  const std::vector<double> scores{0.5, 0.5, 0.5, 0.5};
  const std::vector<int> labels{1, 0, 1, 0};
  const auto roc = roc_curve(scores, labels);
  // One tie group: (0,0) then (1,1); AUC is exactly 1/2.
  ASSERT_EQ(roc.size(), 2u);
  EXPECT_DOUBLE_EQ(auc(roc), 0.5);
}

TEST(Roc, SingleClassThrows) {
  const std::vector<double> scores{0.1, 0.9};
  EXPECT_THROW(roc_curve(scores, std::vector<int>{1, 1}),
               std::invalid_argument);
  EXPECT_THROW(roc_curve(scores, std::vector<int>{0, 0}),
               std::invalid_argument);
  EXPECT_THROW(roc_curve(std::vector<double>{}, std::vector<int>{}),
               std::invalid_argument);
}

TEST(MaxFMeasure, FindsSeparatingThreshold) {
  const std::vector<double> scores{0.95, 0.9, 0.85, 0.4, 0.3, 0.2};
  const std::vector<int> labels{1, 1, 1, 0, 0, 0};
  const auto choice = max_f_measure_threshold(scores, labels);
  EXPECT_GT(choice.threshold, 0.4);
  EXPECT_LE(choice.threshold, 0.85);
  EXPECT_DOUBLE_EQ(choice.table.f_measure(), 1.0);
}

TEST(MaxFMeasure, EmptyThrows) {
  EXPECT_THROW(
      max_f_measure_threshold(std::vector<double>{}, std::vector<int>{}),
      std::invalid_argument);
}

TEST(Sweep, NanScoreThrowsInfinitiesOrder) {
  const std::vector<int> labels{1, 1, 0, 0};
  // NaN breaks the descending sort's strict weak ordering.
  const std::vector<double> nan{0.9, std::nan(""), 0.3, 0.1};
  EXPECT_THROW(roc_curve(nan, labels), std::invalid_argument);
  EXPECT_THROW(pr_curve(nan, labels), std::invalid_argument);
  EXPECT_THROW(max_f_measure_threshold(nan, labels), std::invalid_argument);

  // +-inf still order and stay legal.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> scores{inf, 0.5, 0.3, -inf};
  EXPECT_DOUBLE_EQ(auc(scores, labels), 1.0);
  const auto choice = max_f_measure_threshold(scores, labels);
  EXPECT_DOUBLE_EQ(choice.threshold, 0.5);
  EXPECT_DOUBLE_EQ(choice.table.f_measure(), 1.0);
}

TEST(Summary, ContainsKeyFigures) {
  ContingencyTable t;
  t.true_positives = 3;
  t.false_negatives = 1;
  const auto s = summary(t);
  EXPECT_NE(s.find("precision="), std::string::npos);
  EXPECT_NE(s.find("recall="), std::string::npos);
  EXPECT_NE(s.find("tp=3"), std::string::npos);
}

}  // namespace
}  // namespace pfm::eval
