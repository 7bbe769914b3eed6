// Parameterized property-style sweeps over the analytic core: invariants
// that must hold across the whole parameter space, not just at the Table 2
// operating point.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "ctmc/pfm_model.hpp"
#include "eval/metrics.hpp"
#include "numerics/rng.hpp"

namespace pfm {
namespace {

// --- Fig. 9 model invariants over a (recall, precision, k) grid -------------

using QualityGrid = std::tuple<double, double, double>;  // recall, prec, k

class PfmModelProperty : public ::testing::TestWithParam<QualityGrid> {
 protected:
  ctmc::PfmModelParams params() const {
    auto [recall, precision, k] = GetParam();
    ctmc::PfmModelParams p = ctmc::PfmModelParams::table2_example();
    p.quality.recall = recall;
    p.quality.precision = precision;
    p.repair_improvement = k;
    return p;
  }
};

TEST_P(PfmModelProperty, ClosedFormMatchesNumericSteadyState) {
  const ctmc::PfmAvailabilityModel m(params());
  EXPECT_NEAR(m.availability_closed_form(), m.availability_numeric(), 1e-10);
}

TEST_P(PfmModelProperty, AvailabilityIsAProbability) {
  const ctmc::PfmAvailabilityModel m(params());
  const double a = m.availability_closed_form();
  EXPECT_GE(a, 0.0);
  EXPECT_LE(a, 1.0);
}

TEST_P(PfmModelProperty, SteadyStateIsADistribution) {
  const auto pi = ctmc::PfmAvailabilityModel(params()).chain().steady_state();
  double total = 0.0;
  for (double p : pi) {
    EXPECT_GE(p, -1e-12);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(PfmModelProperty, ReliabilityDecreasesAndHazardNonNegative) {
  const ctmc::PfmAvailabilityModel m(params());
  const auto ph = m.reliability_model();
  double prev = 1.0;
  for (double t = 0.0; t <= 30000.0; t += 3000.0) {
    const double r = ph.reliability(t);
    EXPECT_LE(r, prev + 1e-12);
    EXPECT_GE(r, -1e-12);
    EXPECT_GE(ph.hazard(t), -1e-12);
    prev = r;
  }
}

TEST_P(PfmModelProperty, MoreRepairImprovementNeverHurts) {
  auto p = params();
  const double a1 =
      ctmc::PfmAvailabilityModel(p).availability_closed_form();
  p.repair_improvement *= 2.0;
  const double a2 =
      ctmc::PfmAvailabilityModel(p).availability_closed_form();
  EXPECT_GE(a2, a1 - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    QualitySweep, PfmModelProperty,
    ::testing::Combine(::testing::Values(0.1, 0.5, 0.62, 0.9),
                       ::testing::Values(0.2, 0.7, 0.95),
                       ::testing::Values(0.5, 2.0, 6.0)));

// --- ROC invariants across random score/label configurations -----------------

class RocProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RocProperty, CurveMonotoneAndAucBounded) {
  num::Rng rng(GetParam());
  std::vector<double> scores;
  std::vector<int> labels;
  const double signal = rng.uniform(0.0, 2.0);
  const double base_rate = rng.uniform(0.05, 0.5);
  for (int i = 0; i < 400; ++i) {
    const int y = rng.bernoulli(base_rate) ? 1 : 0;
    scores.push_back(rng.normal(y * signal, 1.0));
    labels.push_back(y);
  }
  // Degenerate single-class draws are regenerated deterministically.
  bool has0 = false, has1 = false;
  for (int y : labels) (y ? has1 : has0) = true;
  if (!has0 || !has1) {
    labels[0] = has1 ? 0 : 1;
  }
  const auto roc = eval::roc_curve(scores, labels);
  for (std::size_t i = 1; i < roc.size(); ++i) {
    EXPECT_GE(roc[i].false_positive_rate, roc[i - 1].false_positive_rate);
    EXPECT_GE(roc[i].true_positive_rate, roc[i - 1].true_positive_rate);
  }
  const double a = eval::auc(roc);
  EXPECT_GE(a, 0.0);
  EXPECT_LE(a, 1.0);
  // With positive signal, AUC must not be drastically below chance.
  if (signal > 0.5) {
    EXPECT_GT(a, 0.45);
  }
}

TEST_P(RocProperty, ThresholdingIsConsistentWithCurve) {
  num::Rng rng(GetParam() + 1000);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 300; ++i) {
    const int y = rng.bernoulli(0.3) ? 1 : 0;
    scores.push_back(rng.normal(y * 1.0, 1.0));
    labels.push_back(y);
  }
  labels[0] = 1;
  labels[1] = 0;
  const auto choice = eval::max_f_measure_threshold(scores, labels);
  // The chosen operating point's F is at least that of the median score
  // threshold (it is the maximum, after all).
  const auto median_table =
      eval::score_contingency(scores, labels, 0.0);
  EXPECT_GE(choice.table.f_measure(), median_table.f_measure() - 1e-12);
}

// The algorithm the shared threshold sweep replaced, kept as its oracle:
// score_contingency at every distinct score, taking the first maximum F
// over ascending candidates.
eval::ThresholdChoice brute_force_max_f(const std::vector<double>& scores,
                                        const std::vector<int>& labels) {
  std::vector<double> candidates(scores);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  eval::ThresholdChoice best;
  double best_f = -1.0;
  for (double thr : candidates) {
    const auto table = eval::score_contingency(scores, labels, thr);
    if (table.f_measure() > best_f) {
      best_f = table.f_measure();
      best = {thr, table};
    }
  }
  return best;
}

enum class ScoreDraw { kContinuous, kTieHeavy, kSingleClass };

TEST_P(RocProperty, SweepMatchesBruteForceOracle) {
  for (const auto kind : {ScoreDraw::kContinuous, ScoreDraw::kTieHeavy,
                          ScoreDraw::kSingleClass}) {
    num::Rng rng(GetParam() + 2000);
    const double signal = rng.uniform(0.0, 2.0);
    const double base_rate = rng.uniform(0.05, 0.5);
    std::vector<double> scores;
    std::vector<int> labels;
    for (int i = 0; i < 400; ++i) {
      // Single-class: all negative on even seeds, all positive on odd.
      const int y = kind == ScoreDraw::kSingleClass
                        ? static_cast<int>(GetParam() % 2)
                        : (rng.bernoulli(base_rate) ? 1 : 0);
      const double x = rng.normal(y * signal, 1.0);
      // Tie-heavy: at most 30 levels in [0, 1]. Non-negative, so no
      // -0.0/+0.0 pair: which of two equal zeros names the tie group is
      // up to each algorithm's sort, and threshold bits would differ.
      scores.push_back(kind == ScoreDraw::kTieHeavy
                           ? std::clamp(std::floor((x + 3.0) * 5.0), 0.0,
                                        29.0) / 29.0
                           : x);
      labels.push_back(y);
    }
    if (kind != ScoreDraw::kSingleClass) {
      labels[0] = 1;
      labels[1] = 0;
    }
    SCOPED_TRACE(static_cast<int>(kind));

    const auto oracle = brute_force_max_f(scores, labels);
    const auto choice = eval::max_f_measure_threshold(scores, labels);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(choice.threshold),
              std::bit_cast<std::uint64_t>(oracle.threshold));
    EXPECT_EQ(choice.table.true_positives, oracle.table.true_positives);
    EXPECT_EQ(choice.table.false_positives, oracle.table.false_positives);
    EXPECT_EQ(choice.table.true_negatives, oracle.table.true_negatives);
    EXPECT_EQ(choice.table.false_negatives, oracle.table.false_negatives);
    if (kind == ScoreDraw::kSingleClass) continue;  // the curves refuse it

    for (const auto& p : eval::roc_curve(scores, labels)) {
      const auto t = eval::score_contingency(scores, labels, p.threshold);
      EXPECT_EQ(p.true_positive_rate, t.recall());
      EXPECT_EQ(p.false_positive_rate, t.false_positive_rate());
      EXPECT_EQ(p.precision, t.precision());
    }
    for (const auto& p : eval::pr_curve(scores, labels)) {
      const auto t = eval::score_contingency(scores, labels, p.threshold);
      EXPECT_EQ(p.recall, t.recall());
      EXPECT_EQ(p.precision, t.precision());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RocProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- Phase-type invariants over random sub-generators -------------------------

class PhaseTypeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PhaseTypeProperty, DistributionAxioms) {
  num::Rng rng(GetParam());
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 3));
  num::Matrix t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      t(i, j) = rng.uniform(0.0, 1.0);
      row += t(i, j);
    }
    const double exit = rng.uniform(0.05, 1.0);
    t(i, i) = -(row + exit);
  }
  std::vector<double> alpha(n, 0.0);
  alpha[0] = 1.0;
  const ctmc::PhaseType ph(std::move(t), std::move(alpha));

  double prev_cdf = 0.0;
  for (double time = 0.0; time <= 20.0; time += 1.0) {
    const double f = ph.cdf(time);
    EXPECT_GE(f, prev_cdf - 1e-10);
    EXPECT_GE(f, -1e-12);
    EXPECT_LE(f, 1.0 + 1e-12);
    EXPECT_GE(ph.pdf(time), -1e-12);
    prev_cdf = f;
  }
  EXPECT_GT(ph.mean(), 0.0);
  // Mean from the matrix identity equals the integral of the survival
  // function (coarse trapezoid check).
  double integral = 0.0;
  const double dt = 0.05;
  for (double time = 0.0; time < 400.0; time += dt) {
    integral += ph.reliability(time + 0.5 * dt) * dt;
  }
  EXPECT_NEAR(integral, ph.mean(), 0.05 * ph.mean() + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhaseTypeProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace pfm
