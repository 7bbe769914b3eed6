#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace pfm::eval {

/// 2x2 contingency table of prediction outcomes (Sect. 3.3 / Table 1).
struct ContingencyTable {
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  std::size_t true_negatives = 0;
  std::size_t false_negatives = 0;

  std::size_t total() const noexcept {
    return true_positives + false_positives + true_negatives +
           false_negatives;
  }

  /// Fraction of correct failure warnings among all warnings; 1 when no
  /// warning was raised (vacuously correct).
  double precision() const noexcept;

  /// Fraction of failures that were predicted (true positive rate);
  /// 1 when there was no failure.
  double recall() const noexcept;

  /// Fraction of false alarms among all non-failures; 0 when there was no
  /// non-failure.
  double false_positive_rate() const noexcept;

  /// Harmonic mean of precision and recall.
  double f_measure() const noexcept;

  /// Overall fraction of correct classifications.
  double accuracy() const noexcept;
};

/// Builds a contingency table from real-valued scores, a decision
/// threshold (warning when score >= threshold) and ground-truth labels.
/// Throws std::invalid_argument on length mismatch.
ContingencyTable score_contingency(std::span<const double> scores,
                                   std::span<const int> labels,
                                   double threshold);

/// One point of a Receiver Operating Characteristic.
struct RocPoint {
  double threshold = 0.0;
  double true_positive_rate = 0.0;   ///< recall
  double false_positive_rate = 0.0;
  double precision = 0.0;
};

/// ROC curve over all distinct score thresholds, ordered by increasing
/// false positive rate (threshold decreasing). Includes the trivial
/// (0,0) and (1,1) endpoints. Throws std::invalid_argument on mismatch,
/// empty input, a NaN score, or single-class labels (+-inf scores are
/// fine).
std::vector<RocPoint> roc_curve(std::span<const double> scores,
                                std::span<const int> labels);

/// Area under the ROC curve by trapezoidal integration.
double auc(std::span<const RocPoint> roc);

/// One point of a precision-recall curve.
struct PrPoint {
  double threshold = 0.0;
  double recall = 0.0;
  double precision = 0.0;
};

/// Precision-recall curve over all distinct thresholds, ordered by
/// increasing recall (threshold decreasing). Same input contract as
/// roc_curve. The paper's Sect. 3.3 notes the precision/recall trade-off
/// controlled by the warning threshold; this curve is that trade-off.
std::vector<PrPoint> pr_curve(std::span<const double> scores,
                              std::span<const int> labels);

/// Average precision: area under the precision-recall curve using the
/// step-wise (right-continuous) interpolation standard for AP.
double average_precision(std::span<const double> scores,
                         std::span<const int> labels);

/// Convenience: AUC straight from scores and labels.
double auc(std::span<const double> scores, std::span<const int> labels);

/// Threshold maximizing the F-measure, with the achieved table: the
/// lowest distinct score among those reaching the maximum. Accepts
/// single-class labels; otherwise the same input contract as roc_curve.
struct ThresholdChoice {
  double threshold = 0.0;
  ContingencyTable table;
};
ThresholdChoice max_f_measure_threshold(std::span<const double> scores,
                                        std::span<const int> labels);

/// Renders a metrics summary line ("precision=.. recall=.. fpr=.. F=..").
std::string summary(const ContingencyTable& table);

}  // namespace pfm::eval
