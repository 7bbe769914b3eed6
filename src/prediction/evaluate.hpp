#pragma once

#include <string>
#include <vector>

#include "eval/metrics.hpp"
#include "prediction/predictor.hpp"

namespace pfm::pred {

/// Options of the offline evaluation harness.
struct EvalOptions {
  WindowGeometry windows;
  /// Evaluation-grid step for event predictors, seconds.
  double stride = 60.0;
  /// Trailing samples handed to symptom predictors as context.
  std::size_t context_samples = 20;
  /// When true (default), an instant also counts as failure-prone when the
  /// failure strikes *earlier* than the lead time — the warning is late
  /// but correct, and countermeasures with shorter setup still help. When
  /// false, only failures inside [t + lead, t + lead + prediction_window)
  /// count (the strict Fig. 6 training semantics).
  bool count_early_failures = true;
};

/// One scored evaluation instant.
struct ScoredInstant {
  double time = 0.0;
  double score = 0.0;
  int label = 0;  ///< 1 when a failure follows within the prediction window
};

/// Aggregate accuracy report in the paper's Sect. 3.3 format: AUC plus
/// precision/recall/F/fpr at the maximum-F-measure threshold.
struct PredictorReport {
  std::string name;
  double auc = 0.0;
  double threshold = 0.0;
  eval::ContingencyTable table;
  std::size_t num_instants = 0;
  std::size_t num_positive = 0;

  double precision() const noexcept { return table.precision(); }
  double recall() const noexcept { return table.recall(); }
  double false_positive_rate() const noexcept {
    return table.false_positive_rate();
  }
  double f_measure() const noexcept { return table.f_measure(); }
};

/// Scores a trained symptom predictor on every labelable sample of the
/// test trace, replaying the online situation: at each sample the
/// predictor sees only the trailing context and past failures.
std::vector<ScoredInstant> score_on_grid(const SymptomPredictor& predictor,
                                         const mon::MonitoringDataset& test,
                                         const EvalOptions& options);

/// Scores a trained event predictor on a uniform time grid over the test
/// trace: at each grid instant the predictor sees the error events inside
/// the trailing data window (Fig. 4).
std::vector<ScoredInstant> score_on_grid(const EventPredictor& predictor,
                                         const mon::MonitoringDataset& test,
                                         const EvalOptions& options);

/// Computes AUC and the maximum-F-measure operating point from scored
/// instants. Throws std::invalid_argument when the instants are empty or
/// single-class, or when a score is NaN.
PredictorReport make_report(std::string name,
                            const std::vector<ScoredInstant>& instants);

/// Renders a one-line summary ("name: AUC=.. precision=.. ...").
std::string to_string(const PredictorReport& report);

}  // namespace pfm::pred
