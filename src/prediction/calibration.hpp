#pragma once

#include <algorithm>
#include <memory>
#include <utility>

#include "prediction/predictor.hpp"

namespace pfm::pred {

/// Piecewise-linear score calibration: maps a predictor's own decision
/// threshold to 0.5, so heterogeneous predictors can share one warning
/// threshold in the MEA controller (scores below the predictor's threshold
/// land in [0, 0.5), scores above in [0.5, 1]).
inline double calibrate_score(double score, double threshold) {
  const double t = std::clamp(threshold, 1e-9, 1.0 - 1e-9);
  const double s = std::clamp(score, 0.0, 1.0);
  if (s < t) return 0.5 * s / t;
  return 0.5 + 0.5 * (s - t) / (1.0 - t);
}

/// Wraps a trained symptom predictor with a fixed decision threshold
/// (typically the max-F-measure threshold found on validation data).
class CalibratedSymptomPredictor final : public SymptomPredictor {
 public:
  CalibratedSymptomPredictor(std::shared_ptr<const SymptomPredictor> inner,
                             double threshold)
      : inner_(std::move(inner)), threshold_(threshold) {}

  std::string name() const override { return inner_->name() + "+cal"; }
  void train(const mon::MonitoringDataset&) override {
    // The wrapped predictor is already trained; calibration is frozen.
  }
  double score(const SymptomContext& ctx) const override {
    return calibrate_score(inner_->score(ctx), threshold_);
  }
  using SymptomPredictor::score_batch;
  /// Scores the batch through the wrapped predictor's arena path, then
  /// calibrates each score (bit-identical to score()).
  void score_batch(std::span<const SymptomContext> contexts,
                   std::span<double> out,
                   BatchScratch& scratch) const override {
    inner_->score_batch(contexts, out, scratch);
    for (double& s : out) s = calibrate_score(s, threshold_);
  }

 private:
  std::shared_ptr<const SymptomPredictor> inner_;
  double threshold_;
};

/// Event-predictor counterpart of CalibratedSymptomPredictor.
class CalibratedEventPredictor final : public EventPredictor {
 public:
  CalibratedEventPredictor(std::shared_ptr<const EventPredictor> inner,
                           double threshold)
      : inner_(std::move(inner)), threshold_(threshold) {}

  std::string name() const override { return inner_->name() + "+cal"; }
  void train(std::span<const mon::ErrorSequence>,
             std::span<const mon::ErrorSequence>) override {}
  double score(const mon::ErrorSequence& seq) const override {
    return calibrate_score(inner_->score(seq), threshold_);
  }
  using EventPredictor::score_batch;
  void score_batch(std::span<const mon::ErrorSequence> sequences,
                   std::span<double> out,
                   BatchScratch& scratch) const override {
    inner_->score_batch(sequences, out, scratch);
    for (double& s : out) s = calibrate_score(s, threshold_);
  }

 private:
  std::shared_ptr<const EventPredictor> inner_;
  double threshold_;
};

}  // namespace pfm::pred
