#pragma once

#include <cstdint>
#include <vector>

#include "numerics/distributions.hpp"
#include "prediction/predictor.hpp"

namespace pfm::pred {

/// Simplest symptom baseline: warn on the level of the single most
/// label-correlated monitoring variable. Training picks the variable and
/// its direction (is high or low failure-prone?) by point-biserial
/// correlation on labeled windows; the score is the standardized signed
/// level squashed to (0,1).
class ThresholdPredictor final : public SymptomPredictor {
 public:
  explicit ThresholdPredictor(WindowGeometry windows);

  std::string name() const override { return "Threshold"; }
  void train(const mon::MonitoringDataset& data) override;
  double score(const SymptomContext& context) const override;

  /// Index of the chosen variable (valid after training).
  std::size_t variable() const noexcept { return variable_; }

 private:
  WindowGeometry windows_;
  std::size_t variable_ = 0;
  double direction_ = 1.0;  // +1: high is bad, -1: low is bad
  double mean_ = 0.0;
  double stddev_ = 1.0;
  bool trained_ = false;
};

/// Trend-analysis baseline in the spirit of Garg et al. [28]: regress the
/// most indicative resource variable over the trailing context window and
/// combine the standardized level with the standardized slope (both
/// oriented toward failure). Captures slow resource exhaustion such as
/// memory leaks.
class TrendPredictor final : public SymptomPredictor {
 public:
  explicit TrendPredictor(WindowGeometry windows);

  std::string name() const override { return "Trend"; }
  void train(const mon::MonitoringDataset& data) override;
  double score(const SymptomContext& context) const override;
  using SymptomPredictor::score_batch;
  /// Regression buffers live in the caller's scratch so repeated rounds
  /// allocate nothing.
  void score_batch(std::span<const SymptomContext> contexts,
                   std::span<double> out,
                   BatchScratch& scratch) const override;

  std::size_t variable() const noexcept { return variable_; }

 private:
  WindowGeometry windows_;
  std::size_t variable_ = 0;
  double direction_ = 1.0;
  double mean_ = 0.0;
  double stddev_ = 1.0;
  double slope_scale_ = 1.0;
  bool trained_ = false;
};

/// Failure prediction from the failure log alone (the "failure tracking"
/// branch of Fig. 3, cf. [20,61]): fit a lifetime distribution to the
/// failure inter-arrival times and score the conditional probability of a
/// failure within the prediction period given survival so far. Blind to
/// symptoms and error logs — the paper's motivation for runtime
/// monitoring is precisely that this carries little signal for short-term
/// prediction.
class FailureTrackingPredictor final : public SymptomPredictor {
 public:
  explicit FailureTrackingPredictor(WindowGeometry windows);

  std::string name() const override { return "FailureTracking"; }
  void train(const mon::MonitoringDataset& data) override;
  double score(const SymptomContext& context) const override;

  bool uses_weibull() const noexcept { return use_weibull_; }

 private:
  WindowGeometry windows_;
  num::Weibull weibull_{};
  num::Exponential exponential_{};
  bool use_weibull_ = false;
  bool trained_ = false;
};

/// Dispersion Frame Technique-inspired event baseline (Lin/Siewiorek
/// [51,52]): heuristic rules over error inter-arrival times within the
/// data window — bursts, acceleration, repeated identical errors and a
/// rate threshold calibrated on non-failure windows. The score is the
/// weighted fraction of fired rules.
class DftPredictor final : public EventPredictor {
 public:
  DftPredictor();

  std::string name() const override { return "DFT"; }
  void train(std::span<const mon::ErrorSequence> failure_sequences,
             std::span<const mon::ErrorSequence> nonfailure_sequences) override;
  double score(const mon::ErrorSequence& sequence) const override;

 private:
  double rate_threshold_ = 1.0;  // events per window, 95th pct of non-failure
  bool trained_ = false;
};

/// Eventset-mining baseline (Vilalta et al. [73]): mine event-id sets that
/// are frequent in failure windows and infrequent otherwise; score a
/// window by the best confidence among the mined sets it contains.
class EventsetPredictor final : public EventPredictor {
 public:
  struct Config {
    double min_support = 0.1;     ///< of failure sequences
    double min_confidence = 0.3;  ///< precision of the set on training data
    std::size_t max_set_size = 2;
  };

  explicit EventsetPredictor(Config config);
  EventsetPredictor() : EventsetPredictor(Config{}) {}

  std::string name() const override { return "Eventset"; }
  void train(std::span<const mon::ErrorSequence> failure_sequences,
             std::span<const mon::ErrorSequence> nonfailure_sequences) override;
  double score(const mon::ErrorSequence& sequence) const override;
  using EventPredictor::score_batch;
  /// The event-id membership structure becomes a sorted vector in the
  /// caller's scratch (node-free, reused across rounds); set-containment
  /// answers — and therefore scores — are identical to score()'s.
  void score_batch(std::span<const mon::ErrorSequence> sequences,
                   std::span<double> out,
                   BatchScratch& scratch) const override;

  std::size_t num_mined_sets() const noexcept { return sets_.size(); }

 private:
  struct MinedSet {
    std::vector<std::int32_t> ids;  // sorted
    double confidence = 0.0;
  };

  Config config_;
  std::vector<MinedSet> sets_;
  double base_rate_ = 0.05;
  bool trained_ = false;
};

}  // namespace pfm::pred
