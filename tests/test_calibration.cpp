#include "prediction/calibration.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "prediction/baselines.hpp"
#include "prediction/frozen.hpp"
#include "prediction/hsmm.hpp"
#include "prediction/ubf.hpp"
#include "telecom/simulator.hpp"

namespace pfm::pred {
namespace {

TEST(CalibrateScore, ThresholdMapsToHalf) {
  for (double thr : {0.1, 0.35, 0.5, 0.8, 0.95}) {
    EXPECT_NEAR(calibrate_score(thr, thr), 0.5, 1e-12) << "thr=" << thr;
  }
}

TEST(CalibrateScore, EndpointsPreserved) {
  EXPECT_DOUBLE_EQ(calibrate_score(0.0, 0.3), 0.0);
  EXPECT_DOUBLE_EQ(calibrate_score(1.0, 0.3), 1.0);
}

TEST(CalibrateScore, MonotoneInScore) {
  const double thr = 0.42;
  double prev = -1.0;
  for (double s = 0.0; s <= 1.0; s += 0.01) {
    const double c = calibrate_score(s, thr);
    EXPECT_GE(c, prev);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
}

TEST(CalibrateScore, DegenerateThresholdsClamped) {
  // Thresholds at the extremes must not divide by zero.
  EXPECT_GE(calibrate_score(0.5, 0.0), 0.0);
  EXPECT_LE(calibrate_score(0.5, 1.0), 1.0);
  EXPECT_GE(calibrate_score(2.0, 0.5), 0.0);   // out-of-range score clamped
  EXPECT_LE(calibrate_score(-1.0, 0.5), 1.0);
}

class FixedSymptom final : public SymptomPredictor {
 public:
  explicit FixedSymptom(double v) : v_(v) {}
  std::string name() const override { return "fixed"; }
  void train(const mon::MonitoringDataset&) override {}
  double score(const SymptomContext&) const override { return v_; }

 private:
  double v_;
};

class FixedEvent final : public EventPredictor {
 public:
  explicit FixedEvent(double v) : v_(v) {}
  std::string name() const override { return "fixed-event"; }
  void train(std::span<const mon::ErrorSequence>,
             std::span<const mon::ErrorSequence>) override {}
  double score(const mon::ErrorSequence&) const override { return v_; }

 private:
  double v_;
};

TEST(CalibratedSymptomPredictor, WrapsAndRenames) {
  auto inner = std::make_shared<FixedSymptom>(0.7);
  CalibratedSymptomPredictor cal(inner, 0.7);
  EXPECT_EQ(cal.name(), "fixed+cal");
  std::vector<mon::SymptomSample> h{{0.0, {}}};
  SymptomContext ctx;
  ctx.history = h;
  EXPECT_NEAR(cal.score(ctx), 0.5, 1e-12);

  // Below/above its threshold lands on the right side of 0.5.
  CalibratedSymptomPredictor strict(std::make_shared<FixedSymptom>(0.6), 0.8);
  EXPECT_LT(strict.score(ctx), 0.5);
  CalibratedSymptomPredictor loose(std::make_shared<FixedSymptom>(0.6), 0.4);
  EXPECT_GT(loose.score(ctx), 0.5);
}

TEST(CalibratedEventPredictor, WrapsScore) {
  CalibratedEventPredictor cal(std::make_shared<FixedEvent>(0.9), 0.6);
  mon::ErrorSequence seq;
  EXPECT_GT(cal.score(seq), 0.5);
  EXPECT_LE(cal.score(seq), 1.0);
  EXPECT_EQ(cal.name(), "fixed-event+cal");
}

// --- arena batch forwarding ---------------------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A threshold inside the score range, so calibration maps scores on
/// both sides of it.
double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// The calibrated wrappers score a batch through the wrapped predictor's
/// arena path, then calibrate each score. That must equal per-context
/// calibrated score() bit for bit — for the live UBF
/// (SoA sweep), its frozen artifact, the trend baseline (regression
/// scratch) and the HSMM (the base class's score() loop).
TEST(CalibratedPredictors, ArenaBatchMatchesCalibratedScoreBitForBit) {
  const WindowGeometry g{600.0, 300.0, 300.0};
  telecom::SimConfig sim_cfg;
  sim_cfg.seed = 5;
  sim_cfg.duration = 3.0 * 86400.0;
  telecom::ScpSimulator sim(sim_cfg);
  sim.run();
  const auto trace = sim.take_trace();

  UbfConfig ubf_cfg;
  ubf_cfg.windows = g;
  ubf_cfg.num_kernels = 4;
  ubf_cfg.selection = VariableSelection::kForward;
  ubf_cfg.shape_evaluations = 80;
  ubf_cfg.max_train_windows = 900;
  auto ubf = std::make_shared<UbfPredictor>(ubf_cfg);
  ubf->train(trace);
  const std::string path = ::testing::TempDir() + "/calibrated_ubf.pfmfrozen";
  ASSERT_EQ(freeze(ubf->export_model(), path), FrozenError::kOk);
  auto loaded = FrozenPredictor::load(path);
  ASSERT_EQ(loaded.error, FrozenError::kOk) << to_string(loaded.error);
  std::shared_ptr<const SymptomPredictor> frozen = std::move(loaded.predictor);
  auto trend = std::make_shared<TrendPredictor>(g);
  trend->train(trace);
  const auto failing = trace.failure_sequences(g.data_window, g.lead_time);
  const auto quiet = trace.nonfailure_sequences(g.data_window, g.lead_time,
                                                g.prediction_window, 300.0);
  HsmmPredictorConfig hsmm_cfg;
  hsmm_cfg.windows = g;
  hsmm_cfg.num_states = 4;
  hsmm_cfg.em_iterations = 10;
  auto hsmm = std::make_shared<HsmmPredictor>(hsmm_cfg);
  hsmm->train(failing, quiet);

  const auto samples = trace.samples();
  std::vector<SymptomContext> contexts;
  for (std::size_t start = 0; start + 20 <= samples.size(); start += 97) {
    SymptomContext ctx;
    ctx.history = samples.subspan(start, 20);
    ctx.past_failures = trace.failures();
    contexts.push_back(ctx);
  }
  ASSERT_GE(contexts.size(), 32u);

  const std::pair<const char*, std::shared_ptr<const SymptomPredictor>>
      symptom[] = {{"ubf", ubf}, {"frozen", frozen}, {"trend", trend}};
  for (const auto& [label, inner] : symptom) {
    SCOPED_TRACE(label);
    std::vector<double> raw(contexts.size());
    for (std::size_t i = 0; i < contexts.size(); ++i) {
      raw[i] = inner->score(contexts[i]);
    }
    const CalibratedSymptomPredictor cal(inner, median(raw));
    BatchScratch scratch;
    std::vector<double> batch(contexts.size());
    cal.score_batch(contexts, batch, scratch);
    EXPECT_GT(scratch.capacity_bytes(), 0u)
        << "the wrapped predictor's arena path was bypassed";
    for (std::size_t i = 0; i < contexts.size(); ++i) {
      EXPECT_EQ(bits(batch[i]), bits(cal.score(contexts[i]))) << "context " << i;
    }
  }

  std::vector<mon::ErrorSequence> sequences = failing;
  sequences.insert(sequences.end(), quiet.begin(), quiet.end());
  ASSERT_FALSE(sequences.empty());
  std::vector<double> raw(sequences.size());
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    raw[i] = hsmm->score(sequences[i]);
  }
  const CalibratedEventPredictor cal(hsmm, median(raw));
  BatchScratch scratch;
  std::vector<double> batch(sequences.size());
  cal.score_batch(sequences, batch, scratch);
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    EXPECT_EQ(bits(batch[i]), bits(cal.score(sequences[i])))
        << "sequence " << i;
  }
}

}  // namespace
}  // namespace pfm::pred
