// Paper claims as executable gates: the two results that come out of the
// simulated SCP and the trained predictors rather than out of a closed-form
// model. Each case reruns the setup of its bench (E9 and E6) on several
// seeds and checks the shape the paper argues for, with bands wide enough
// to hold across the seed-to-seed spread:
//
// - Table 1 (E9): on every run seed, avoidance + minimization beats each
//   single strategy, each single strategy beats doing nothing, and the
//   full loop at least halves the unavailability of the reactive system.
// - Sect. 3.3 (E6): the pattern-aware predictors (HSMM, UBF) rank failures
//   better than every pattern-blind baseline, on every seed and by a clear
//   margin on the mean.
// - E10b: on the same seeds, the HSMM ranks failures better on the mean
//   than the same model with durations switched off (a plain HMM), so the
//   semi-Markov timing of the error events carries signal.
//
// Registered with the `repro` ctest label; `ctest -L repro` runs just these.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/mea.hpp"
#include "prediction/baselines.hpp"
#include "prediction/calibration.hpp"
#include "prediction/evaluate.hpp"
#include "prediction/hsmm.hpp"
#include "prediction/ubf.hpp"
#include "runtime/scp_system.hpp"

namespace pfm {
namespace {

constexpr double kDay = 86400.0;

/// Fig. 6 windows of the case study: data 600 s, lead 300 s, prediction 300 s.
pred::WindowGeometry case_study_windows() { return {600.0, 300.0, 300.0}; }

/// One 14-day simulated SCP trace, split 70/30 into training and test.
std::pair<mon::MonitoringDataset, mon::MonitoringDataset> case_study(
    std::uint64_t seed) {
  telecom::SimConfig cfg;
  cfg.seed = seed;
  cfg.duration = 14.0 * kDay;
  telecom::ScpSimulator sim(cfg);
  sim.run();
  return sim.take_trace().split_at(0.7 * cfg.duration);
}

// --- Table 1 -----------------------------------------------------------------

struct Calibrated {
  std::shared_ptr<pred::SymptomPredictor> symptom;
  std::shared_ptr<pred::EventPredictor> event;
};

/// UBF + HSMM trained on one trace, each calibrated to its max-F threshold
/// on the held-out tail, as E9 does.
Calibrated train_calibrated(std::uint64_t seed) {
  const auto [train, validation] = case_study(seed);
  const auto g = case_study_windows();
  pred::EvalOptions eo;
  eo.windows = g;

  pred::UbfConfig ucfg;
  ucfg.windows = g;
  auto ubf = std::make_shared<pred::UbfPredictor>(ucfg);
  ubf->train(train);
  const double ubf_thr =
      pred::make_report("UBF", pred::score_on_grid(*ubf, validation, eo))
          .threshold;

  pred::HsmmPredictorConfig hcfg;
  hcfg.windows = g;
  auto hsmm = std::make_shared<pred::HsmmPredictor>(hcfg);
  hsmm->train(train.failure_sequences(g.data_window, g.lead_time),
              train.nonfailure_sequences(g.data_window, g.lead_time,
                                         g.prediction_window, 300.0));
  const double hsmm_thr =
      pred::make_report("HSMM", pred::score_on_grid(*hsmm, validation, eo))
          .threshold;

  return {std::make_shared<pred::CalibratedSymptomPredictor>(ubf, ubf_thr),
          std::make_shared<pred::CalibratedEventPredictor>(hsmm, hsmm_thr)};
}

/// Availability of one 14-day managed run under one Table 1 strategy.
double run_strategy(const Calibrated& preds, bool avoidance,
                    bool minimization, std::uint64_t seed) {
  telecom::SimConfig cfg;
  cfg.seed = seed;
  cfg.duration = 14.0 * kDay;
  telecom::ScpSimulator sim(cfg);
  runtime::ScpManagedSystem system(sim);

  core::MeaConfig mc;
  mc.windows = case_study_windows();
  mc.evaluation_interval = 60.0;
  mc.warning_threshold = 0.5;  // calibrated predictors: 0.5 is their max-F
  mc.enable_avoidance = avoidance;
  mc.enable_minimization = minimization;
  core::MeaController mea(system, mc);
  if (avoidance || minimization) {
    mea.add_symptom_predictor(preds.symptom);
    mea.add_event_predictor(preds.event);
    mea.add_action(std::make_unique<act::StateCleanupAction>());
    mea.add_action(std::make_unique<act::PreventiveFailoverAction>());
    mea.add_action(std::make_unique<act::LoadLoweringAction>());
    mea.add_action(std::make_unique<act::PreparedRepairAction>(900.0));
  }
  mea.run();
  return sim.stats().availability();
}

TEST(Repro, Table1StrategyOrderingOnEveryRunSeed) {
  const auto preds = train_calibrated(5);
  for (const std::uint64_t seed : {31u, 37u, 41u}) {
    SCOPED_TRACE("run seed " + std::to_string(seed));
    const double none = run_strategy(preds, false, false, seed);
    const double minimization = run_strategy(preds, false, true, seed);
    const double avoidance = run_strategy(preds, true, false, seed);
    const double both = run_strategy(preds, true, true, seed);
    const double ratio = (1.0 - both) / (1.0 - none);
    std::printf("seed %2llu  none %.5f  min %.5f  avoid %.5f  both %.5f  "
                "ratio %.3f\n",
                static_cast<unsigned long long>(seed), none, minimization,
                avoidance, both, ratio);
    EXPECT_GT(both, minimization);
    EXPECT_GT(both, avoidance);
    EXPECT_GT(minimization, none);
    EXPECT_GT(avoidance, none);
    EXPECT_LT(ratio, 0.5);
  }
}

// --- Sect. 3.3 -----------------------------------------------------------------

/// Test-set AUC of the two pattern-aware predictors, the four pattern-blind
/// baselines and the duration-blind HMM on one seed, as E6 and E10b train
/// and score them.
std::map<std::string, double> case_study_aucs(std::uint64_t seed) {
  const auto [train, test] = case_study(seed);
  const auto g = case_study_windows();
  pred::EvalOptions eo;
  eo.windows = g;
  std::map<std::string, double> auc;
  auto score = [&](const std::string& name, const auto& predictor) {
    auc[name] = pred::make_report(name, pred::score_on_grid(predictor, test, eo))
                    .auc;
  };

  const auto fail_seqs = train.failure_sequences(g.data_window, g.lead_time);
  const auto ok_seqs = train.nonfailure_sequences(
      g.data_window, g.lead_time, g.prediction_window, 300.0);
  {
    pred::UbfConfig cfg;
    cfg.windows = g;
    pred::UbfPredictor p(cfg);
    p.train(train);
    score("UBF", p);
  }
  for (const bool durations : {true, false}) {
    pred::HsmmPredictorConfig cfg;
    cfg.windows = g;
    cfg.model_durations = durations;
    pred::HsmmPredictor p(cfg);
    p.train(fail_seqs, ok_seqs);
    score(durations ? "HSMM" : "HMM", p);
  }
  {
    pred::ThresholdPredictor p(g);
    p.train(train);
    score("Threshold", p);
  }
  {
    pred::TrendPredictor p(g);
    p.train(train);
    score("Trend", p);
  }
  {
    pred::FailureTrackingPredictor p(g);
    p.train(train);
    score("FailureTracking", p);
  }
  {
    pred::DftPredictor p;
    p.train(fail_seqs, ok_seqs);
    score("DFT", p);
  }
  return auc;
}

TEST(Repro, Sect33PatternAwarePredictorsBeatPatternBlindBaselines) {
  // The HMM is scored for the E10b check at the end; it joins neither list.
  const std::array<const char*, 2> aware{"HSMM", "UBF"};
  const std::array<const char*, 4> blind{"Threshold", "Trend", "DFT",
                                         "FailureTracking"};
  const std::array<std::uint64_t, 3> seeds{5, 11, 23};
  std::map<std::string, double> mean;
  for (const auto seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto auc = case_study_aucs(seed);
    std::printf("seed %2llu", static_cast<unsigned long long>(seed));
    for (const auto& [name, value] : auc) {
      std::printf("  %s %.3f", name.c_str(), value);
      mean[name] += value / static_cast<double>(seeds.size());
    }
    std::printf("\n");
    for (const char* a : aware) {
      for (const char* b : blind) {
        EXPECT_GT(auc.at(a), auc.at(b)) << a << " vs " << b;
      }
    }
  }
  for (const char* a : aware) {
    for (const char* b : blind) {
      EXPECT_GE(mean.at(a) - mean.at(b), 0.05)
          << a << " vs " << b << " on the mean of " << seeds.size()
          << " seeds";
    }
  }
  EXPECT_GT(mean.at("HSMM"), mean.at("HMM"))
      << "E10b: duration modelling must pay on the mean of " << seeds.size()
      << " seeds";
}

}  // namespace
}  // namespace pfm
