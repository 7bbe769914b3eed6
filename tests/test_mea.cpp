#include "core/mea.hpp"

#include <gtest/gtest.h>

#include "runtime/scp_system.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

namespace pfm::core {
namespace {

/// Warns whenever the worst node memory pressure in the newest sample is
/// above a fixed level (an "oracle-ish" predictor keeping the MEA tests
/// independent of learned-model quality).
class PressurePredictor final : public pred::SymptomPredictor {
 public:
  explicit PressurePredictor(std::size_t pressure_index)
      : index_(pressure_index) {}
  std::string name() const override { return "pressure"; }
  void train(const mon::MonitoringDataset&) override {}
  double score(const pred::SymptomContext& ctx) const override {
    return ctx.history.back().values.at(index_);
  }

 private:
  std::size_t index_;
};

/// Never warns.
class SilentPredictor final : public pred::SymptomPredictor {
 public:
  std::string name() const override { return "silent"; }
  void train(const mon::MonitoringDataset&) override {}
  double score(const pred::SymptomContext&) const override { return 0.0; }
};

telecom::SimConfig leaky_config(double days = 3.0) {
  telecom::SimConfig cfg;
  cfg.duration = days * 86400.0;
  cfg.seed = 21;
  cfg.leak_mtbf = 43200.0;  // frequent leaks
  cfg.cascade_mtbf = 1e12;
  cfg.spike_mtbf = 1e12;
  return cfg;
}

std::size_t pressure_index(const telecom::ScpSimulator& sim) {
  return *sim.trace().schema().index("mem_pressure_max");
}

TEST(Mea, ConfigValidation) {
  telecom::ScpSimulator sim(leaky_config(0.01));
  runtime::ScpManagedSystem system(sim);
  MeaConfig cfg;
  cfg.evaluation_interval = 0.0;
  EXPECT_THROW(MeaController(system, cfg), std::invalid_argument);
  cfg = MeaConfig{};
  cfg.warning_threshold = 1.5;
  EXPECT_THROW(MeaController(system, cfg), std::invalid_argument);
  // NaN fails no plain comparison, so each check must reject it
  // explicitly: a NaN interval never advances run(), a NaN threshold
  // silences every warning and a NaN cooldown disables every action.
  const double nan = std::nan("");
  cfg = MeaConfig{};
  cfg.evaluation_interval = nan;
  EXPECT_THROW(MeaController(system, cfg), std::invalid_argument);
  cfg = MeaConfig{};
  cfg.warning_threshold = nan;
  EXPECT_THROW(MeaController(system, cfg), std::invalid_argument);
  cfg = MeaConfig{};
  cfg.action_cooldown = nan;
  EXPECT_THROW(MeaController(system, cfg), std::invalid_argument);
  cfg = MeaConfig{};
  cfg.windows.data_window = nan;
  EXPECT_THROW(MeaController(system, cfg), std::invalid_argument);
  // An empty context would throw in every symptom predictor at the first
  // evaluation, after the system already stepped.
  cfg = MeaConfig{};
  cfg.context_samples = 0;
  EXPECT_THROW(MeaController(system, cfg), std::invalid_argument);
  cfg = MeaConfig{};
  MeaController mea(system, cfg);
  EXPECT_THROW(mea.add_symptom_predictor(nullptr), std::invalid_argument);
  EXPECT_THROW(mea.add_event_predictor(nullptr), std::invalid_argument);
  EXPECT_THROW(mea.add_action(nullptr), std::invalid_argument);
}

TEST(Mea, NoWarningsWithSilentPredictor) {
  telecom::ScpSimulator sim(leaky_config(0.5));
  runtime::ScpManagedSystem system(sim);
  MeaConfig cfg;
  MeaController mea(system, cfg);
  mea.add_symptom_predictor(std::make_shared<SilentPredictor>());
  mea.run();
  EXPECT_GT(mea.stats().evaluations, 0u);
  EXPECT_EQ(mea.stats().warnings, 0u);
  EXPECT_EQ(mea.stats().total_actions(), 0u);
}

TEST(Mea, AvoidanceCutsFailuresOnLeakWorkload) {
  // Baseline: no PFM.
  telecom::ScpSimulator plain(leaky_config());
  plain.run();
  ASSERT_GT(plain.stats().failures, 2);

  // PFM with a pressure-triggered state clean-up.
  telecom::ScpSimulator managed(leaky_config());
  runtime::ScpManagedSystem system(managed);
  MeaConfig cfg;
  cfg.warning_threshold = 0.72;
  cfg.action_cooldown = 600.0;
  MeaController mea(system, cfg);
  mea.add_symptom_predictor(
      std::make_shared<PressurePredictor>(pressure_index(managed)));
  mea.add_action(std::make_unique<act::StateCleanupAction>(0.70));
  mea.add_action(std::make_unique<act::PreparedRepairAction>(1800.0));
  mea.run();

  EXPECT_GT(mea.stats().warnings, 0u);
  EXPECT_GT(mea.stats().total_actions(), 0u);
  EXPECT_LT(managed.stats().failures, plain.stats().failures);
  EXPECT_GT(managed.stats().availability(), plain.stats().availability());
}

TEST(Mea, MinimizationAlonePreparesRepairs) {
  telecom::ScpSimulator managed(leaky_config());
  runtime::ScpManagedSystem system(managed);
  MeaConfig cfg;
  cfg.warning_threshold = 0.72;
  cfg.enable_avoidance = false;  // only prepare, never avoid
  MeaController mea(system, cfg);
  mea.add_symptom_predictor(
      std::make_shared<PressurePredictor>(pressure_index(managed)));
  mea.add_action(std::make_unique<act::StateCleanupAction>(0.70));
  mea.add_action(std::make_unique<act::PreparedRepairAction>(3600.0));
  mea.run();

  // Avoidance disabled: failures still happen, but some repairs are
  // prepared (Table 1's "prepared repair" column).
  EXPECT_GT(managed.stats().failures, 0);
  EXPECT_EQ(managed.stats().preventive_restarts, 0);
  EXPECT_GT(managed.stats().prepared_repairs, 0);
}

TEST(Mea, CooldownLimitsActionRate) {
  telecom::ScpSimulator managed(leaky_config(1.0));
  runtime::ScpManagedSystem system(managed);
  MeaConfig cfg;
  cfg.warning_threshold = 0.0;  // warn every evaluation
  cfg.evaluation_interval = 60.0;
  cfg.action_cooldown = 7200.0;
  cfg.enable_minimization = false;
  MeaController mea(system, cfg);
  mea.add_symptom_predictor(
      std::make_shared<PressurePredictor>(pressure_index(managed)));
  mea.add_action(std::make_unique<act::StateCleanupAction>(0.44));
  mea.run();
  // 1 day / 2 h cooldown: at most ~12 restarts + slack.
  EXPECT_LE(managed.stats().preventive_restarts, 14);
  EXPECT_GT(mea.stats().warnings, 100u);
}

TEST(Mea, EvaluateNowReflectsPredictors) {
  telecom::ScpSimulator sim(leaky_config(0.2));
  runtime::ScpManagedSystem system(sim);
  MeaConfig cfg;
  MeaController mea(system, cfg);
  mea.add_symptom_predictor(std::make_shared<SilentPredictor>());
  mea.run_until(3600.0);
  EXPECT_DOUBLE_EQ(mea.evaluate_now(), 0.0);
}

TEST(Mea, RunUntilStopsAtRequestedTime) {
  telecom::ScpSimulator sim(leaky_config(1.0));
  runtime::ScpManagedSystem system(sim);
  MeaConfig cfg;
  MeaController mea(system, cfg);
  mea.add_symptom_predictor(std::make_shared<SilentPredictor>());
  mea.run_until(3600.0);
  EXPECT_GE(sim.now(), 3600.0);
  EXPECT_LT(sim.now(), 7200.0);
}

}  // namespace
}  // namespace pfm::core
