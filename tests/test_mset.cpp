#include "prediction/mset.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "numerics/rng.hpp"
#include "prediction/evaluate.hpp"

namespace pfm::pred {
namespace {

/// Two healthy operating regimes (low/high load) plus a pre-failure drift
/// regime of variable 0.
mon::MonitoringDataset regime_trace(std::uint64_t seed) {
  num::Rng rng(seed);
  mon::MonitoringDataset ds(mon::SymptomSchema({"a", "b"}));
  const double period = 8000.0;
  double next_failure = period;
  for (double t = 0.0; t < 5.0 * 86400.0; t += 30.0) {
    const bool high = std::fmod(t, 7200.0) > 3600.0;  // alternating regimes
    double a = rng.normal(high ? 3.0 : 1.0, 0.15);
    double b = rng.normal(high ? 2.0 : 0.5, 0.15);
    const double to_failure = next_failure - t;
    if (to_failure < 1200.0 && to_failure > 0.0) {
      a += 2.5 * (1.0 - to_failure / 1200.0);  // drift out of both regimes
    }
    ds.add_sample({t, {a, b}});
    if (t >= next_failure) {
      ds.add_failure(t);
      next_failure += period;
    }
  }
  return ds;
}

MsetConfig fast_config() {
  MsetConfig cfg;
  cfg.windows = {600.0, 300.0, 300.0};
  cfg.memory_size = 24;
  return cfg;
}

TEST(Mset, ConfigValidation) {
  MsetConfig cfg = fast_config();
  cfg.memory_size = 1;
  EXPECT_THROW(MsetPredictor{cfg}, std::invalid_argument);
  cfg = fast_config();
  cfg.bandwidth = 0.0;
  EXPECT_THROW(MsetPredictor{cfg}, std::invalid_argument);
}

TEST(Mset, GuardsBeforeTraining) {
  MsetPredictor p(fast_config());
  SymptomContext ctx;
  EXPECT_THROW(p.score(ctx), std::logic_error);
  EXPECT_THROW(p.residual(std::vector<double>{1.0, 2.0}), std::logic_error);
}

TEST(Mset, TrainRequiresEnoughHealthyData) {
  MsetPredictor p(fast_config());
  mon::MonitoringDataset tiny(mon::SymptomSchema({"a"}));
  for (int i = 0; i < 10; ++i) tiny.add_sample({i * 30.0, {1.0}});
  tiny.add_failure(200.0);
  tiny.add_sample({400.0, {1.0}});
  EXPECT_THROW(p.train(tiny), std::invalid_argument);
}

TEST(Mset, HealthyStatesReconstructWellAnomalousDont) {
  const auto trace = regime_trace(3);
  MsetPredictor p(fast_config());
  p.train(trace);
  EXPECT_EQ(p.memory_size(), 24u);
  // Observations inside either healthy regime: small residual.
  const double r_low = p.residual(std::vector<double>{1.0, 0.5});
  const double r_high = p.residual(std::vector<double>{3.0, 2.0});
  // An observation far outside both regimes: large residual.
  const double r_bad = p.residual(std::vector<double>{5.5, 0.5});
  EXPECT_LT(r_low, r_bad);
  EXPECT_LT(r_high, r_bad);
}

TEST(Mset, ScoreSeparatesAnomalousStates) {
  const auto trace = regime_trace(5);
  MsetPredictor p(fast_config());
  p.train(trace);
  auto ctx_of = [](double a, double b) {
    static std::vector<mon::SymptomSample> h;
    h = {{1000.0, {a, b}}};
    SymptomContext ctx;
    ctx.history = h;
    return ctx;
  };
  EXPECT_LT(p.score(ctx_of(1.0, 0.5)), 0.4);   // healthy regime
  EXPECT_GT(p.score(ctx_of(5.5, 0.5)), 0.6);   // far out-of-norm
}

TEST(Mset, EndToEndAucBeatsChance) {
  const auto trace = regime_trace(7);
  const auto [train, test] = trace.split_at(3.5 * 86400.0);
  MsetPredictor p(fast_config());
  p.train(train);
  EvalOptions eo;
  eo.windows = fast_config().windows;
  const auto report = make_report("MSET", score_on_grid(p, test, eo));
  EXPECT_GT(report.auc, 0.75);
}

TEST(Mset, MultiModalHealthIsNotFlaggedByMeanDistance) {
  // The point of the memory-matrix approach: *both* healthy regimes score
  // low, even though each is far from the overall mean.
  const auto trace = regime_trace(9);
  MsetPredictor p(fast_config());
  p.train(trace);
  const double r_low = p.residual(std::vector<double>{1.0, 0.5});
  const double r_high = p.residual(std::vector<double>{3.0, 2.0});
  const double r_between = p.residual(std::vector<double>{2.0, 1.25});
  // The midpoint between regimes is *less* healthy than either regime.
  EXPECT_GT(r_between, r_low);
  EXPECT_GT(r_between, r_high);
}

}  // namespace
}  // namespace pfm::pred
