#include "prediction/evaluate.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace pfm::pred {
namespace {

/// Scores 1.0 whenever the newest sample's variable 0 exceeds 0.5.
class StubSymptom final : public SymptomPredictor {
 public:
  std::string name() const override { return "stub"; }
  void train(const mon::MonitoringDataset&) override {}
  double score(const SymptomContext& ctx) const override {
    return ctx.history.back().values[0] > 0.5 ? 1.0 : 0.0;
  }
};

/// Scores by the number of events in the window.
class StubEvent final : public EventPredictor {
 public:
  std::string name() const override { return "stub-event"; }
  void train(std::span<const mon::ErrorSequence>,
             std::span<const mon::ErrorSequence>) override {}
  double score(const mon::ErrorSequence& seq) const override {
    return static_cast<double>(seq.events.size());
  }
};

mon::MonitoringDataset trace_with_failure_at(double failure_time) {
  mon::MonitoringDataset ds(mon::SymptomSchema({"v"}));
  for (double t = 0.0; t <= 4000.0; t += 50.0) {
    // Variable goes high 600 s before the failure.
    const double v =
        (t > failure_time - 600.0 && t < failure_time) ? 1.0 : 0.0;
    ds.add_sample({t, {v}});
  }
  ds.add_failure(failure_time);
  ds.add_event({failure_time - 500.0, 201, 0, 2});
  ds.add_event({failure_time - 400.0, 202, 0, 2});
  return ds;
}

TEST(Evaluate, SymptomGridLabelsAndScores) {
  const auto ds = trace_with_failure_at(2000.0);
  StubSymptom p;
  EvalOptions eo;
  eo.windows = {600.0, 300.0, 300.0};
  const auto pts = score_on_grid(p, ds, eo);
  ASSERT_FALSE(pts.empty());
  // Instants too close to the trace end are not labelable.
  for (const auto& si : pts) EXPECT_LE(si.time + 600.0, 4000.0);
  // With count_early_failures, the failure at 2000 is inside [t, t+600)
  // exactly for instants t in (1400, 2000].
  for (const auto& si : pts) {
    const bool expect_pos = si.time > 1400.0 && si.time <= 2000.0;
    EXPECT_EQ(si.label == 1, expect_pos) << "t=" << si.time;
  }
  const auto report = make_report("stub", pts);
  EXPECT_GT(report.auc, 0.95);  // precursor variable is a near-oracle here
}

TEST(Evaluate, StrictLabelingExcludesLateWarnings) {
  const auto ds = trace_with_failure_at(2000.0);
  StubSymptom p;
  EvalOptions eo;
  eo.windows = {600.0, 300.0, 300.0};
  eo.count_early_failures = false;
  const auto pts = score_on_grid(p, ds, eo);
  for (const auto& si : pts) {
    // Failure at 2000 within [t+300, t+600) <=> t in (1400, 1700].
    const bool expect_pos = si.time > 1400.0 && si.time <= 1700.0;
    EXPECT_EQ(si.label == 1, expect_pos) << "t=" << si.time;
  }
}

TEST(Evaluate, EventGridUsesDataWindow) {
  const auto ds = trace_with_failure_at(2000.0);
  StubEvent p;
  EvalOptions eo;
  eo.windows = {600.0, 300.0, 300.0};
  eo.stride = 100.0;
  const auto pts = score_on_grid(p, ds, eo);
  ASSERT_FALSE(pts.empty());
  // At t = 1600, both events (1500, 1600) are inside (1000, 1600].
  bool found = false;
  for (const auto& si : pts) {
    if (si.time == 1600.0) {
      EXPECT_DOUBLE_EQ(si.score, 2.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_THROW(
      [&] {
        EvalOptions bad = eo;
        bad.stride = 0.0;
        return score_on_grid(p, ds, bad);
      }(),
      std::invalid_argument);
}

TEST(Evaluate, ReportFormatsAndValidates) {
  std::vector<ScoredInstant> pts{{0.0, 0.9, 1}, {1.0, 0.1, 0}};
  const auto r = make_report("demo", pts);
  EXPECT_EQ(r.name, "demo");
  EXPECT_DOUBLE_EQ(r.auc, 1.0);
  EXPECT_EQ(r.num_instants, 2u);
  EXPECT_EQ(r.num_positive, 1u);
  const auto s = to_string(r);
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("AUC="), std::string::npos);

  EXPECT_THROW(make_report("empty", {}), std::invalid_argument);
  std::vector<ScoredInstant> single_class{{0.0, 0.9, 1}};
  EXPECT_THROW(make_report("one", single_class), std::invalid_argument);
  std::vector<ScoredInstant> nan_score{{0.0, 0.9, 1}, {1.0, std::nan(""), 0}};
  EXPECT_THROW(make_report("nan", nan_score), std::invalid_argument);
}

TEST(Evaluate, WindowGeometryValidation) {
  WindowGeometry g{0.0, 300.0, 300.0};
  EXPECT_THROW(g.validate(), std::invalid_argument);
  g = {600.0, -1.0, 300.0};
  EXPECT_THROW(g.validate(), std::invalid_argument);
  g = {600.0, 300.0, 0.0};
  EXPECT_THROW(g.validate(), std::invalid_argument);
  g = {600.0, 300.0, 300.0};
  EXPECT_NO_THROW(g.validate());
  // Boundary: zero lead time is legal (warn at the failure instant),
  // zero-width data or prediction windows are not.
  g = {600.0, 0.0, 300.0};
  EXPECT_NO_THROW(g.validate());
  // Non-finite fields pass every plain comparison that NaN makes false;
  // the checks must reject them anyway.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (const WindowGeometry bad :
       {WindowGeometry{nan, 300.0, 300.0}, WindowGeometry{600.0, nan, 300.0},
        WindowGeometry{600.0, 300.0, nan}, WindowGeometry{inf, 300.0, 300.0},
        WindowGeometry{600.0, inf, 300.0}, WindowGeometry{600.0, 300.0, inf}}) {
    EXPECT_THROW(bad.validate(), std::invalid_argument)
        << bad.data_window << " " << bad.lead_time << " "
        << bad.prediction_window;
  }
}

}  // namespace
}  // namespace pfm::pred
