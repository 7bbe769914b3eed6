// Online prediction-quality tracking (DESIGN.md §10): the streaming
// tracker must reproduce the offline evaluation pipeline exactly — same
// Sect. 3.3 matching rule, same contingency counts — while staying
// bit-identical across thread counts, shard-count invariant on a clean
// fleet, and silent (no instruments at all) when disabled. The live
// Eq. 8 availability gauges must agree with a by-hand recomputation
// through ctmc::clamped_quality and the closed-form CTMC solution.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ctmc/pfm_model.hpp"
#include "eval/metrics.hpp"
#include "monitoring/dataset.hpp"
#include "obs/export.hpp"
#include "obs/observability.hpp"
#include "obs/quality.hpp"
#include "prediction/evaluate.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"

namespace pfm {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// --- replay cross-check against the offline pipeline ------------------------

/// Scores 1.0 whenever the newest sample's variable 0 exceeds 0.5 — the
/// same near-oracle stub the offline evaluate tests use.
class StubSymptom final : public pred::SymptomPredictor {
 public:
  std::string name() const override { return "stub"; }
  void train(const mon::MonitoringDataset&) override {}
  double score(const pred::SymptomContext& ctx) const override {
    return ctx.history.back().values[0] > 0.5 ? 1.0 : 0.0;
  }
};

/// A trace with two failures and an imperfect precursor variable: high
/// before the first failure (hits), high once with no failure following
/// (a false alarm), and silent before the second failure (misses) — so
/// every contingency cell is populated.
mon::MonitoringDataset two_failure_trace() {
  mon::MonitoringDataset ds(mon::SymptomSchema({"v"}));
  for (double t = 0.0; t <= 8000.0; t += 50.0) {
    const bool precursor = (t > 1400.0 && t < 2000.0) ||  // true precursor
                           (t > 4000.0 && t < 4400.0);    // false alarm
    ds.add_sample({t, {precursor ? 1.0 : 0.0}});
  }
  ds.add_failure(2000.0);
  ds.add_failure(6500.0);  // unheralded: the stub scores 0 before it
  return ds;
}

/// Replays the offline grid through the online tracker: observe() every
/// sample instant in time order, resolve() at the horizon. Returns the
/// tracker's cumulative combined-lane counts.
obs::ConfusionCounts replay_online(const mon::MonitoringDataset& ds,
                                   const pred::SymptomPredictor& predictor,
                                   const pred::EvalOptions& eo,
                                   double threshold,
                                   obs::MetricsRegistry& registry) {
  obs::QualityConfig qc;
  qc.lead_time = eo.windows.lead_time;
  qc.prediction_window = eo.windows.prediction_window;
  qc.count_early_failures = eo.count_early_failures;
  qc.warning_threshold = threshold;
  qc.pending_capacity = ds.samples().size() + 1;  // no evictions
  qc.outcome_window = 4096;
  obs::QualityTracker tracker(qc, &registry);
  const std::vector<std::string> labels{"stub"};
  tracker.set_predictors(labels);
  tracker.ensure_nodes(1);

  const auto samples = ds.samples();
  const auto failures = ds.failures();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double t = samples[i].time;
    // The online situation score_on_grid replays: trailing context only.
    const std::size_t first =
        i + 1 >= eo.context_samples ? i + 1 - eo.context_samples : 0;
    pred::SymptomContext ctx;
    ctx.history = samples.subspan(first, i - first + 1);
    const double score = predictor.score(ctx);
    const double row[2] = {score, score};  // lane + combined
    tracker.resolve(0, t, failures);
    tracker.observe(0, t, row);
  }
  tracker.resolve(0, ds.end_time(), failures);
  EXPECT_EQ(tracker.cumulative(0).total(),
            tracker.cumulative(tracker.combined_lane()).total());
  return tracker.cumulative(tracker.combined_lane());
}

void expect_matches_offline(bool count_early_failures) {
  const auto ds = two_failure_trace();
  StubSymptom predictor;
  pred::EvalOptions eo;
  eo.windows = {600.0, 300.0, 300.0};
  eo.count_early_failures = count_early_failures;
  const double threshold = 0.6;

  // Offline: grid scoring plus a thresholded contingency table.
  const auto instants = pred::score_on_grid(predictor, ds, eo);
  ASSERT_FALSE(instants.empty());
  std::vector<double> scores;
  std::vector<int> labels;
  for (const auto& si : instants) {
    scores.push_back(si.score);
    labels.push_back(si.label);
  }
  const auto offline = eval::score_contingency(scores, labels, threshold);
  EXPECT_GT(offline.true_positives, 0u);
  EXPECT_GT(offline.false_positives, 0u);
  EXPECT_GT(offline.true_negatives, 0u);
  EXPECT_GT(offline.false_negatives, 0u);

  // Online: the tracker, fed the same instants as they would stream in.
  obs::MetricsRegistry registry(1);
  const auto online = replay_online(ds, predictor, eo, threshold, registry);

  EXPECT_EQ(online.true_positives, offline.true_positives);
  EXPECT_EQ(online.false_positives, offline.false_positives);
  EXPECT_EQ(online.true_negatives, offline.true_negatives);
  EXPECT_EQ(online.false_negatives, offline.false_negatives);
  EXPECT_EQ(online.total(), instants.size());
  EXPECT_DOUBLE_EQ(online.precision(), offline.precision());
  EXPECT_DOUBLE_EQ(online.recall(), offline.recall());
  EXPECT_DOUBLE_EQ(online.false_positive_rate(),
                   offline.false_positive_rate());
  EXPECT_DOUBLE_EQ(online.f_measure(), offline.f_measure());
}

TEST(Quality, OnlineReplayMatchesOfflineContingencyExactly) {
  expect_matches_offline(/*count_early_failures=*/true);
}

TEST(Quality, StrictWindowVariantMatchesOfflineToo) {
  expect_matches_offline(/*count_early_failures=*/false);
}

// --- tracker unit semantics --------------------------------------------------

TEST(Quality, ConfigValidates) {
  obs::MetricsRegistry registry(1);
  obs::QualityConfig qc;
  EXPECT_NO_THROW(obs::QualityTracker(qc, &registry));
  EXPECT_THROW(obs::QualityTracker(qc, nullptr), std::invalid_argument);
  auto bad = qc;
  bad.prediction_window = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = qc;
  bad.lead_time = -1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = qc;
  bad.pending_capacity = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = qc;
  bad.score_bins = 100;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(Quality, LaneLabelsDedupAndAppendCombined) {
  obs::MetricsRegistry registry(1);
  obs::QualityConfig qc;
  obs::QualityTracker tracker(qc, &registry);
  const std::vector<std::string> labels{"ubf", "ubf", "combined"};
  tracker.set_predictors(labels);
  ASSERT_EQ(tracker.lanes(), 4u);
  EXPECT_EQ(tracker.lane_labels()[0], "ubf");
  EXPECT_EQ(tracker.lane_labels()[1], "ubf#1");
  EXPECT_EQ(tracker.lane_labels()[2], "combined#2");
  EXPECT_EQ(tracker.lane_labels()[3], "combined");
  EXPECT_EQ(tracker.combined_lane(), 3u);
  EXPECT_THROW(
      [&] {
        obs::QualityTracker fresh(qc, &registry);
        fresh.ensure_nodes(1);  // lanes not declared yet
      }(),
      std::invalid_argument);
}

TEST(Quality, PendingRingEvictsOldestAndCountsIt) {
  obs::MetricsRegistry registry(1);
  obs::QualityConfig qc;
  qc.lead_time = 0.0;
  qc.prediction_window = 100.0;
  qc.pending_capacity = 2;
  obs::QualityTracker tracker(qc, &registry);
  const std::vector<std::string> labels{"p"};
  tracker.set_predictors(labels);
  tracker.ensure_nodes(1);

  const double row[2] = {0.9, 0.9};
  tracker.observe(0, 0.0, row);
  tracker.observe(0, 10.0, row);
  tracker.observe(0, 20.0, row);  // evicts the t=0 instant
  EXPECT_EQ(tracker.pending_total(), 2u);
  EXPECT_EQ(registry.counter("pfm_quality_observed_total").value(), 3u);
  EXPECT_EQ(registry.counter("pfm_quality_evicted_total").value(), 1u);

  // Resolve everything: only the two surviving instants tally.
  const std::vector<double> failures;  // none -> all negatives
  tracker.resolve(0, 1000.0, failures);
  EXPECT_EQ(tracker.pending_total(), 0u);
  EXPECT_EQ(registry.counter("pfm_quality_resolved_total").value(), 2u);
  const auto counts = tracker.cumulative(tracker.combined_lane());
  EXPECT_EQ(counts.total(), 2u);
  EXPECT_EQ(counts.false_positives, 2u);  // 0.9 >= 0.6 with no failure
}

TEST(Quality, NanLaneScoresResolveToNoOutcome) {
  obs::MetricsRegistry registry(1);
  obs::QualityConfig qc;
  qc.lead_time = 0.0;
  qc.prediction_window = 100.0;
  obs::QualityTracker tracker(qc, &registry);
  const std::vector<std::string> labels{"p"};
  tracker.set_predictors(labels);
  tracker.ensure_nodes(1);

  const double row[2] = {kNaN, 0.2};  // lane 0 did not score here
  tracker.observe(0, 0.0, row);
  const std::vector<double> failures{50.0};
  tracker.resolve(0, 200.0, failures);
  EXPECT_EQ(tracker.cumulative(0).total(), 0u);
  const auto combined = tracker.cumulative(tracker.combined_lane());
  EXPECT_EQ(combined.total(), 1u);
  EXPECT_EQ(combined.false_negatives, 1u);  // 0.2 < 0.6, failure followed
}

TEST(Quality, ResetNodeClearsWindowKeepsCumulative) {
  obs::MetricsRegistry registry(1);
  obs::QualityConfig qc;
  qc.lead_time = 0.0;
  qc.prediction_window = 100.0;
  obs::QualityTracker tracker(qc, &registry);
  const std::vector<std::string> labels{"p"};
  tracker.set_predictors(labels);
  tracker.ensure_nodes(2);

  const double row[2] = {0.9, 0.9};
  const std::vector<double> failures;
  tracker.observe(0, 0.0, row);
  tracker.resolve(0, 200.0, failures);
  tracker.observe(0, 300.0, row);  // left pending by the restart
  ASSERT_EQ(tracker.node_windowed(0, 1).total(), 1u);

  tracker.reset_node(0);
  EXPECT_EQ(tracker.node_windowed(0, 1).total(), 0u);
  EXPECT_EQ(tracker.node_cumulative(0, 1).total(), 1u);
  EXPECT_EQ(tracker.pending_total(), 0u);
  EXPECT_EQ(registry.counter("pfm_quality_evicted_total").value(), 1u);
  EXPECT_EQ(tracker.windowed_nodes(1, 0, 2).total(), 0u);
}

TEST(Quality, SlidingWindowEvictsOldestOutcome) {
  obs::MetricsRegistry registry(1);
  obs::QualityConfig qc;
  qc.lead_time = 0.0;
  qc.prediction_window = 10.0;
  qc.outcome_window = 2;
  obs::QualityTracker tracker(qc, &registry);
  const std::vector<std::string> labels{"p"};
  tracker.set_predictors(labels);
  tracker.ensure_nodes(1);

  const std::vector<double> failures;
  const double warn[2] = {0.9, 0.9};
  const double quiet[2] = {0.1, 0.1};
  tracker.observe(0, 0.0, warn);   // fp once resolved
  tracker.observe(0, 1.0, quiet);  // tn
  tracker.observe(0, 2.0, quiet);  // tn — slides the fp out
  tracker.resolve(0, 100.0, failures);

  const auto windowed = tracker.windowed(tracker.combined_lane());
  EXPECT_EQ(windowed.total(), 2u);
  EXPECT_EQ(windowed.true_negatives, 2u);
  EXPECT_EQ(windowed.false_positives, 0u);
  const auto cumulative = tracker.cumulative(tracker.combined_lane());
  EXPECT_EQ(cumulative.false_positives, 1u);
  EXPECT_EQ(cumulative.true_negatives, 2u);
}

TEST(Quality, AucEstimateSeparatesAnOracle) {
  obs::MetricsRegistry registry(1);
  obs::QualityConfig qc;
  qc.lead_time = 0.0;
  qc.prediction_window = 10.0;
  obs::QualityTracker tracker(qc, &registry);
  const std::vector<std::string> labels{"p"};
  tracker.set_predictors(labels);
  tracker.ensure_nodes(1);

  // Positives score 0.95, negatives 0.05: a perfect separation.
  const std::vector<double> failures{105.0};
  const double hot[2] = {0.95, 0.95};
  const double cold[2] = {0.05, 0.05};
  tracker.observe(0, 100.0, hot);  // failure at 105 inside [100, 110)
  for (double t : {200.0, 300.0, 400.0}) tracker.observe(0, t, cold);
  EXPECT_DOUBLE_EQ(tracker.auc_estimate(0), 0.5);  // nothing resolved yet
  tracker.resolve(0, 1000.0, failures);
  EXPECT_DOUBLE_EQ(tracker.auc_estimate(0), 1.0);
  tracker.refresh_gauges();
  EXPECT_DOUBLE_EQ(registry.gauge("pfm_quality_auc{predictor=\"p\"}").value(),
                   1.0);
  EXPECT_DOUBLE_EQ(
      registry.gauge("pfm_quality_precision{predictor=\"p\"}").value(), 1.0);
  EXPECT_DOUBLE_EQ(
      registry.gauge("pfm_quality_recall{predictor=\"p\"}").value(), 1.0);
}

TEST(Quality, ClampedQualityHandlesDegenerateInputs) {
  // Non-finite anywhere falls back to the perfect-predictor point.
  const auto nan = ctmc::clamped_quality(kNaN, 0.5, 0.1);
  EXPECT_DOUBLE_EQ(nan.precision, 1.0);
  EXPECT_DOUBLE_EQ(nan.recall, 1.0);
  EXPECT_DOUBLE_EQ(nan.false_positive_rate, 0.0);
  // Boundary clamps: zero precision lifts to eps, fpr backs off 1.
  const auto lifted = ctmc::clamped_quality(0.0, 1.5, 1.0, 1e-6);
  EXPECT_DOUBLE_EQ(lifted.precision, 1e-6);
  EXPECT_DOUBLE_EQ(lifted.recall, 1.0);
  EXPECT_DOUBLE_EQ(lifted.false_positive_rate, 1.0 - 1e-6);
  // precision < 1 with fpr == 0 is contradictory; fpr lifts to eps.
  const auto contradictory = ctmc::clamped_quality(0.5, 0.5, 0.0, 1e-6);
  EXPECT_DOUBLE_EQ(contradictory.false_positive_rate, 1e-6);
  EXPECT_NO_THROW(contradictory.validate());
  // Every clamped point must be a valid model input.
  EXPECT_NO_THROW(ctmc::clamped_quality(0.0, -3.0, 9.0).validate());
}

// --- fleet integration -------------------------------------------------------

/// Oracle predictor: newest value of symptom 0 (see test_fleet).
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

telecom::SimConfig scp_config() {
  telecom::SimConfig cfg;
  cfg.seed = 21;
  cfg.duration = 0.5 * 86400.0;
  cfg.leak_mtbf = 21600.0;  // enough pressure to trigger warnings
  cfg.cascade_mtbf = 1e12;
  cfg.spike_mtbf = 1e12;
  return cfg;
}

struct QualityRun {
  std::string prometheus;
  obs::ConfusionCounts combined_windowed;
  double model_gauge = 0.0;
  double measured_gauge = 0.0;
  double drift_gauge = 0.0;
  double recomputed_model = 0.0;
  double measured_availability = 0.0;
};

QualityRun run_quality_scp_fleet(std::size_t num_threads, bool enable_quality,
                                 runtime::FleetScheduler scheduler =
                                     runtime::FleetScheduler::kLockstep,
                                 std::size_t num_shards = 1) {
  const std::size_t kNodes = 16;
  obs::ObservabilityConfig ocfg;
  ocfg.shards = num_threads;
  obs::Observability hub(ocfg);

  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.72;
  cfg.mea.action_cooldown = 600.0;
  cfg.num_threads = num_threads;
  cfg.scheduler = scheduler;
  cfg.num_shards = num_shards;
  cfg.epoch_ticks = 4;
  cfg.quality = enable_quality;
  cfg.obs = &hub;
  auto nodes = runtime::make_scp_fleet(scp_config(), kNodes);
  const auto idx = *nodes.front()->trace().schema().index("mem_pressure_max");
  runtime::FleetController fleet(std::move(nodes), cfg);
  fleet.add_symptom_predictor(std::make_shared<PressurePredictor>(idx));
  fleet.add_action(
      [] { return std::make_unique<act::StateCleanupAction>(0.70); });
  fleet.add_action(
      [] { return std::make_unique<act::PreparedRepairAction>(1800.0); });
  fleet.run();

  QualityRun out;
  out.prometheus = obs::prometheus_text(hub.metrics(), false);
  const auto* tracker = fleet.quality_tracker();
  EXPECT_EQ(tracker != nullptr, enable_quality);
  if (tracker != nullptr) {
    out.combined_windowed = tracker->windowed(tracker->combined_lane());
    out.model_gauge =
        hub.metrics().gauge("pfm_quality_model_availability").value();
    out.measured_gauge =
        hub.metrics().gauge("pfm_quality_measured_availability").value();
    out.drift_gauge =
        hub.metrics().gauge("pfm_quality_availability_drift").value();
    ctmc::PfmModelParams params;
    params.quality = ctmc::clamped_quality(
        out.combined_windowed.precision(), out.combined_windowed.recall(),
        out.combined_windowed.false_positive_rate());
    out.recomputed_model =
        ctmc::PfmAvailabilityModel(params).availability_closed_form();
    out.measured_availability = fleet.telemetry().system.availability();
  }
  return out;
}

TEST(QualityFleet, DisabledConfigExportsNoQualitySeries) {
  const auto run = run_quality_scp_fleet(2, /*enable_quality=*/false);
  EXPECT_EQ(run.prometheus.find("pfm_quality"), std::string::npos);
}

TEST(QualityFleet, EnabledConfigExportsTheScoreboard) {
  const auto run = run_quality_scp_fleet(1, /*enable_quality=*/true);
  EXPECT_NE(run.prometheus.find("pfm_quality_outcomes_total{predictor="
                                "\"combined\",outcome=\"tp\"}"),
            std::string::npos);
  EXPECT_NE(run.prometheus.find("pfm_quality_precision{predictor="
                                "\"pressure\"}"),
            std::string::npos);
  EXPECT_NE(run.prometheus.find("pfm_quality_model_availability"),
            std::string::npos);
  EXPECT_NE(run.prometheus.find("pfm_quality_pending_instants"),
            std::string::npos);
  // The scenario actually resolves instants in every quadrant's reach.
  EXPECT_GT(run.combined_windowed.total(), 0u);
}

TEST(QualityFleet, SimTimeQualityExportsBitIdenticalAcrossThreadCounts) {
  const auto t1 = run_quality_scp_fleet(1, true);
  const auto t2 = run_quality_scp_fleet(2, true);
  const auto t8 = run_quality_scp_fleet(8, true);
  EXPECT_EQ(t1.prometheus, t2.prometheus);
  EXPECT_EQ(t1.prometheus, t8.prometheus);
}

TEST(QualityFleet, EventDrivenQualityExportsBitIdenticalAcrossThreadCounts) {
  const auto t1 = run_quality_scp_fleet(1, true,
                                        runtime::FleetScheduler::kEventDriven,
                                        /*num_shards=*/4);
  const auto t2 = run_quality_scp_fleet(2, true,
                                        runtime::FleetScheduler::kEventDriven,
                                        /*num_shards=*/4);
  const auto t8 = run_quality_scp_fleet(8, true,
                                        runtime::FleetScheduler::kEventDriven,
                                        /*num_shards=*/4);
  EXPECT_EQ(t1.prometheus, t2.prometheus);
  EXPECT_EQ(t1.prometheus, t8.prometheus);
}

/// Extracts the fleet-wide pfm_quality_* lines of a scrape, skipping the
/// per-shard Eq. 8 attributions (registered only for multi-shard fleets
/// by design, so they cannot be part of a cross-shard-count comparison).
std::string quality_lines(const std::string& prometheus) {
  std::string out;
  std::size_t begin = 0;
  while (begin < prometheus.size()) {
    std::size_t end = prometheus.find('\n', begin);
    if (end == std::string::npos) end = prometheus.size();
    const std::string line = prometheus.substr(begin, end - begin);
    if (line.find("pfm_quality") != std::string::npos &&
        line.find("{shard=") == std::string::npos) {
      out += line;
      out += '\n';
    }
    begin = end + 1;
  }
  return out;
}

// On a clean fleet (no component faults, so no per-shard breaker or
// quarantine divergence) the scoreboard depends only on each node's own
// visit schedule — shard-count invariant by construction.
TEST(QualityFleet, CleanFleetScoreboardIsShardCountInvariant) {
  const auto s1 = run_quality_scp_fleet(
      2, true, runtime::FleetScheduler::kEventDriven, 1);
  const auto s4 = run_quality_scp_fleet(
      2, true, runtime::FleetScheduler::kEventDriven, 4);
  const auto s16 = run_quality_scp_fleet(
      2, true, runtime::FleetScheduler::kEventDriven, 16);
  const std::string q1 = quality_lines(s1.prometheus);
  ASSERT_FALSE(q1.empty());
  EXPECT_EQ(q1, quality_lines(s4.prometheus));
  EXPECT_EQ(q1, quality_lines(s16.prometheus));
  // Multi-shard fleets additionally attribute the Eq. 8 estimate.
  EXPECT_EQ(s1.prometheus.find("pfm_quality_model_availability{shard="),
            std::string::npos);
  EXPECT_NE(s4.prometheus.find("pfm_quality_model_availability{shard=\"3\"}"),
            std::string::npos);
  EXPECT_NE(
      s16.prometheus.find("pfm_quality_model_availability{shard=\"15\"}"),
      std::string::npos);
}

TEST(QualityFleet, Eq8GaugesMatchRecomputedClosedForm) {
  const auto run = run_quality_scp_fleet(2, true);
  EXPECT_DOUBLE_EQ(run.model_gauge, run.recomputed_model);
  EXPECT_DOUBLE_EQ(run.measured_gauge, run.measured_availability);
  EXPECT_DOUBLE_EQ(run.drift_gauge, run.model_gauge - run.measured_gauge);
  EXPECT_GT(run.model_gauge, 0.0);
  EXPECT_LE(run.model_gauge, 1.0);
  EXPECT_GT(run.measured_gauge, 0.0);
  EXPECT_LE(run.measured_gauge, 1.0);
}

}  // namespace
}  // namespace pfm
