// Observability of the fleet runtime: a seeded run must produce a golden
// Prometheus exposition, sim-time exports must be bit-identical across
// thread counts, stage spans must nest node steps, telemetry() must be a
// view over the registry, and injected-fault counters must match the
// injector's own cause-side stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "injection/injector.hpp"
#include "obs/export.hpp"
#include "obs/observability.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"

namespace pfm {
namespace {

// --- a hand-computable fleet for the golden scrape --------------------------

/// Trivial deterministic ManagedSystem: steps in lockstep, records one
/// constant-pressure sample per step, never fails and never needs an
/// action — so every counter of a run is computable by hand and the
/// Prometheus exposition can be golden-tested byte for byte.
class StubSystem final : public core::ManagedSystem {
 public:
  StubSystem(std::string name, double horizon)
      : name_(std::move(name)),
        horizon_(horizon),
        trace_(mon::SymptomSchema({"pressure"})) {}

  std::string name() const override { return name_; }
  double now() const override { return now_; }
  double horizon() const override { return horizon_; }
  bool finished() const override { return now_ >= horizon_; }
  void step_to(double t) override {
    t = std::min(t, horizon_);
    if (t <= now_) return;
    now_ = t;
    trace_.add_sample({now_, {0.5}});
  }

  const mon::MonitoringDataset& trace() const override { return trace_; }

  std::size_t num_units() const override { return 1; }
  core::UnitHealth unit_health(std::size_t unit) const override {
    if (unit >= 1) throw std::out_of_range("StubSystem: unit");
    return {};
  }
  double offered_load() const override { return 100.0; }
  double unit_capacity() const override { return 200.0; }
  bool service_down() const override { return false; }

  void restart_unit(std::size_t) override {}
  void shed_load(double, double) override {}
  void checkpoint() override {}
  void prepare_for_failure(double) override {}

  core::SystemStats system_stats() const override {
    core::SystemStats stats;
    stats.simulated = now_;
    return stats;
  }

 private:
  std::string name_;
  double now_ = 0.0;
  double horizon_;
  mon::MonitoringDataset trace_;
};

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

/// Two stub nodes, one oracle predictor, ten 60 s rounds to a 600 s
/// horizon — pressure 0.5 never crosses the 0.72 threshold, so the run
/// is pure Monitor/Evaluate bookkeeping.
void run_stub_fleet(obs::Observability& hub, std::size_t num_threads) {
  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.72;
  cfg.num_threads = num_threads;
  cfg.obs = &hub;
  std::vector<std::unique_ptr<core::ManagedSystem>> nodes;
  nodes.push_back(std::make_unique<StubSystem>("stub-0", 600.0));
  nodes.push_back(std::make_unique<StubSystem>("stub-1", 600.0));
  runtime::FleetController fleet(std::move(nodes), cfg);
  fleet.add_symptom_predictor(std::make_shared<PressurePredictor>(0));
  fleet.run();
}

TEST(ObsFleet, GoldenPrometheusExpositionOfASeededRun) {
  obs::ObservabilityConfig ocfg;
  ocfg.shards = 1;
  ocfg.trace_capacity = 1024;
  obs::Observability hub(ocfg);
  run_stub_fleet(hub, 1);

  // 10 rounds of 2 nodes: 20 node-evaluations scored by one predictor,
  // no warnings, no faults, no actions. Wall-clock latency histograms
  // are excluded — the remainder is a pure function of the scenario.
  const char* expected =
      "# TYPE pfm_action_faults_total counter\n"
      "pfm_action_faults_total 0\n"
      "# TYPE pfm_action_retries_total counter\n"
      "pfm_action_retries_total 0\n"
      "# TYPE pfm_actions_abandoned_total counter\n"
      "pfm_actions_abandoned_total 0\n"
      "# TYPE pfm_actions_executed_total counter\n"
      "pfm_actions_executed_total 0\n"
      "# TYPE pfm_fleet_breaker_trips_total counter\n"
      "pfm_fleet_breaker_trips_total 0\n"
      "# TYPE pfm_fleet_epochs_total counter\n"
      "pfm_fleet_epochs_total 10\n"
      "# TYPE pfm_fleet_node_faults_total counter\n"
      "pfm_fleet_node_faults_total 0\n"
      "# TYPE pfm_fleet_node_steps_total counter\n"
      "pfm_fleet_node_steps_total 20\n"
      "# TYPE pfm_fleet_predictor_faults_total counter\n"
      "pfm_fleet_predictor_faults_total 0\n"
      "# TYPE pfm_fleet_quarantines_total counter\n"
      "pfm_fleet_quarantines_total 0\n"
      "# TYPE pfm_fleet_rounds_total counter\n"
      "pfm_fleet_rounds_total 10\n"
      "# TYPE pfm_fleet_scores_sanitized_total counter\n"
      "pfm_fleet_scores_sanitized_total 0\n"
      "# TYPE pfm_fleet_scores_total counter\n"
      "pfm_fleet_scores_total 20\n"
      "# TYPE pfm_fleet_stall_detections_total counter\n"
      "pfm_fleet_stall_detections_total 0\n"
      "# TYPE pfm_fleet_warnings_total counter\n"
      "pfm_fleet_warnings_total 0\n"
      "# TYPE pfm_fleet_nodes gauge\n"
      "pfm_fleet_nodes 2\n"
      "# TYPE pfm_fleet_open_breakers gauge\n"
      "pfm_fleet_open_breakers 0\n"
      "# TYPE pfm_fleet_quarantined_nodes gauge\n"
      "pfm_fleet_quarantined_nodes 0\n"
      "# TYPE pfm_fleet_batch_size histogram\n"
      "pfm_fleet_batch_size_bucket{le=\"1\"} 0\n"
      "pfm_fleet_batch_size_bucket{le=\"2\"} 10\n"
      "pfm_fleet_batch_size_bucket{le=\"4\"} 10\n"
      "pfm_fleet_batch_size_bucket{le=\"8\"} 10\n"
      "pfm_fleet_batch_size_bucket{le=\"16\"} 10\n"
      "pfm_fleet_batch_size_bucket{le=\"32\"} 10\n"
      "pfm_fleet_batch_size_bucket{le=\"64\"} 10\n"
      "pfm_fleet_batch_size_bucket{le=\"128\"} 10\n"
      "pfm_fleet_batch_size_bucket{le=\"256\"} 10\n"
      "pfm_fleet_batch_size_bucket{le=\"512\"} 10\n"
      "pfm_fleet_batch_size_bucket{le=\"1024\"} 10\n"
      "pfm_fleet_batch_size_bucket{le=\"2048\"} 10\n"
      "pfm_fleet_batch_size_bucket{le=\"+Inf\"} 10\n"
      "pfm_fleet_batch_size_sum 20\n"
      "pfm_fleet_batch_size_count 10\n";
  EXPECT_EQ(obs::prometheus_text(hub.metrics(), /*include_wall=*/false),
            expected);

  // With wall instruments included, the latency histograms appear too.
  const std::string full = obs::prometheus_text(hub.metrics(), true);
  EXPECT_NE(full.find("pfm_stage_latency_seconds_count{stage=\"monitor\"}"),
            std::string::npos);
}

TEST(ObsFleet, StubRunRecordsTheExpectedSpanStructure) {
  obs::ObservabilityConfig ocfg;
  ocfg.shards = 1;
  ocfg.trace_capacity = 1024;
  obs::Observability hub(ocfg);
  run_stub_fleet(hub, 1);

  ASSERT_EQ(hub.trace().dropped(), 0u);
  const auto spans = hub.trace().sorted_spans();

  std::size_t monitor = 0, evaluate = 0, act = 0, steps = 0, scores = 0;
  for (const auto& s : spans) {
    switch (s.kind) {
      case obs::SpanKind::kMonitorStage: ++monitor; break;
      case obs::SpanKind::kEvaluateStage: ++evaluate; break;
      case obs::SpanKind::kActStage: ++act; break;
      case obs::SpanKind::kNodeStep: ++steps; break;
      case obs::SpanKind::kScoreBatch:
        ++scores;
        EXPECT_EQ(s.arg, 2) << "one score per stub node";
        break;
      default:
        ADD_FAILURE() << "unexpected span kind "
                      << obs::to_string(s.kind);
    }
  }
  EXPECT_EQ(monitor, 10u);
  EXPECT_EQ(evaluate, 10u);
  EXPECT_EQ(act, 10u);
  EXPECT_EQ(steps, 20u);
  EXPECT_EQ(scores, 10u);
  EXPECT_EQ(spans.size(), 60u);

  // Every node step nests inside some Monitor-stage span, and each
  // round's Evaluate stage begins no earlier than its Monitor stage ends.
  for (const auto& s : spans) {
    if (s.kind == obs::SpanKind::kNodeStep) {
      bool nested = false;
      for (const auto& m : spans) {
        if (m.kind == obs::SpanKind::kMonitorStage &&
            m.sim_begin <= s.sim_begin && s.sim_end <= m.sim_end) {
          nested = true;
          break;
        }
      }
      EXPECT_TRUE(nested) << "node step at " << s.sim_begin;
    }
    if (s.kind == obs::SpanKind::kMonitorStage) {
      for (const auto& e : spans) {
        if (e.kind == obs::SpanKind::kEvaluateStage && e.sub == s.sub) {
          EXPECT_GE(e.sim_begin, s.sim_end) << "round " << s.sub;
        }
      }
    }
  }
}

TEST(ObsFleet, RejectsAHubWithTooFewShards) {
  obs::ObservabilityConfig ocfg;
  ocfg.shards = 1;  // controller only — cannot cover 4 loop threads
  obs::Observability hub(ocfg);
  runtime::FleetConfig cfg;
  cfg.num_threads = 4;
  cfg.obs = &hub;
  std::vector<std::unique_ptr<core::ManagedSystem>> nodes;
  nodes.push_back(std::make_unique<StubSystem>("stub-0", 600.0));
  EXPECT_THROW(runtime::FleetController(std::move(nodes), cfg),
               std::invalid_argument);
}

// --- bit-identity over the real simulator fleet ------------------------------

telecom::SimConfig scp_config() {
  telecom::SimConfig cfg;
  cfg.seed = 21;
  cfg.duration = 0.5 * 86400.0;
  cfg.leak_mtbf = 21600.0;  // enough pressure to trigger warnings
  cfg.cascade_mtbf = 1e12;
  cfg.spike_mtbf = 1e12;
  return cfg;
}

struct ObservedRun {
  std::string prometheus;
  std::string trace_json;
  std::string json_line;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::size_t warnings = 0;
};

ObservedRun run_observed_scp_fleet(std::size_t num_threads) {
  const std::size_t kNodes = 8;
  obs::ObservabilityConfig ocfg;
  ocfg.shards = num_threads;
  ocfg.trace_capacity = 1 << 15;
  obs::Observability hub(ocfg);

  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.72;
  cfg.mea.action_cooldown = 600.0;
  cfg.num_threads = num_threads;
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

  ObservedRun out;
  out.prometheus = obs::prometheus_text(hub.metrics(), false);
  out.trace_json = obs::chrome_trace_json(hub.trace(), false);
  out.json_line = obs::metrics_json_line(hub.metrics(), false);
  out.recorded = hub.trace().recorded();
  out.dropped = hub.trace().dropped();
  out.warnings = fleet.telemetry().warnings_raised;
  return out;
}

// The observability counterpart of the fleet's headline guarantee: with
// wall-clock fields excluded, scrape and trace are pure functions of
// (seed, plan) — byte-identical at any thread count.
TEST(ObsFleet, SimTimeExportsAreBitIdenticalAcrossThreadCounts) {
  const auto t1 = run_observed_scp_fleet(1);
  const auto t2 = run_observed_scp_fleet(2);
  const auto t8 = run_observed_scp_fleet(8);

  // The comparison is only meaningful while nothing was dropped and the
  // scenario actually exercised warnings and actions.
  ASSERT_EQ(t1.dropped, 0u);
  ASSERT_EQ(t2.dropped, 0u);
  ASSERT_EQ(t8.dropped, 0u);
  EXPECT_GT(t1.recorded, 0u);
  EXPECT_GT(t1.warnings, 0u) << "scenario too tame to exercise Act";

  EXPECT_EQ(t1.prometheus, t2.prometheus);
  EXPECT_EQ(t1.prometheus, t8.prometheus);
  EXPECT_EQ(t1.json_line, t2.json_line);
  EXPECT_EQ(t1.json_line, t8.json_line);
  EXPECT_EQ(t1.trace_json, t2.trace_json);
  EXPECT_EQ(t1.trace_json, t8.trace_json);
  EXPECT_EQ(t1.recorded, t2.recorded);
  EXPECT_EQ(t1.recorded, t8.recorded);
}

TEST(ObsFleet, TelemetryIsAViewOverTheRegistry) {
  obs::ObservabilityConfig ocfg;
  ocfg.shards = 2;
  obs::Observability hub(ocfg);  // metrics only: tracing off

  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.72;
  cfg.mea.action_cooldown = 600.0;
  cfg.num_threads = 2;
  cfg.obs = &hub;
  auto nodes = runtime::make_scp_fleet(scp_config(), 3);
  const auto idx = *nodes.front()->trace().schema().index("mem_pressure_max");
  runtime::FleetController fleet(std::move(nodes), cfg);
  fleet.add_symptom_predictor(std::make_shared<PressurePredictor>(idx));
  fleet.add_action(
      [] { return std::make_unique<act::StateCleanupAction>(0.70); });
  fleet.run_until(7200.0);

  const auto t = fleet.telemetry();
  auto& metrics = hub.metrics();
  EXPECT_EQ(t.rounds, metrics.counter("pfm_fleet_rounds_total").value());
  EXPECT_EQ(t.epochs, metrics.counter("pfm_fleet_epochs_total").value());
  EXPECT_EQ(t.node_steps,
            metrics.counter("pfm_fleet_node_steps_total").value());
  EXPECT_EQ(t.scores_computed,
            metrics.counter("pfm_fleet_scores_total").value());
  EXPECT_EQ(t.warnings_raised,
            metrics.counter("pfm_fleet_warnings_total").value());
  EXPECT_EQ(t.resilience.node_faults,
            metrics.counter("pfm_fleet_node_faults_total").value());
  EXPECT_EQ(t.resilience.breaker_trips,
            metrics.counter("pfm_fleet_breaker_trips_total").value());
  EXPECT_DOUBLE_EQ(static_cast<double>(t.nodes),
                   metrics.gauge("pfm_fleet_nodes").value());
  EXPECT_GT(t.rounds, 0u);

  // The controller's own accessor hands back the same hub.
  EXPECT_EQ(&fleet.observability(), &hub);
}

TEST(ObsFleet, PrivateFallbackHubStillFeedsTelemetry) {
  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.72;
  cfg.num_threads = 2;  // no cfg.obs: controller owns a metrics-only hub
  auto nodes = runtime::make_scp_fleet(scp_config(), 2);
  const auto idx = *nodes.front()->trace().schema().index("mem_pressure_max");
  runtime::FleetController fleet(std::move(nodes), cfg);
  fleet.add_symptom_predictor(std::make_shared<PressurePredictor>(idx));
  fleet.run_until(3600.0);

  const auto t = fleet.telemetry();
  EXPECT_GT(t.rounds, 0u);
  auto& hub = fleet.observability();
  EXPECT_EQ(hub.trace().capacity_per_shard(), 0u) << "tracing must be off";
  EXPECT_EQ(t.rounds,
            hub.metrics().counter("pfm_fleet_rounds_total").value());
}

// --- cause side: injected faults land in the same registry ------------------

TEST(ObsFleet, InjectedFaultCountersMatchInjectorStats) {
  const std::size_t kNodes = 4;
  obs::ObservabilityConfig ocfg;
  ocfg.shards = 2;
  ocfg.trace_capacity = 1 << 15;
  obs::Observability hub(ocfg);

  inj::FaultPlan plan;
  plan.seed = 1234;
  plan.nodes[1].crash_at = 10800.0;
  plan.default_node.drop_sample_p = 0.05;
  plan.predictors[0].nan_p = 0.05;
  plan.actions[0].fail_p = 0.5;
  inj::FaultInjector injector(plan);
  injector.set_observability(&hub);  // before wrapping anything

  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.72;
  cfg.mea.action_cooldown = 600.0;
  cfg.num_threads = 2;
  cfg.obs = &hub;

  auto nodes = runtime::make_scp_fleet(scp_config(), kNodes);
  const auto idx = *nodes.front()->trace().schema().index("mem_pressure_max");
  runtime::FleetController fleet(injector.wrap_fleet(std::move(nodes)), cfg);
  fleet.add_symptom_predictor(injector.wrap_symptom_predictor(
      0, std::make_shared<PressurePredictor>(idx)));
  fleet.add_action(injector.wrap_action_factory(0, [] {
    return std::make_unique<act::StateCleanupAction>(0.70);
  }));
  fleet.add_action(injector.wrap_action_factory(1, [] {
    return std::make_unique<act::PreparedRepairAction>(1800.0);
  }));
  fleet.run();

  const auto injected = injector.stats();
  EXPECT_GT(injected.total(), 0u);
  EXPECT_EQ(injected.node_crashes, 1u);

  auto& metrics = hub.metrics();
  const auto kind_counter = [&](const char* kind) {
    return metrics
        .counter(std::string("pfm_injected_faults_total{kind=\"") + kind +
                 "\"}")
        .value();
  };
  EXPECT_EQ(kind_counter("node_crash"), injected.node_crashes);
  EXPECT_EQ(kind_counter("node_hang"), injected.node_hangs);
  EXPECT_EQ(kind_counter("sample_drop"), injected.samples_dropped);
  EXPECT_EQ(kind_counter("sample_corrupt"), injected.samples_corrupted);
  EXPECT_EQ(kind_counter("predictor_throw"), injected.predictor_throws);
  EXPECT_EQ(kind_counter("predictor_nan"), injected.predictor_nans);
  EXPECT_EQ(kind_counter("action_failure"), injected.action_failures);

  // The sim-timed fault families also leave spans: the node crash at
  // 10800 s must appear as a kInjectedFault instant on node 1's track.
  bool crash_span = false;
  for (const auto& s : hub.trace().sorted_spans()) {
    if (s.kind == obs::SpanKind::kInjectedFault &&
        s.track == obs::node_track(1) &&
        s.arg == static_cast<std::int64_t>(inj::FaultCode::kNodeCrash)) {
      crash_span = true;
      break;
    }
  }
  EXPECT_TRUE(crash_span);

  // Effect side lives in the same scrape: the crash was quarantined.
  EXPECT_GE(metrics.counter("pfm_fleet_quarantines_total").value(), 1u);
}

}  // namespace
}  // namespace pfm
