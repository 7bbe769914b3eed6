// FleetController: the parallel MEA loop must be bit-deterministic in the
// thread count, degenerate to the single-system controller for a 1-node
// fleet, and aggregate honest telemetry.

#include "runtime/fleet.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>

#include "core/mea.hpp"
#include "runtime/scp_system.hpp"

namespace pfm {
namespace {

/// Oracle-style predictor (see test_managed_system): keeps the loop's
/// trajectory independent of any trained model.
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

telecom::SimConfig fleet_config() {
  telecom::SimConfig cfg;
  cfg.seed = 21;
  cfg.duration = 0.5 * 86400.0;
  cfg.leak_mtbf = 21600.0;  // enough pressure to trigger warnings
  cfg.cascade_mtbf = 1e12;
  cfg.spike_mtbf = 1e12;
  return cfg;
}

std::unique_ptr<runtime::FleetController> make_fleet(
    std::size_t nodes, std::size_t num_threads) {
  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.72;
  cfg.mea.action_cooldown = 600.0;
  cfg.num_threads = num_threads;
  auto fleet_nodes = runtime::make_scp_fleet(fleet_config(), nodes);
  const auto idx =
      *fleet_nodes.front()->trace().schema().index("mem_pressure_max");
  auto fleet = std::make_unique<runtime::FleetController>(
      std::move(fleet_nodes), cfg);
  fleet->add_symptom_predictor(std::make_shared<PressurePredictor>(idx));
  fleet->add_action([] {
    return std::make_unique<act::StateCleanupAction>(0.70);
  });
  fleet->add_action([] {
    return std::make_unique<act::PreparedRepairAction>(1800.0);
  });
  return fleet;
}

void expect_same_stats(const core::SystemStats& a, const core::SystemStats& b,
                       std::size_t node) {
  EXPECT_EQ(a.total_requests, b.total_requests) << "node " << node;
  EXPECT_EQ(a.violations, b.violations) << "node " << node;
  EXPECT_EQ(a.failures, b.failures) << "node " << node;
  EXPECT_DOUBLE_EQ(a.downtime, b.downtime) << "node " << node;
  EXPECT_EQ(a.shed_requests, b.shed_requests) << "node " << node;
  EXPECT_EQ(a.preventive_restarts, b.preventive_restarts) << "node " << node;
  EXPECT_EQ(a.prepared_repairs, b.prepared_repairs) << "node " << node;
  EXPECT_EQ(a.unprepared_repairs, b.unprepared_repairs) << "node " << node;
  EXPECT_DOUBLE_EQ(a.simulated, b.simulated) << "node " << node;
}

// The headline guarantee: per-node results are a pure function of the
// seeds — the thread count only changes wall time.
TEST(Fleet, EightNodesAreBitIdenticalAcrossThreadCounts) {
  const std::size_t kNodes = 8;
  auto serial = make_fleet(kNodes, 1);
  serial->run();
  auto parallel = make_fleet(kNodes, 4);
  parallel->run();

  std::size_t total_warnings = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    expect_same_stats(serial->node(i).system_stats(),
                      parallel->node(i).system_stats(), i);
    EXPECT_EQ(serial->node_mea_stats(i).warnings,
              parallel->node_mea_stats(i).warnings)
        << "node " << i;
    EXPECT_EQ(serial->node_mea_stats(i).actions_by_kind,
              parallel->node_mea_stats(i).actions_by_kind)
        << "node " << i;
    total_warnings += serial->node_mea_stats(i).warnings;
  }
  EXPECT_GT(total_warnings, 0u) << "scenario too tame to exercise Act";

  const auto ts = serial->telemetry();
  const auto tp = parallel->telemetry();
  EXPECT_EQ(ts.rounds, tp.rounds);
  EXPECT_EQ(ts.scores_computed, tp.scores_computed);
  EXPECT_EQ(ts.warnings_raised, tp.warnings_raised);
  EXPECT_DOUBLE_EQ(ts.system.availability(), tp.system.availability());
}

// A 1-node fleet is the standalone MEA controller: node 0 keeps the base
// seed, and the lockstep round structure reduces to the single loop.
TEST(Fleet, SingleNodeFleetMatchesStandaloneController) {
  auto fleet = make_fleet(1, 2);
  fleet->run();

  const auto cfg = fleet_config();
  telecom::ScpSimulator sim(cfg);
  runtime::ScpManagedSystem system(sim);
  core::MeaConfig mc;
  mc.warning_threshold = 0.72;
  mc.action_cooldown = 600.0;
  core::MeaController mea(system, mc);
  const auto idx = *sim.trace().schema().index("mem_pressure_max");
  mea.add_symptom_predictor(std::make_shared<PressurePredictor>(idx));
  mea.add_action(std::make_unique<act::StateCleanupAction>(0.70));
  mea.add_action(std::make_unique<act::PreparedRepairAction>(1800.0));
  mea.run();

  expect_same_stats(fleet->node(0).system_stats(), system.system_stats(), 0);
  EXPECT_EQ(fleet->node_mea_stats(0).evaluations, mea.stats().evaluations);
  EXPECT_EQ(fleet->node_mea_stats(0).warnings, mea.stats().warnings);
  EXPECT_EQ(fleet->node_mea_stats(0).actions_by_kind,
            mea.stats().actions_by_kind);
}

TEST(Fleet, TelemetryAggregatesTheFleet) {
  const std::size_t kNodes = 3;
  auto fleet = make_fleet(kNodes, 2);
  fleet->run_until(3600.0);
  const auto t = fleet->telemetry();

  EXPECT_EQ(t.nodes, kNodes);
  EXPECT_GT(t.rounds, 0u);
  EXPECT_GT(t.scores_computed, 0u);
  // One evaluation per node per round, one predictor for the whole fleet.
  EXPECT_EQ(t.mea.evaluations, t.rounds * kNodes);
  EXPECT_LE(t.scores_computed, t.rounds * kNodes);
  EXPECT_DOUBLE_EQ(t.system.simulated, 3600.0 * kNodes);
  EXPECT_GE(t.latency.monitor_seconds, 0.0);
  EXPECT_GE(t.latency.evaluate_seconds, 0.0);
  EXPECT_GE(t.latency.act_seconds, 0.0);

  std::size_t warnings = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    warnings += fleet->node_mea_stats(i).warnings;
  }
  EXPECT_EQ(t.warnings_raised, warnings);
  EXPECT_EQ(t.mea.warnings, warnings);
}

TEST(Fleet, DerivedSeedsAreStableAndDistinct) {
  // Node 0 keeps the base seed — the bridge to the standalone simulator.
  EXPECT_EQ(runtime::derive_node_seed(21, 0), 21u);
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 64; ++i) {
    seeds.insert(runtime::derive_node_seed(21, i));
  }
  EXPECT_EQ(seeds.size(), 64u);

  const auto nodes = runtime::make_scp_fleet(fleet_config(), 3);
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0]->name(), "scp-21");
  EXPECT_NE(nodes[1]->name(), nodes[0]->name());
  EXPECT_NE(nodes[2]->name(), nodes[1]->name());
}

TEST(Fleet, RejectsInvalidConfigurations) {
  runtime::FleetConfig cfg;
  EXPECT_THROW(
      runtime::FleetController(
          std::vector<std::unique_ptr<core::ManagedSystem>>{}, cfg),
      std::invalid_argument);

  std::vector<std::unique_ptr<core::ManagedSystem>> with_null;
  with_null.push_back(nullptr);
  EXPECT_THROW(runtime::FleetController(std::move(with_null), cfg),
               std::invalid_argument);

  runtime::FleetConfig bad_threshold;
  bad_threshold.mea.warning_threshold = 1.5;
  EXPECT_THROW(runtime::FleetController(
                   runtime::make_scp_fleet(fleet_config(), 1), bad_threshold),
               std::invalid_argument);

  // NaN fails no plain comparison: a NaN interval would quarantine every
  // node as stalled, and a NaN threshold would warn on every evaluation.
  const double nan = std::nan("");
  runtime::FleetConfig nan_interval, nan_threshold, nan_cooldown;
  nan_interval.mea.evaluation_interval = nan;
  nan_threshold.mea.warning_threshold = nan;
  nan_cooldown.mea.action_cooldown = nan;
  for (const auto& bad : {nan_interval, nan_threshold, nan_cooldown}) {
    EXPECT_THROW(runtime::FleetController(
                     runtime::make_scp_fleet(fleet_config(), 1), bad),
                 std::invalid_argument);
  }

  // An empty context would silently turn symptom prediction off: every
  // score throws, and the breakers trip.
  runtime::FleetConfig no_context;
  no_context.mea.context_samples = 0;
  EXPECT_THROW(runtime::FleetController(
                   runtime::make_scp_fleet(fleet_config(), 1), no_context),
               std::invalid_argument);

  auto fleet = make_fleet(1, 1);
  EXPECT_THROW(fleet->add_symptom_predictor(nullptr), std::invalid_argument);
  EXPECT_THROW(fleet->add_event_predictor(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace pfm
