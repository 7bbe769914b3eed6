// The ManagedSystem seam: the MEA core must behave identically through
// the ScpManagedSystem adapter as it did when it drove the simulator
// directly, and src/core must stay free of telecom includes.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "core/mea.hpp"
#include "lint.hpp"
#include "runtime/scp_system.hpp"

namespace pfm {
namespace {

/// Oracle-style predictor: warns on the worst node's memory pressure, so
/// the closed-loop trajectory depends only on simulator + controller.
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

// Golden closed-loop trajectory of the MEA controller driving the
// simulator through the ScpManagedSystem adapter, pinned bit for bit.
TEST(ManagedSystem, MeaThroughAdapterMatchesGoldenTrajectory) {
  telecom::SimConfig cfg;
  cfg.duration = 3.0 * 86400.0;
  cfg.seed = 21;
  cfg.leak_mtbf = 43200.0;
  cfg.cascade_mtbf = 1e12;
  cfg.spike_mtbf = 1e12;

  telecom::ScpSimulator managed(cfg);
  runtime::ScpManagedSystem system(managed);
  core::MeaConfig mc;
  mc.warning_threshold = 0.72;
  mc.action_cooldown = 600.0;
  core::MeaController mea(system, mc);
  const auto idx = *managed.trace().schema().index("mem_pressure_max");
  mea.add_symptom_predictor(std::make_shared<PressurePredictor>(idx));
  mea.add_action(std::make_unique<act::StateCleanupAction>(0.70));
  mea.add_action(std::make_unique<act::PreventiveFailoverAction>());
  mea.add_action(std::make_unique<act::LoadLoweringAction>());
  mea.add_action(std::make_unique<act::PreparedRepairAction>(1800.0));
  mea.run();

  const auto& m = mea.stats();
  EXPECT_EQ(m.evaluations, 4320u);
  EXPECT_EQ(m.warnings, 13u);
  EXPECT_EQ(m.actions_by_kind[0], 13u);  // state cleanup
  EXPECT_EQ(m.actions_by_kind[1], 0u);
  EXPECT_EQ(m.actions_by_kind[2], 0u);
  EXPECT_EQ(m.actions_by_kind[3], 13u);  // prepared repair
  EXPECT_EQ(m.actions_by_kind[4], 0u);

  const auto& s = managed.stats();
  EXPECT_EQ(s.total_requests, 15542795);
  EXPECT_EQ(s.violations, 1364);
  EXPECT_EQ(s.failures, 1);
  EXPECT_DOUBLE_EQ(s.downtime, 96.0);
  EXPECT_EQ(s.shed_requests, 0);
  EXPECT_EQ(s.preventive_restarts, 13);
  EXPECT_EQ(s.prepared_repairs, 1);
  EXPECT_EQ(s.unprepared_repairs, 0);
  EXPECT_DOUBLE_EQ(s.simulated, 259200.0);

  // The adapter's aggregate view is the same data.
  const auto sys = system.system_stats();
  EXPECT_EQ(sys.total_requests, s.total_requests);
  EXPECT_EQ(sys.failures, s.failures);
  EXPECT_DOUBLE_EQ(sys.downtime, s.downtime);
  EXPECT_DOUBLE_EQ(sys.availability(), s.availability());
}

// The point of the seam: nothing under src/core may include a telecom
// (or runtime, or injection) header. Asserted through pfm-lint's
// layering rule, so the dependency policy in tools/pfm_lint/lint.cpp is
// the single source of truth — this test only pins that the rule still
// runs over a tree that actually contains src/core.
TEST(ManagedSystem, CoreStaysTelecomFreeViaLintLayeringRule) {
  pfm::lint::Options options;
  options.root = std::filesystem::path(PFM_SOURCE_DIR);
  options.rules = {"layering"};
  ASSERT_TRUE(std::filesystem::is_directory(options.root / "src" / "core"));
  const auto findings = pfm::lint::run(options);
  for (const auto& finding : findings) {
    ADD_FAILURE() << pfm::lint::format(finding);
  }
  EXPECT_TRUE(findings.empty());
}

TEST(ManagedSystem, AdapterDelegatesStateAndActions) {
  telecom::SimConfig cfg;
  cfg.seed = 7;
  cfg.duration = 7200.0;
  telecom::ScpSimulator sim(cfg);
  runtime::ScpManagedSystem system(sim);

  EXPECT_EQ(system.name(), "scp-7");
  EXPECT_DOUBLE_EQ(system.horizon(), 7200.0);
  EXPECT_EQ(system.num_units(), sim.num_nodes());
  EXPECT_FALSE(system.finished());

  system.step_to(3600.0);
  EXPECT_DOUBLE_EQ(system.now(), sim.now());
  for (std::size_t i = 0; i < system.num_units(); ++i) {
    const auto h = system.unit_health(i);
    EXPECT_EQ(h.available, sim.node(i).available(sim.now()));
    EXPECT_DOUBLE_EQ(h.memory_pressure, sim.node(i).memory_pressure());
    EXPECT_EQ(h.cascade_stage, sim.node(i).cascade_stage());
  }
  EXPECT_DOUBLE_EQ(system.offered_load(), sim.current_arrival_rate());
  EXPECT_DOUBLE_EQ(system.unit_capacity(), sim.config().node_capacity);

  // Actions route to the simulator: a preventive restart is recorded.
  system.restart_unit(0);
  EXPECT_EQ(sim.stats().preventive_restarts, 1);
  system.prepare_for_failure(600.0);
  system.checkpoint();
  system.shed_load(0.5, 60.0);

  system.step_to(7200.0);
  EXPECT_TRUE(system.finished());
}

TEST(ManagedSystem, MonitorViewsMatchTheTrace) {
  telecom::SimConfig cfg;
  cfg.seed = 11;
  cfg.duration = 3600.0;
  runtime::ScpManagedSystem system{cfg};  // owning constructor
  system.step_to(1800.0);

  const auto ctx = system.symptom_context(5);
  ASSERT_FALSE(ctx.history.empty());
  EXPECT_LE(ctx.history.size(), 5u);
  EXPECT_DOUBLE_EQ(ctx.history.back().time,
                   system.trace().samples().back().time);

  const auto seq = system.error_sequence(600.0);
  EXPECT_DOUBLE_EQ(seq.end_time, system.now());
  for (const auto& e : seq.events) {
    EXPECT_GE(e.time, system.now() - 600.0);
    EXPECT_LE(e.time, system.now());
  }
}

}  // namespace
}  // namespace pfm
