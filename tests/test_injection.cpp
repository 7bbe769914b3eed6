// Fault-injection subsystem: decorators must forward bit-identically
// under an empty plan, inject exactly the scripted faults under a nonzero
// plan, and keep injected fleet runs bit-identical for a fixed
// (seed, plan) at any thread count.

#include "injection/injector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"

namespace pfm {
namespace {

/// Oracle-style predictor (see test_fleet): newest worst-node memory
/// pressure, keeping trajectories independent of trained models.
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

/// Counts executions; optionally fails the first `fail_first` attempts.
class CountingAction final : public act::Action {
 public:
  explicit CountingAction(std::size_t* executions)
      : executions_(executions) {}
  std::string name() const override { return "counting"; }
  act::ActionKind kind() const override {
    return act::ActionKind::kPreparedRepair;
  }
  const act::ActionProperties& properties() const override { return props_; }
  bool applicable(const core::ManagedSystem&) const override { return true; }
  void execute(core::ManagedSystem& system, double) override {
    ++*executions_;
    system.checkpoint();
  }

 private:
  std::size_t* executions_;
  act::ActionProperties props_{0.5, 0.95, 1.0};
};

telecom::SimConfig sim_config() {
  telecom::SimConfig cfg;
  cfg.seed = 21;
  cfg.duration = 0.5 * 86400.0;
  cfg.leak_mtbf = 21600.0;
  cfg.cascade_mtbf = 1e12;
  cfg.spike_mtbf = 1e12;
  return cfg;
}

std::size_t pressure_index() {
  telecom::ScpSimulator sim(sim_config());
  return *sim.trace().schema().index("mem_pressure_max");
}

// --- decorator unit behavior ------------------------------------------------

TEST(Injection, EmptyPlanIsBitIdenticalToBareComponents) {
  auto bare = std::make_unique<runtime::ScpManagedSystem>(sim_config());
  inj::FaultInjector injector{inj::FaultPlan{}};
  auto wrapped = injector.wrap_node(
      0, std::make_unique<runtime::ScpManagedSystem>(sim_config()));

  for (double t = 600.0; t <= 43200.0; t += 600.0) {
    bare->step_to(t);
    wrapped->step_to(t);
  }
  EXPECT_EQ(bare->trace().samples().size(), wrapped->trace().samples().size());
  EXPECT_EQ(bare->trace().events().size(), wrapped->trace().events().size());
  const auto a = bare->system_stats();
  const auto b = wrapped->system_stats();
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_DOUBLE_EQ(a.downtime, b.downtime);
  EXPECT_EQ(injector.stats().total(), 0u);
}

TEST(Injection, NodeCrashesAtScriptedTimeAndStaysDead) {
  inj::FaultPlan plan;
  plan.nodes[0].crash_at = 3600.0;
  inj::FaultInjector injector(plan);
  auto node = injector.wrap_node(
      0, std::make_unique<runtime::ScpManagedSystem>(sim_config()));

  node->step_to(1800.0);  // before the crash: fine
  EXPECT_DOUBLE_EQ(node->now(), 1800.0);
  node->step_to(3600.0);  // reaches the crash instant
  EXPECT_THROW(node->step_to(4200.0), inj::NodeCrashError);
  EXPECT_THROW(node->step_to(4800.0), inj::NodeCrashError);  // stays dead
  EXPECT_THROW(node->checkpoint(), inj::NodeCrashError);
  EXPECT_THROW(node->restart_unit(0), inj::NodeCrashError);
  // Reads survive: the last known state stays observable.
  EXPECT_DOUBLE_EQ(node->now(), 3600.0);
  EXPECT_GT(node->system_stats().simulated, 0.0);
  EXPECT_EQ(injector.stats().node_crashes, 1u);
}

TEST(Injection, NodeHangsForScriptedStepsThenResumes) {
  inj::FaultPlan plan;
  plan.nodes[0].hang_at = 1200.0;
  plan.nodes[0].hang_steps = 2;
  inj::FaultInjector injector(plan);
  auto node = injector.wrap_node(
      0, std::make_unique<runtime::ScpManagedSystem>(sim_config()));

  node->step_to(600.0);
  EXPECT_DOUBLE_EQ(node->now(), 600.0);
  node->step_to(1200.0);
  node->step_to(1800.0);  // hung call 1
  EXPECT_DOUBLE_EQ(node->now(), 1200.0);
  node->step_to(1800.0);  // hung call 2
  EXPECT_DOUBLE_EQ(node->now(), 1200.0);
  node->step_to(1800.0);  // hang exhausted: progress resumes
  EXPECT_DOUBLE_EQ(node->now(), 1800.0);
  EXPECT_EQ(injector.stats().node_hangs, 2u);
}

TEST(Injection, DropsAndCorruptsMonitoredSamplesDeterministically) {
  inj::FaultPlan plan;
  plan.seed = 7;
  plan.nodes[0].drop_sample_p = 0.3;
  plan.nodes[0].corrupt_sample_p = 0.3;

  auto run_once = [&] {
    inj::FaultInjector injector(plan);
    auto node = injector.wrap_node(
        0, std::make_unique<runtime::ScpManagedSystem>(sim_config()));
    node->step_to(43200.0);
    return std::make_tuple(node->trace().samples().size(),
                           injector.stats().samples_dropped,
                           injector.stats().samples_corrupted);
  };

  const auto [kept, dropped, corrupted] = run_once();
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(corrupted, 0u);

  auto bare = std::make_unique<runtime::ScpManagedSystem>(sim_config());
  bare->step_to(43200.0);
  EXPECT_EQ(kept + dropped, bare->trace().samples().size());
  // Events and failures pass through unfiltered.
  // Same (seed, plan) => same faults, draw for draw.
  const auto [kept2, dropped2, corrupted2] = run_once();
  EXPECT_EQ(kept, kept2);
  EXPECT_EQ(dropped, dropped2);
  EXPECT_EQ(corrupted, corrupted2);
}

TEST(Injection, CorruptedSamplesBecomeNaN) {
  inj::FaultPlan plan;
  plan.nodes[0].corrupt_sample_p = 1.0;
  inj::FaultInjector injector(plan);
  auto node = injector.wrap_node(
      0, std::make_unique<runtime::ScpManagedSystem>(sim_config()));
  node->step_to(1800.0);
  const auto samples = node->trace().samples();
  ASSERT_FALSE(samples.empty());
  for (const auto& s : samples) {
    for (double v : s.values) EXPECT_TRUE(std::isnan(v));
  }
}

TEST(Injection, PredictorFaultsThrowOrDenormalizeScores) {
  const auto idx = pressure_index();
  auto inner = std::make_shared<PressurePredictor>(idx);

  inj::FaultPlan nan_plan;
  nan_plan.predictors[0].nan_p = 1.0;
  inj::FaultInjector nan_injector(nan_plan);
  auto nan_pred = nan_injector.wrap_symptom_predictor(0, inner);

  auto system = std::make_unique<runtime::ScpManagedSystem>(sim_config());
  system->step_to(1800.0);
  const auto ctx = system->symptom_context(20);
  EXPECT_TRUE(std::isnan(nan_pred->score(ctx)));
  EXPECT_EQ(nan_injector.stats().predictor_nans, 1u);

  inj::FaultPlan throw_plan;
  throw_plan.predictors[0].throw_p = 1.0;
  inj::FaultInjector throw_injector(throw_plan);
  auto throw_pred = throw_injector.wrap_symptom_predictor(0, inner);
  EXPECT_THROW(throw_pred->score(ctx), inj::PredictorFaultError);
  EXPECT_EQ(throw_injector.stats().predictor_throws, 1u);

  // Training through a wrapper is a wiring mistake.
  mon::MonitoringDataset empty;
  auto mutable_pred = std::make_shared<inj::FaultySymptomPredictor>(
      inner, 0, inj::FaultPlan{});
  EXPECT_THROW(mutable_pred->train(empty), std::logic_error);
}

TEST(Injection, ActionFailsOutrightOrAfterPartialCompletion) {
  auto system = std::make_unique<runtime::ScpManagedSystem>(sim_config());
  system->step_to(600.0);
  std::size_t executions = 0;

  inj::FaultPlan outright;
  outright.actions[0].fail_p = 1.0;
  inj::FaultInjector outright_injector(outright);
  auto factory = outright_injector.wrap_action_factory(
      0, [&] { return std::make_unique<CountingAction>(&executions); });
  auto action = factory();
  EXPECT_THROW(action->execute(*system, 0.9), inj::ActionFaultError);
  EXPECT_EQ(executions, 0u) << "outright failure must not touch the system";

  inj::FaultPlan partial;
  partial.actions[0].partial_p = 1.0;
  inj::FaultInjector partial_injector(partial);
  auto partial_factory = partial_injector.wrap_action_factory(
      0, [&] { return std::make_unique<CountingAction>(&executions); });
  auto partial_action = partial_factory();
  EXPECT_THROW(partial_action->execute(*system, 0.9), inj::ActionFaultError);
  EXPECT_EQ(executions, 1u) << "partial completion does the work, loses the ack";
  EXPECT_EQ(partial_injector.stats().action_failures, 1u);
}

// --- fleet-level determinism ------------------------------------------------

struct InjectedRun {
  runtime::FleetTelemetry telemetry;
  inj::InjectionStats injected;
  std::vector<core::SystemStats> per_node;
  std::vector<bool> quarantined;
};

/// A deliberately hostile scenario: one crash, one hang, NaN-prone and
/// throwing predictors, flaky actions, dropped samples everywhere.
inj::FaultPlan hostile_plan() {
  inj::FaultPlan plan;
  plan.seed = 1234;
  plan.nodes[1].crash_at = 10800.0;
  plan.nodes[2].hang_at = 7200.0;
  plan.nodes[2].hang_steps = 8;  // long enough to trip the stall detector
  plan.default_node.drop_sample_p = 0.05;
  plan.predictors[0].nan_p = 0.02;
  plan.predictors[1].throw_p = 0.01;
  plan.actions[0].fail_p = 0.3;
  plan.actions[0].partial_p = 0.2;
  return plan;
}

InjectedRun run_injected_fleet(std::size_t num_threads) {
  const std::size_t kNodes = 8;
  const auto idx = pressure_index();

  inj::FaultInjector injector(hostile_plan());
  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.72;
  cfg.mea.action_cooldown = 600.0;
  cfg.num_threads = num_threads;

  runtime::FleetController fleet(
      injector.wrap_fleet(runtime::make_scp_fleet(sim_config(), kNodes)), cfg);
  fleet.add_symptom_predictor(injector.wrap_symptom_predictor(
      0, std::make_shared<PressurePredictor>(idx)));
  fleet.add_symptom_predictor(injector.wrap_symptom_predictor(
      1, std::make_shared<PressurePredictor>(idx)));
  fleet.add_action(injector.wrap_action_factory(0, [] {
    return std::make_unique<act::StateCleanupAction>(0.70);
  }));
  fleet.add_action(injector.wrap_action_factory(1, [] {
    return std::make_unique<act::PreparedRepairAction>(1800.0);
  }));

  fleet.run();  // must not throw, whatever the plan does

  InjectedRun out;
  out.telemetry = fleet.telemetry();
  out.injected = injector.stats();
  for (std::size_t i = 0; i < kNodes; ++i) {
    out.per_node.push_back(fleet.node(i).system_stats());
    out.quarantined.push_back(fleet.node_quarantined(i));
  }
  return out;
}

TEST(Injection, HostilePlanCompletesAndIsBitIdenticalAcrossThreadCounts) {
  const auto t1 = run_injected_fleet(1);
  const auto t2 = run_injected_fleet(2);
  const auto t8 = run_injected_fleet(8);

  // The run actually exercised the fault paths.
  EXPECT_GT(t1.injected.total(), 0u);
  EXPECT_EQ(t1.injected.node_crashes, 1u);
  EXPECT_GT(t1.injected.node_hangs, 0u);
  EXPECT_GT(t1.injected.samples_dropped, 0u);
  EXPECT_GE(t1.telemetry.resilience.nodes_quarantined, 2u)
      << "crashed + stalled nodes must both be quarantined";
  EXPECT_LT(t1.telemetry.resilience.nodes_quarantined, 8u)
      << "the rest of the fleet must keep running";

  for (const auto* other : {&t2, &t8}) {
    EXPECT_EQ(t1.telemetry.rounds, other->telemetry.rounds);
    EXPECT_EQ(t1.telemetry.scores_computed, other->telemetry.scores_computed);
    EXPECT_EQ(t1.telemetry.warnings_raised, other->telemetry.warnings_raised);
    EXPECT_EQ(t1.telemetry.resilience.node_faults,
              other->telemetry.resilience.node_faults);
    EXPECT_EQ(t1.telemetry.resilience.nodes_quarantined,
              other->telemetry.resilience.nodes_quarantined);
    EXPECT_EQ(t1.telemetry.resilience.stall_detections,
              other->telemetry.resilience.stall_detections);
    EXPECT_EQ(t1.telemetry.resilience.predictor_faults,
              other->telemetry.resilience.predictor_faults);
    EXPECT_EQ(t1.telemetry.resilience.breaker_trips,
              other->telemetry.resilience.breaker_trips);
    EXPECT_EQ(t1.telemetry.resilience.scores_sanitized,
              other->telemetry.resilience.scores_sanitized);
    EXPECT_EQ(t1.telemetry.mea.action_retries,
              other->telemetry.mea.action_retries);
    EXPECT_EQ(t1.telemetry.mea.action_faults,
              other->telemetry.mea.action_faults);
    EXPECT_EQ(t1.telemetry.mea.actions_abandoned,
              other->telemetry.mea.actions_abandoned);
    EXPECT_EQ(t1.injected.total(), other->injected.total());
    EXPECT_EQ(t1.injected.samples_dropped, other->injected.samples_dropped);
    EXPECT_EQ(t1.injected.predictor_nans, other->injected.predictor_nans);
    EXPECT_EQ(t1.injected.action_failures, other->injected.action_failures);
    for (std::size_t i = 0; i < t1.per_node.size(); ++i) {
      EXPECT_EQ(t1.quarantined[i], other->quarantined[i]) << "node " << i;
      EXPECT_EQ(t1.per_node[i].total_requests,
                other->per_node[i].total_requests)
          << "node " << i;
      EXPECT_DOUBLE_EQ(t1.per_node[i].downtime, other->per_node[i].downtime)
          << "node " << i;
      EXPECT_DOUBLE_EQ(t1.per_node[i].simulated, other->per_node[i].simulated)
          << "node " << i;
    }
  }
}

}  // namespace
}  // namespace pfm
