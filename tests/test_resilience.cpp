// Hardened runtime semantics: quarantine keeps the fleet running, the
// per-predictor circuit breaker trips and half-opens, failed actions
// follow the bounded-retry/exponential-backoff schedule, and non-finite
// scores never reach the warning decision.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/mea.hpp"
#include "injection/injector.hpp"
#include "membership/membership_plan.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"

namespace pfm {
namespace {

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

/// Returns a fixed (possibly non-finite) value and counts scored calls —
/// the probe-visibility hook for the breaker tests.
class ScriptedPredictor final : public pred::SymptomPredictor {
 public:
  /// Emits `bad` for the first `faulty_calls` score_batch calls, then
  /// `good` forever.
  ScriptedPredictor(double bad, double good, std::size_t faulty_calls)
      : bad_(bad), good_(good), faulty_calls_(faulty_calls) {}
  std::string name() const override { return "scripted"; }
  void train(const mon::MonitoringDataset&) override {}
  double score(const pred::SymptomContext&) const override {
    return calls_ <= faulty_calls_ ? bad_ : good_;
  }
  using pred::SymptomPredictor::score_batch;
  void score_batch(std::span<const pred::SymptomContext> contexts,
                   std::span<double> out,
                   pred::BatchScratch&) const override {
    ++calls_;
    const double v = calls_ <= faulty_calls_ ? bad_ : good_;
    for (std::size_t i = 0; i < contexts.size(); ++i) out[i] = v;
  }
  std::size_t calls() const noexcept { return calls_; }

 private:
  double bad_;
  double good_;
  std::size_t faulty_calls_;
  mutable std::size_t calls_ = 0;
};

/// Fails the first `failures` execute attempts, then succeeds.
class FlakyAction final : public act::Action {
 public:
  explicit FlakyAction(std::size_t failures) : failures_left_(failures) {}
  std::string name() const override { return "flaky"; }
  act::ActionKind kind() const override {
    return act::ActionKind::kPreparedRepair;
  }
  const act::ActionProperties& properties() const override { return props_; }
  bool applicable(const core::ManagedSystem&) const override { return true; }
  void execute(core::ManagedSystem& system, double) override {
    ++attempts_;
    if (failures_left_ > 0) {
      --failures_left_;
      throw std::runtime_error("flaky actuator");
    }
    system.checkpoint();
    ++successes_;
  }
  std::size_t attempts() const noexcept { return attempts_; }
  std::size_t successes() const noexcept { return successes_; }

 private:
  std::size_t failures_left_;
  std::size_t attempts_ = 0;
  std::size_t successes_ = 0;
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

// --- quarantine -------------------------------------------------------------

TEST(Resilience, QuarantineKeepsTheFleetRunning) {
  const std::size_t kNodes = 4;
  inj::FaultPlan plan;
  plan.nodes[1].crash_at = 3600.0;
  inj::FaultInjector injector(plan);

  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.72;
  cfg.num_threads = 2;
  runtime::FleetController fleet(
      injector.wrap_fleet(runtime::make_scp_fleet(sim_config(), kNodes)), cfg);
  fleet.add_symptom_predictor(
      std::make_shared<PressurePredictor>(pressure_index()));
  fleet.add_action([] {
    return std::make_unique<act::StateCleanupAction>(0.70);
  });

  EXPECT_NO_THROW(fleet.run());

  EXPECT_TRUE(fleet.node_quarantined(1));
  EXPECT_NE(fleet.node_quarantine_reason(1).find("crashed"),
            std::string::npos);
  for (std::size_t i : {0u, 2u, 3u}) {
    EXPECT_FALSE(fleet.node_quarantined(i)) << "node " << i;
    EXPECT_DOUBLE_EQ(fleet.node(i).system_stats().simulated,
                     sim_config().duration)
        << "healthy node " << i << " must run to its horizon";
  }
  const auto t = fleet.telemetry();
  EXPECT_EQ(t.resilience.nodes_quarantined, 1u);
  EXPECT_GE(t.resilience.node_faults, 1u);
  // The dead node stops accumulating coverage at its crash instant.
  EXPECT_LT(fleet.node(1).system_stats().simulated, sim_config().duration);
}

/// Churn-vs-fault composition: a node the FaultPlan crashes (and the
/// runtime quarantines) is later restarted by the MembershipPlan. The
/// fresh incarnation must NOT resurrect the dead incarnation's state —
/// no stale quarantine record, a clean reason, and real forward
/// progress — while the fleet's cumulative accounting keeps the old
/// incarnation's history.
TEST(Resilience, MembershipRestartClearsQuarantineInsteadOfResurrectingIt) {
  const std::size_t kNodes = 4;
  inj::FaultPlan plan;
  plan.nodes[1].crash_at = 3600.0;
  inj::FaultInjector injector(plan);

  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.72;
  cfg.membership.plan.restart_node(7200.0, 1);
  // The replacement incarnation is NOT fault-wrapped: having crashed
  // once is a property of the dead incarnation, not of the slot.
  cfg.membership.factory = [](const membership::JoinContext& ctx) {
    telecom::SimConfig joiner = sim_config();
    joiner.seed = ctx.seed;
    return std::make_unique<runtime::ScpManagedSystem>(joiner);
  };
  runtime::FleetController fleet(
      injector.wrap_fleet(runtime::make_scp_fleet(sim_config(), kNodes)), cfg);
  fleet.add_symptom_predictor(
      std::make_shared<PressurePredictor>(pressure_index()));
  fleet.add_action([] {
    return std::make_unique<act::StateCleanupAction>(0.70);
  });

  EXPECT_NO_THROW(fleet.run());

  // The crash really happened before the restart...
  const auto t = fleet.telemetry();
  EXPECT_GE(t.resilience.node_faults, 1u);
  EXPECT_EQ(t.membership.nodes_left, 1u);
  EXPECT_EQ(t.membership.nodes_joined, 1u);
  // ...yet no stale quarantine survives the restart.
  EXPECT_FALSE(fleet.node_quarantined(1));
  EXPECT_TRUE(fleet.node_quarantine_reason(1).empty());
  EXPECT_EQ(t.resilience.nodes_quarantined, 0u);
  EXPECT_EQ(fleet.node_incarnation(1), 1u);
  EXPECT_FALSE(fleet.node_departed(1));
  // The fresh incarnation starts over on its own clock and — unlike its
  // crashed predecessor — runs all the way to its horizon.
  EXPECT_DOUBLE_EQ(fleet.node(1).system_stats().simulated,
                   sim_config().duration);
  // Fleet totals stay cumulative across incarnations: four nodes at
  // full coverage PLUS the crashed incarnation's partial history.
  EXPECT_GT(t.system.simulated, 4.0 * sim_config().duration);
}

/// The flip side: a restarted slot is re-armed, not immunized. If the
/// replacement is fault-wrapped under the same crash spec, the fresh
/// incarnation crashes on its own clock and is quarantined again — with
/// its own fresh decision stream, not a replay of the first crash.
TEST(Resilience, RestartedNodeCanBeQuarantinedAgainByItsOwnFaults) {
  inj::FaultPlan plan;
  plan.nodes[1].crash_at = 3600.0;
  inj::FaultInjector injector(plan);

  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.72;
  cfg.membership.plan.restart_node(7200.0, 1);
  cfg.membership.factory = [&injector](const membership::JoinContext& ctx) {
    telecom::SimConfig joiner = sim_config();
    joiner.seed = ctx.seed;
    return injector.wrap_node(
        ctx.node, std::make_unique<runtime::ScpManagedSystem>(joiner));
  };
  runtime::FleetController fleet(
      injector.wrap_fleet(runtime::make_scp_fleet(sim_config(), 4)), cfg);
  fleet.add_symptom_predictor(
      std::make_shared<PressurePredictor>(pressure_index()));

  EXPECT_NO_THROW(fleet.run());

  EXPECT_TRUE(fleet.node_quarantined(1));
  EXPECT_NE(fleet.node_quarantine_reason(1).find("crashed"),
            std::string::npos);
  EXPECT_EQ(fleet.node_incarnation(1), 1u);
  const auto t = fleet.telemetry();
  EXPECT_EQ(t.resilience.nodes_quarantined, 1u);
  EXPECT_GE(t.resilience.node_faults, 2u) << "both incarnations crashed";
}

TEST(Resilience, FaultFreeRunEngagesNoHardening) {
  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.72;
  cfg.mea.action_cooldown = 600.0;
  cfg.num_threads = 2;
  runtime::FleetController fleet(runtime::make_scp_fleet(sim_config(), 4),
                                 cfg);
  fleet.add_symptom_predictor(
      std::make_shared<PressurePredictor>(pressure_index()));
  fleet.add_action([] {
    return std::make_unique<act::StateCleanupAction>(0.70);
  });
  fleet.run();

  const auto t = fleet.telemetry();
  EXPECT_GT(t.mea.total_actions(), 0u) << "the loop acted";
  // Hardening engaged nothing.
  EXPECT_EQ(t.resilience.node_faults, 0u);
  EXPECT_EQ(t.resilience.predictor_faults, 0u);
  EXPECT_EQ(t.resilience.scores_sanitized, 0u);
  EXPECT_EQ(t.resilience.breaker_trips, 0u);
  EXPECT_EQ(t.mea.action_faults, 0u);
}

// --- circuit breaker --------------------------------------------------------

TEST(Resilience, BreakerTripsSitsOutAndHalfOpensBackToHealthy) {
  // Scripted: the flaky predictor emits NaN for its first 3 scored calls,
  // then behaves. A breaker trips after 3 faulty ticks and sits out 8:
  //   rounds 1-2   faulty, breaker still closed
  //   round  3     faulty -> breaker opens (trip #1)
  //   rounds 4-11  sits out (no scored calls)
  //   round  12    half-open probe -> healthy -> breaker closes
  //   round  13+   scored normally
  const double interval = 60.0;
  runtime::FleetConfig cfg;
  cfg.mea.evaluation_interval = interval;
  cfg.mea.warning_threshold = 0.72;

  auto scripted = std::make_shared<ScriptedPredictor>(
      std::numeric_limits<double>::quiet_NaN(), 0.0, 3);
  runtime::FleetController fleet(runtime::make_scp_fleet(sim_config(), 2),
                                 cfg);
  fleet.add_symptom_predictor(scripted);
  fleet.add_symptom_predictor(
      std::make_shared<PressurePredictor>(pressure_index()));

  auto run_rounds = [&](std::size_t rounds) {
    fleet.run_until(fleet.telemetry().rounds * interval + rounds * interval);
  };

  run_rounds(2);
  EXPECT_EQ(scripted->calls(), 2u);
  EXPECT_FALSE(fleet.predictor_tripped(0)) << "2 faulty rounds do not trip";
  EXPECT_EQ(fleet.telemetry().resilience.breaker_trips, 0u);

  run_rounds(1);
  EXPECT_EQ(scripted->calls(), 3u);
  EXPECT_TRUE(fleet.predictor_tripped(0));
  EXPECT_FALSE(fleet.predictor_tripped(1)) << "healthy predictor unaffected";
  EXPECT_EQ(fleet.telemetry().resilience.breaker_trips, 1u);

  run_rounds(8);  // cooldown: the tripped predictor is not scored at all
  EXPECT_EQ(scripted->calls(), 3u);
  EXPECT_TRUE(fleet.predictor_tripped(0));
  EXPECT_EQ(fleet.telemetry().resilience.breakers_open, 1u);

  run_rounds(1);  // half-open probe; the predictor is healthy again
  EXPECT_EQ(scripted->calls(), 4u);
  EXPECT_FALSE(fleet.predictor_tripped(0));

  run_rounds(2);  // closed: scored every round again
  EXPECT_EQ(scripted->calls(), 6u);
  EXPECT_EQ(fleet.telemetry().resilience.breaker_trips, 1u);
  EXPECT_EQ(fleet.telemetry().resilience.breakers_open, 0u);
}

TEST(Resilience, FailedProbeReopensTheBreaker) {
  const double interval = 60.0;
  runtime::FleetConfig cfg;
  cfg.mea.evaluation_interval = interval;

  // Faulty for its first 4 scored calls: calls 1-3 trip it, the probe
  // (call 4) fails and re-opens it, the next probe (call 5) heals it.
  auto scripted = std::make_shared<ScriptedPredictor>(
      std::numeric_limits<double>::quiet_NaN(), 0.0, 4);
  runtime::FleetController fleet(runtime::make_scp_fleet(sim_config(), 1),
                                 cfg);
  fleet.add_symptom_predictor(scripted);

  auto run_rounds = [&](std::size_t rounds) {
    fleet.run_until(fleet.telemetry().rounds * interval + rounds * interval);
  };

  run_rounds(2);
  EXPECT_FALSE(fleet.predictor_tripped(0)) << "2 faulty rounds do not trip";
  run_rounds(1);  // trip #1
  EXPECT_TRUE(fleet.predictor_tripped(0));
  EXPECT_EQ(fleet.telemetry().resilience.breaker_trips, 1u);
  run_rounds(8);  // sit out
  EXPECT_EQ(scripted->calls(), 3u);
  run_rounds(1);  // probe fails -> re-open (trip #2)
  EXPECT_EQ(scripted->calls(), 4u);
  EXPECT_TRUE(fleet.predictor_tripped(0));
  EXPECT_EQ(fleet.telemetry().resilience.breaker_trips, 2u);
  run_rounds(8);  // sit out again
  EXPECT_EQ(scripted->calls(), 4u);
  run_rounds(1);  // probe succeeds -> closed
  EXPECT_EQ(scripted->calls(), 5u);
  EXPECT_FALSE(fleet.predictor_tripped(0));
}

// --- action retry / backoff -------------------------------------------------

TEST(Resilience, ActionRetriesFollowTheBoundedSchedule) {
  runtime::ScpManagedSystem system{sim_config()};
  system.step_to(600.0);

  core::MeaConfig cfg;
  cfg.action_cooldown = 0.0;

  // Fails twice, then succeeds on the third and last try: one
  // execution, two retries, no abandon.
  auto flaky = std::make_unique<FlakyAction>(2);
  auto* flaky_ptr = flaky.get();
  core::ActEngine engine;
  engine.add_action(std::move(flaky));
  core::MeaStats stats;
  engine.act(system, 0.9, cfg, stats);
  EXPECT_EQ(flaky_ptr->attempts(), 3u);
  EXPECT_EQ(flaky_ptr->successes(), 1u);
  EXPECT_EQ(stats.action_faults, 2u);
  EXPECT_EQ(stats.action_retries, 2u);
  EXPECT_EQ(stats.actions_abandoned, 0u);
  EXPECT_EQ(stats.actions_by_kind[static_cast<std::size_t>(
                act::ActionKind::kPreparedRepair)],
            1u);
  // Success leaves no backoff behind.
  EXPECT_LT(engine.backoff_until(act::ActionKind::kPreparedRepair), 0.0);
}

TEST(Resilience, AbandonedActionsBackOffExponentially) {
  runtime::ScpManagedSystem system{sim_config()};
  system.step_to(600.0);

  core::MeaConfig cfg;
  cfg.action_cooldown = 0.0;

  auto always_failing = std::make_unique<FlakyAction>(1000000);
  auto* action = always_failing.get();
  core::ActEngine engine;
  engine.add_action(std::move(always_failing));
  core::MeaStats stats;
  const auto backoff_until = [&] {
    return engine.backoff_until(act::ActionKind::kPreparedRepair);
  };

  // Abandon #1 at t=600 after 3 tries: backed off 120 * 2^0.
  engine.act(system, 0.9, cfg, stats);
  EXPECT_EQ(action->attempts(), 3u);
  EXPECT_EQ(stats.actions_abandoned, 1u);
  EXPECT_DOUBLE_EQ(backoff_until(), 720.0);

  // Still backed off: no further attempts.
  engine.act(system, 0.9, cfg, stats);
  EXPECT_EQ(action->attempts(), 3u);

  // Each further abandon doubles the backoff: 240, 480, 960, 1920, then
  // 3840 is capped at 3600.
  const double abandon_at[] = {800.0, 1100.0, 1600.0, 2600.0, 4600.0};
  const double expected_until[] = {1040.0, 1580.0, 2560.0, 4520.0, 8200.0};
  for (std::size_t n = 0; n < 5; ++n) {
    system.step_to(abandon_at[n]);
    engine.act(system, 0.9, cfg, stats);
    EXPECT_EQ(action->attempts(), 3u * (n + 2)) << "abandon #" << n + 2;
    EXPECT_DOUBLE_EQ(backoff_until(), expected_until[n])
        << "abandon #" << n + 2;
  }
  EXPECT_EQ(stats.actions_abandoned, 6u);
  EXPECT_EQ(stats.action_retries, 12u);
  EXPECT_EQ(stats.action_faults, 18u);
}

// --- NaN / inf sanitization -------------------------------------------------

TEST(Resilience, EvaluateNowExcludesNonFiniteScores) {
  runtime::ScpManagedSystem system{sim_config()};
  core::MeaConfig cfg;
  cfg.warning_threshold = 0.72;
  core::MeaController mea(system, cfg);
  mea.add_symptom_predictor(std::make_shared<ScriptedPredictor>(
      std::numeric_limits<double>::quiet_NaN(), 0.0, 1000000));
  mea.add_symptom_predictor(std::make_shared<ScriptedPredictor>(
      std::numeric_limits<double>::infinity(), 0.0, 1000000));
  mea.add_symptom_predictor(
      std::make_shared<PressurePredictor>(pressure_index()));

  system.step_to(1800.0);
  std::size_t sanitized = 0;
  const double combined = mea.evaluate_now(&sanitized);
  EXPECT_TRUE(std::isfinite(combined));
  EXPECT_EQ(sanitized, 2u) << "one NaN + one inf excluded";
  EXPECT_LT(combined, 1.01) << "+inf must not leak into the reduce";
}

TEST(Resilience, InfScoresDoNotForceFleetWarnings) {
  // An always-inf predictor would warn on every round if +inf survived
  // the reduce; sanitized, it contributes nothing (and eventually trips).
  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.72;
  runtime::FleetController fleet(runtime::make_scp_fleet(sim_config(), 2),
                                 cfg);
  fleet.add_symptom_predictor(std::make_shared<ScriptedPredictor>(
      std::numeric_limits<double>::infinity(), 0.0, 1000000));
  fleet.run_until(3600.0);

  const auto t = fleet.telemetry();
  EXPECT_EQ(t.warnings_raised, 0u);
  EXPECT_GT(t.resilience.scores_sanitized, 0u);
  EXPECT_GE(t.resilience.breaker_trips, 1u)
      << "a predictor that is always non-finite must trip its breaker";
}

}  // namespace
}  // namespace pfm
