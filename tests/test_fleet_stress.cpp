// Seeded randomized stress: ~50 (FleetConfig, FaultPlan) pairs drawn from
// one fixed meta-seed stream, each run through a short hostile SCP fleet.
// Every run must uphold the runtime's invariants — the loop survives and
// completes, crashed nodes end up quarantined, cause-side injection stats
// and effect-side telemetry stay consistent, non-finite scores never
// escape sanitization, and the scratch arenas stop growing after
// warm-up. Failures print the iteration and derived seeds,
// so any counterexample replays deterministically.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "injection/injector.hpp"
#include "numerics/rng.hpp"
#include "prediction/baselines.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"
#include "telecom/simulator.hpp"

namespace pfm {
namespace {

constexpr std::size_t kIterations = 50;
constexpr std::size_t kNodes = 3;
constexpr double kDuration = 0.1 * 86400.0;

/// Oracle predictor over the newest pressure sample (see test_fleet).
class PressurePredictor final : public pred::SymptomPredictor {
 public:
  explicit PressurePredictor(std::size_t index) : index_(index) {}
  std::string name() const override { return "pressure"; }
  void train(const mon::MonitoringDataset&) override {}
  double score(const pred::SymptomContext& ctx) const override {
    return ctx.history.back().values.at(index_);
  }

 private:
  std::size_t index_;
};

/// A trend baseline trained once per process — exercises the arena-backed
/// regression scratch on every iteration.
std::shared_ptr<const pred::SymptomPredictor> shared_trend() {
  static const std::shared_ptr<const pred::SymptomPredictor> trend = [] {
    telecom::SimConfig cfg;
    cfg.seed = 5;
    cfg.duration = 4.0 * 86400.0;
    telecom::ScpSimulator sim(cfg);
    sim.run();
    auto p = std::make_shared<pred::TrendPredictor>(
        pred::WindowGeometry{600.0, 300.0, 300.0});
    p->train(sim.take_trace());
    return p;
  }();
  return trend;
}

struct Scenario {
  runtime::FleetConfig cfg;
  inj::FaultPlan plan;
  std::uint64_t sim_seed = 0;
  std::vector<std::size_t> crashed_nodes;  // crash_at < horizon
};

Scenario draw_scenario(num::Rng& meta) {
  Scenario s;
  s.sim_seed = static_cast<std::uint64_t>(meta.uniform_int(1, 1 << 20));

  const std::size_t thread_choices[] = {1, 2, 4, 8};
  s.cfg.num_threads =
      thread_choices[static_cast<std::size_t>(meta.uniform_int(0, 3))];
  // An unused draw: consuming it keeps the meta stream, and so the 50
  // seeded scenarios, unchanged.
  static_cast<void>(meta.bernoulli(0.75));
  s.cfg.mea.warning_threshold = meta.uniform(0.55, 0.80);
  s.cfg.mea.action_cooldown = 300.0 * meta.uniform_int(0, 2);
  // The former retry-attempt draw, kept for the same reason.
  static_cast<void>(meta.uniform_int(1, 3));

  s.plan.seed = static_cast<std::uint64_t>(meta.uniform_int(1, 1 << 20));
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (meta.bernoulli(0.3)) {
      s.plan.nodes[i].crash_at = meta.uniform(0.1, 0.8) * kDuration;
      s.crashed_nodes.push_back(i);
    } else if (meta.bernoulli(0.3)) {
      s.plan.nodes[i].hang_at = meta.uniform(0.1, 0.8) * kDuration;
      s.plan.nodes[i].hang_steps =
          static_cast<std::size_t>(meta.uniform_int(1, 6));
    }
  }
  s.plan.default_node.drop_sample_p = meta.uniform(0.0, 0.10);
  s.plan.default_node.corrupt_sample_p = meta.uniform(0.0, 0.05);
  s.plan.predictors[0].throw_p = meta.uniform(0.0, 0.05);
  s.plan.predictors[0].nan_p = meta.uniform(0.0, 0.10);
  s.plan.predictors[0].inf_p = meta.uniform(0.0, 0.02);
  s.plan.actions[0].fail_p = meta.uniform(0.0, 0.5);
  s.plan.actions[1].partial_p = meta.uniform(0.0, 0.2);
  return s;
}

struct Outcome {
  runtime::FleetTelemetry telemetry;
  inj::InjectionStats injected;
  std::vector<bool> quarantined;
  std::size_t grow_events_at_half = 0;
  std::size_t grow_events_at_end = 0;
  std::size_t scratch_bytes = 0;
};

Outcome run_scenario(const Scenario& s) {
  telecom::SimConfig sim;
  sim.seed = s.sim_seed;
  sim.duration = kDuration;
  sim.leak_mtbf = 21600.0;

  inj::FaultInjector injector(s.plan);
  auto nodes = runtime::make_scp_fleet(sim, kNodes);
  const auto idx = *nodes.front()->trace().schema().index("mem_pressure_max");

  runtime::FleetController fleet(injector.wrap_fleet(std::move(nodes)),
                                 s.cfg);
  fleet.add_symptom_predictor(injector.wrap_symptom_predictor(
      0, std::make_shared<PressurePredictor>(idx)));
  // Unwrapped: the bare trend baseline keeps one arena-backed scorer
  // free of injected faults in every iteration.
  fleet.add_symptom_predictor(shared_trend());
  fleet.add_action(injector.wrap_action_factory(0, [] {
    return std::make_unique<act::StateCleanupAction>(0.70);
  }));
  fleet.add_action(injector.wrap_action_factory(1, [] {
    return std::make_unique<act::PreparedRepairAction>(1800.0);
  }));

  Outcome out;
  // Warm-up covers the context window fill (20 rounds at 60 s), after
  // which the arena footprint must be stationary: batches only shrink
  // (quarantine, completion) and history depth is capped.
  fleet.run_until(kDuration / 2.0);
  out.grow_events_at_half = fleet.scratch_grow_events();
  fleet.run();
  out.grow_events_at_end = fleet.scratch_grow_events();
  out.scratch_bytes = fleet.scratch_capacity_bytes();
  out.telemetry = fleet.telemetry();
  out.injected = injector.stats();
  for (std::size_t i = 0; i < fleet.num_nodes(); ++i) {
    out.quarantined.push_back(fleet.node_quarantined(i));
  }
  return out;
}

void check_invariants(const Scenario& s, const Outcome& o) {
  const auto& t = o.telemetry;

  // The loop survived: rounds ran, accounting is coherent.
  EXPECT_GT(t.rounds, 0u);
  EXPECT_GE(t.system.simulated, 0.0);
  EXPECT_GE(t.system.downtime, 0.0);
  EXPECT_TRUE(std::isfinite(t.system.downtime));
  const double availability = t.system.availability();
  EXPECT_GE(availability, 0.0);
  EXPECT_LE(availability, 1.0);

  // Effect side vs cause side. A crashed node throws from every method,
  // so each scripted crash that fired must have ended in quarantine.
  std::size_t quarantined_count = 0;
  for (bool q : o.quarantined) quarantined_count += q ? 1u : 0u;
  EXPECT_EQ(quarantined_count, t.resilience.nodes_quarantined);
  for (std::size_t i : s.crashed_nodes) {
    EXPECT_TRUE(o.quarantined[i]) << "crashed node " << i
                                  << " not quarantined";
  }
  EXPECT_GE(t.resilience.nodes_quarantined, s.crashed_nodes.size());
  if (!s.crashed_nodes.empty()) {
    EXPECT_GE(o.injected.node_crashes, s.crashed_nodes.size());
    EXPECT_GE(t.resilience.node_faults, s.crashed_nodes.size());
  }

  // Sanitization: non-finite scores only ever come from injection (NaN /
  // inf scores, corrupted samples); a fault-free ensemble sanitizes
  // nothing.
  if (o.injected.predictor_nans == 0 && o.injected.samples_corrupted == 0) {
    EXPECT_EQ(t.resilience.scores_sanitized, 0u);
  }
  if (t.resilience.breaker_trips > 0) {
    EXPECT_GT(o.injected.predictor_throws + o.injected.predictor_nans +
                  o.injected.samples_corrupted,
              0u);
  }

  // Scratch arena: the footprint is stationary after warm-up.
  EXPECT_GT(o.scratch_bytes, 0u) << "arena path never engaged";
  EXPECT_GE(o.grow_events_at_half, 1u);
  EXPECT_EQ(o.grow_events_at_end, o.grow_events_at_half)
      << "scratch arena reallocated after warm-up";
}

TEST(FleetStress, SeededScenarioSweepUpholdsRuntimeInvariants) {
  num::Rng meta(20260805u);
  for (std::size_t iter = 0; iter < kIterations; ++iter) {
    const Scenario s = draw_scenario(meta);
    SCOPED_TRACE("iteration " + std::to_string(iter) + " sim_seed=" +
                 std::to_string(s.sim_seed) + " plan_seed=" +
                 std::to_string(s.plan.seed) + " threads=" +
                 std::to_string(s.cfg.num_threads));
    const Outcome o = run_scenario(s);
    check_invariants(s, o);

    // Every eighth scenario replays end to end: a fixed (config, plan)
    // pair must reproduce its telemetry exactly, whatever the draw.
    if (iter % 8 == 0) {
      const Outcome replay = run_scenario(s);
      EXPECT_EQ(o.telemetry.rounds, replay.telemetry.rounds);
      EXPECT_EQ(o.telemetry.scores_computed, replay.telemetry.scores_computed);
      EXPECT_EQ(o.telemetry.warnings_raised, replay.telemetry.warnings_raised);
      EXPECT_EQ(o.telemetry.resilience.scores_sanitized,
                replay.telemetry.resilience.scores_sanitized);
      EXPECT_EQ(o.telemetry.mea.total_actions(),
                replay.telemetry.mea.total_actions());
      EXPECT_EQ(o.telemetry.system.downtime, replay.telemetry.system.downtime);
      EXPECT_EQ(o.quarantined, replay.quarantined);
      EXPECT_EQ(o.injected.total(), replay.injected.total());
    }
  }
}

}  // namespace
}  // namespace pfm
