// Elastic fleet membership (DESIGN.md §9):
//  - MembershipPlan builders, burst expansion and validation;
//  - derive_member_seed stream discipline;
//  - inactive configs are byte-identical to a membership-free build;
//  - (seed, membership plan, fault plan) replays bit-identically across
//    thread counts and repeated runs, per shard count, under hostile
//    churn + faults;
//  - survivors of a churned run match an uninterrupted reference
//    bit-for-bit (their records change shards in an online reshard);
//  - lockstep and event-driven schedulers agree under churn (dense,
//    one shard, epoch_ticks 1);
//  - per-shard membership counters sum to the fleet totals;
//  - injected-fault counts of restarted incarnations survive them;
//  - the prediction-driven scaling loop: preventive scale-up and
//    drain-and-failover, with cooldown and join caps;
//  - config and mid-run target validation;
//  - mutated plans and policies are rejected with a typed error or run
//    to completion with thread-count invariant results.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "injection/injector.hpp"
#include "membership/membership_plan.hpp"
#include "obs/export.hpp"
#include "obs/observability.hpp"
#include "prediction/baselines.hpp"
#include "property.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"
#include "telecom/simulator.hpp"

namespace pfm {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// --- plan vocabulary ---------------------------------------------------------

TEST(MembershipPlan, BuildersExpandBurstsInDeclarationOrder) {
  membership::MembershipPlan plan;
  plan.scale_out(100.0, 3, 10.0)
      .rolling_restart(200.0, 2, 3, 50.0)
      .zone_loss(50.0, 0, 2)
      .drain_node(150.0, 5)
      .node_leave(150.0, 6)
      .restart_node(400.0, 1);
  plan.validate();
  const auto changes = plan.resolve();
  ASSERT_EQ(changes.size(), 11u);

  // Stable-sorted by at_time; ties keep declaration order.
  for (std::size_t i = 1; i < changes.size(); ++i) {
    EXPECT_LE(changes[i - 1].at_time, changes[i].at_time);
  }
  using membership::ChurnKind;
  EXPECT_EQ(changes[0].kind, ChurnKind::kLeave);  // zone loss node 0 @50
  EXPECT_EQ(changes[0].node, 0u);
  EXPECT_EQ(changes[1].kind, ChurnKind::kLeave);  // zone loss node 1 @50
  EXPECT_EQ(changes[1].node, 1u);
  EXPECT_EQ(changes[2].kind, ChurnKind::kJoin);   // burst @100, 110, 120
  EXPECT_EQ(bits(changes[3].at_time), bits(110.0));
  EXPECT_EQ(bits(changes[4].at_time), bits(120.0));
  EXPECT_EQ(changes[5].kind, ChurnKind::kDrain);  // drain before leave @150
  EXPECT_EQ(changes[5].node, 5u);
  EXPECT_EQ(changes[6].kind, ChurnKind::kLeave);
  EXPECT_EQ(changes[6].node, 6u);
  // Rolling restart walks consecutive slots with the stagger.
  EXPECT_EQ(changes[7].kind, ChurnKind::kRestart);
  EXPECT_EQ(changes[7].node, 2u);
  EXPECT_EQ(changes[8].node, 3u);
  EXPECT_EQ(bits(changes[8].at_time), bits(250.0));
  EXPECT_EQ(changes[9].node, 4u);
  EXPECT_EQ(bits(changes[9].at_time), bits(300.0));
  EXPECT_EQ(changes[10].kind, ChurnKind::kRestart);  // singleton @400
  EXPECT_EQ(changes[10].node, 1u);

  // Resolving twice yields the same sequence (pure function of the plan).
  const auto again = plan.resolve();
  ASSERT_EQ(again.size(), changes.size());
  for (std::size_t i = 0; i < changes.size(); ++i) {
    EXPECT_EQ(bits(again[i].at_time), bits(changes[i].at_time));
    EXPECT_EQ(again[i].kind, changes[i].kind);
    EXPECT_EQ(again[i].node, changes[i].node);
    EXPECT_EQ(again[i].source, changes[i].source);
  }
}

TEST(MembershipPlan, ValidateRejectsBadEventsAndPolicies) {
  {
    membership::MembershipPlan plan;
    plan.node_leave(-1.0, 0);
    EXPECT_THROW(plan.validate(), std::invalid_argument);
  }
  {
    membership::MembershipPlan plan;
    plan.scale_out(100.0, 1, -5.0);
    EXPECT_THROW(plan.validate(), std::invalid_argument);
  }
  {
    membership::MembershipPlan plan;
    membership::ChurnEvent ev;
    ev.count = 0;
    plan.events.push_back(ev);
    EXPECT_THROW(plan.validate(), std::invalid_argument);
  }
  {
    membership::ElasticityPolicy policy;
    policy.enabled = true;
    policy.scale_up_mass = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(policy.validate(), std::invalid_argument);
  }
  {
    membership::ElasticityPolicy policy;
    policy.enabled = true;
    policy.scale_up_mass = 1.0;
    policy.scale_up_nodes = 0;
    EXPECT_THROW(policy.validate(), std::invalid_argument);
  }
  EXPECT_STREQ(membership::to_string(membership::ChurnKind::kJoin), "join");
  EXPECT_STREQ(membership::to_string(membership::ChurnKind::kLeave), "leave");
  EXPECT_STREQ(membership::to_string(membership::ChurnKind::kDrain), "drain");
  EXPECT_STREQ(membership::to_string(membership::ChurnKind::kRestart),
               "restart");
}

TEST(MembershipPlan, DerivedSeedsAreDeterministicAndWellSpread) {
  const std::uint64_t a = membership::derive_member_seed(42, 3, 0);
  EXPECT_EQ(a, membership::derive_member_seed(42, 3, 0));
  EXPECT_NE(a, membership::derive_member_seed(42, 4, 0));
  EXPECT_NE(a, membership::derive_member_seed(42, 3, 1));
  EXPECT_NE(a, membership::derive_member_seed(43, 3, 0));
  EXPECT_NE(a, 42u);
  // Incarnations of the same slot get distinct streams.
  EXPECT_NE(membership::derive_member_seed(42, 3, 1),
            membership::derive_member_seed(42, 3, 2));
}

// --- fleet harness -----------------------------------------------------------

constexpr double kDuration = 0.25 * 86400.0;

pred::WindowGeometry geometry() { return {600.0, 300.0, 300.0}; }

struct Ensemble {
  std::shared_ptr<const pred::SymptomPredictor> trend;
  std::shared_ptr<const pred::EventPredictor> eventset;
};

const Ensemble& ensemble() {
  static const Ensemble shared = [] {
    telecom::SimConfig cfg;
    cfg.seed = 5;
    cfg.duration = 2.0 * 86400.0;
    telecom::ScpSimulator sim(cfg);
    sim.run();
    const auto trace = sim.take_trace();
    const auto g = geometry();

    auto trend = std::make_shared<pred::TrendPredictor>(g);
    trend->train(trace);
    auto eventset = std::make_shared<pred::EventsetPredictor>();
    eventset->train(trace.failure_sequences(g.data_window, g.lead_time),
                    trace.nonfailure_sequences(g.data_window, g.lead_time,
                                               g.prediction_window, 300.0));
    Ensemble out;
    out.trend = std::move(trend);
    out.eventset = std::move(eventset);
    return out;
  }();
  return shared;
}

inj::FaultPlan hostile_plan() {
  inj::FaultPlan plan;
  plan.seed = 77;
  plan.nodes[1].crash_at = 10000.0;
  plan.nodes[2].hang_at = 6000.0;
  plan.nodes[2].hang_steps = 5;
  plan.default_node.drop_sample_p = 0.03;
  plan.default_node.corrupt_sample_p = 0.02;
  plan.predictors[0].nan_p = 0.05;
  plan.predictors[0].throw_p = 0.02;
  plan.actions[0].fail_p = 0.3;
  return plan;
}

/// A hostile churn storm layered on the hostile fault plan: a scale-out
/// burst, zone loss, a graceful drain, the restart of a node the fault
/// plan crashes at t=10000, and a staggered rolling restart.
membership::MembershipPlan churn_storm() {
  membership::MembershipPlan plan;
  plan.seed = 2026;
  plan.scale_out(3000.0, 2, 120.0)
      .node_leave(5000.0, 4)
      .drain_node(8000.0, 3)
      .restart_node(12000.0, 1)
      .rolling_restart(15000.0, 6, 3, 300.0);
  return plan;
}

/// Everything observable about one fleet run except wall time.
struct Artifacts {
  std::string prometheus;
  std::string trace_json;
  std::string json_line;
  std::uint64_t dropped = 0;
  std::size_t num_slots = 0;
  std::size_t live_nodes = 0;
  membership::MembershipStats membership;
  std::vector<std::uint64_t> node_evals;
  std::vector<std::uint64_t> node_warnings;
  std::vector<bool> node_quarantined;
  std::vector<bool> node_departed;
  std::vector<std::size_t> node_incarnation;
  /// The deterministic telemetry() fields (latency is wall time).
  std::vector<std::uint64_t> totals;
};

struct RunSpec {
  std::size_t nodes = 6;
  std::size_t threads = 1;
  runtime::FleetScheduler scheduler = runtime::FleetScheduler::kEventDriven;
  std::size_t num_shards = 1;
  std::size_t epoch_ticks = 1;
  bool adaptive = false;
  bool hostile = false;
  double duration = kDuration;
  /// No leaks and few error events, so an adaptive schedule backs off.
  bool quiet = false;
  double hot_score_fraction = 0.5;
  membership::MembershipPlan plan;
  membership::ElasticityPolicy policy;
};

Artifacts run_fleet(const RunSpec& spec) {
  obs::ObservabilityConfig ocfg;
  ocfg.shards = spec.threads;
  ocfg.trace_capacity = 1 << 16;
  obs::Observability hub(ocfg);

  telecom::SimConfig sim;
  sim.seed = 21;
  sim.duration = spec.duration;
  sim.leak_mtbf = 21600.0;
  if (spec.quiet) {
    sim.leak_mtbf = 30.0 * 86400.0;
    sim.cascade_mtbf = 30.0 * 86400.0;
    sim.spike_mtbf = 30.0 * 86400.0;
    sim.noise_event_rate = 1.0 / 21600.0;
    sim.lookalike_event_rate = 1.0 / 21600.0;
  }

  runtime::FleetConfig cfg;
  cfg.mea.windows = geometry();
  cfg.mea.warning_threshold = 0.6;
  cfg.mea.action_cooldown = 600.0;
  cfg.num_threads = spec.threads;
  cfg.scheduler = spec.scheduler;
  cfg.num_shards = spec.num_shards;
  cfg.epoch_ticks = spec.epoch_ticks;
  cfg.schedule.adaptive = spec.adaptive;
  cfg.schedule.hot_score_fraction = spec.hot_score_fraction;
  cfg.obs = &hub;

  inj::FaultInjector injector(hostile_plan());
  injector.set_observability(&hub);

  cfg.membership.plan = spec.plan;
  cfg.membership.policy = spec.policy;
  // Joiners are deterministic functions of the JoinContext alone: an SCP
  // system seeded from the membership stream, fault-wrapped under the
  // slot's own FaultPlan spec when the run is hostile.
  cfg.membership.factory =
      [&injector, sim,
       hostile = spec.hostile](const membership::JoinContext& ctx)
      -> std::unique_ptr<core::ManagedSystem> {
    telecom::SimConfig joiner = sim;
    joiner.seed = ctx.seed;
    auto inner = std::make_unique<runtime::ScpManagedSystem>(joiner);
    if (!hostile) return inner;
    return injector.wrap_node(ctx.node, std::move(inner));
  };

  const auto& e = ensemble();
  auto nodes = runtime::make_scp_fleet(sim, spec.nodes);

  auto make_cleanup = [] {
    return std::make_unique<act::StateCleanupAction>(0.70);
  };
  auto make_repair = [] {
    return std::make_unique<act::PreparedRepairAction>(1800.0);
  };

  runtime::FleetController fleet(
      spec.hostile ? injector.wrap_fleet(std::move(nodes)) : std::move(nodes),
      cfg);
  if (spec.hostile) {
    fleet.add_symptom_predictor(injector.wrap_symptom_predictor(0, e.trend));
    fleet.add_event_predictor(injector.wrap_event_predictor(0, e.eventset));
    fleet.add_action(injector.wrap_action_factory(0, make_cleanup));
    fleet.add_action(injector.wrap_action_factory(1, make_repair));
  } else {
    fleet.add_symptom_predictor(e.trend);
    fleet.add_event_predictor(e.eventset);
    fleet.add_action(make_cleanup);
    fleet.add_action(make_repair);
  }
  fleet.run();

  Artifacts out;
  out.prometheus = obs::prometheus_text(hub.metrics(), /*include_wall=*/false);
  out.trace_json = obs::chrome_trace_json(hub.trace(), /*include_wall=*/false);
  out.json_line = obs::metrics_json_line(hub.metrics(), /*include_wall=*/false);
  out.dropped = hub.trace().dropped();
  const auto t = fleet.telemetry();
  out.num_slots = fleet.num_nodes();
  out.live_nodes = t.nodes;
  out.membership = t.membership;
  out.totals = {t.rounds,
                t.epochs,
                t.node_steps,
                t.scores_computed,
                t.warnings_raised,
                t.resilience.node_faults,
                t.resilience.nodes_quarantined,
                t.resilience.stall_detections,
                t.resilience.predictor_faults,
                t.resilience.breaker_trips,
                t.resilience.breakers_open,
                t.resilience.scores_sanitized,
                t.mea.evaluations,
                t.mea.warnings,
                t.mea.total_actions(),
                t.mea.action_faults,
                t.mea.action_retries,
                t.mea.actions_abandoned,
                static_cast<std::uint64_t>(t.system.total_requests),
                static_cast<std::uint64_t>(t.system.failures),
                bits(t.system.downtime),
                bits(t.system.simulated)};
  for (std::size_t i = 0; i < fleet.num_nodes(); ++i) {
    out.node_evals.push_back(fleet.node_mea_stats(i).evaluations);
    out.node_warnings.push_back(fleet.node_mea_stats(i).warnings);
    out.node_quarantined.push_back(fleet.node_quarantined(i));
    out.node_departed.push_back(fleet.node_departed(i));
    out.node_incarnation.push_back(fleet.node_incarnation(i));
  }
  return out;
}

void expect_identical(const Artifacts& a, const Artifacts& b) {
  EXPECT_EQ(a.prometheus, b.prometheus);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.json_line, b.json_line);
  EXPECT_EQ(a.num_slots, b.num_slots);
  EXPECT_EQ(a.live_nodes, b.live_nodes);
  EXPECT_EQ(a.membership.nodes_joined, b.membership.nodes_joined);
  EXPECT_EQ(a.membership.nodes_left, b.membership.nodes_left);
  EXPECT_EQ(a.membership.handoffs, b.membership.handoffs);
  EXPECT_EQ(a.membership.scale_ups, b.membership.scale_ups);
  EXPECT_EQ(a.membership.drains, b.membership.drains);
  EXPECT_EQ(a.node_evals, b.node_evals);
  EXPECT_EQ(a.node_warnings, b.node_warnings);
  EXPECT_EQ(a.node_quarantined, b.node_quarantined);
  EXPECT_EQ(a.node_departed, b.node_departed);
  EXPECT_EQ(a.node_incarnation, b.node_incarnation);
  EXPECT_EQ(a.totals, b.totals);
}

// --- zero-overhead gating ----------------------------------------------------

/// A churn-free plan is inactive: the run registers no membership
/// metrics and its exports are byte-identical to a config that never
/// mentions membership at all (the PR-6 surface).
TEST(Membership, InactiveConfigIsByteIdenticalToMembershipFreeRuns) {
  for (bool hostile : {false, true}) {
    SCOPED_TRACE(hostile ? "hostile" : "clean");
    RunSpec untouched;
    untouched.hostile = hostile;
    const auto base = run_fleet(untouched);

    RunSpec churn_free = untouched;
    churn_free.plan.seed = 123;  // a seed alone arms nothing
    const auto run = run_fleet(churn_free);

    expect_identical(base, run);
    EXPECT_EQ(base.prometheus.find("pfm_fleet_membership"), std::string::npos);
    EXPECT_EQ(base.membership.nodes_joined, 0u);
  }
}

// --- replay under churn ------------------------------------------------------

/// The replay matrix under a hostile churn storm layered on the hostile
/// fault plan: per shard count, runs are bit-identical across thread
/// counts and across repeated runs.
TEST(Membership, ChurnAndFaultPlansReplayAcrossThreadCounts) {
  for (std::size_t shards : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    RunSpec spec;
    spec.nodes = 16;
    spec.num_shards = shards;
    spec.epoch_ticks = 4;
    spec.adaptive = true;
    spec.hostile = true;
    spec.plan = churn_storm();
    const auto canonical = run_fleet(spec);
    ASSERT_EQ(canonical.dropped, 0u);
    EXPECT_EQ(canonical.num_slots, 18u);  // 16 + 2 joined
    EXPECT_EQ(canonical.membership.nodes_joined, 2u + 4u);  // + 4 restarts
    EXPECT_EQ(canonical.membership.nodes_left, 2u + 4u);
    EXPECT_EQ(canonical.membership.drains, 1u);
    EXPECT_TRUE(canonical.node_departed[3]);
    EXPECT_TRUE(canonical.node_departed[4]);
    EXPECT_EQ(canonical.node_incarnation[1], 1u);
    for (std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      RunSpec repeat = spec;
      repeat.threads = threads;
      const auto run = run_fleet(repeat);
      ASSERT_EQ(run.dropped, 0u);
      expect_identical(canonical, run);
    }
  }
}

/// Dense single-shard epoch_ticks-1 event-driven execution of a churn
/// plan is byte-identical to the lockstep scheduler's: both walk the
/// same membership clock.
TEST(Membership, LockstepAndEventDrivenAgreeUnderChurn) {
  RunSpec lockstep;
  lockstep.scheduler = runtime::FleetScheduler::kLockstep;
  lockstep.nodes = 8;
  lockstep.plan.seed = 7;
  lockstep.plan.scale_out(2000.0, 1)
      .node_leave(5000.0, 4)
      .drain_node(8000.0, 3)
      .restart_node(12000.0, 1);
  const auto canonical = run_fleet(lockstep);
  ASSERT_EQ(canonical.dropped, 0u);
  EXPECT_EQ(canonical.num_slots, 9u);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("event-driven threads=" + std::to_string(threads));
    RunSpec event = lockstep;
    event.scheduler = runtime::FleetScheduler::kEventDriven;
    event.threads = threads;
    const auto run = run_fleet(event);
    ASSERT_EQ(run.dropped, 0u);
    expect_identical(canonical, run);
  }
}

// --- reshard / survivor conformance ------------------------------------------

/// Survivors of a churned run are bit-identical to the same nodes in an
/// uninterrupted reference run: the scale-out burst forces an online
/// reshard that moves survivors' records between shards mid-run, and
/// the departures change every later batch composition —
/// none of which may perturb a surviving node's decisions.
TEST(Membership, SurvivorsMatchUninterruptedReferenceBitForBit) {
  RunSpec reference;
  reference.nodes = 16;
  reference.num_shards = 4;
  reference.epoch_ticks = 4;
  reference.adaptive = true;
  const auto base = run_fleet(reference);

  RunSpec churned = reference;
  churned.plan.seed = 9;
  churned.plan.scale_out(4000.0, 3)
      .node_leave(5000.0, 4)
      .drain_node(8000.0, 3);
  const auto run = run_fleet(churned);

  EXPECT_GT(run.membership.handoffs, 0u)
      << "scale-out must have reshaped the shard blocks";
  EXPECT_EQ(run.num_slots, 19u);
  EXPECT_EQ(run.live_nodes, 17u);
  for (std::size_t i = 0; i < reference.nodes; ++i) {
    if (i == 3 || i == 4) continue;  // the churned nodes
    SCOPED_TRACE("survivor " + std::to_string(i));
    EXPECT_EQ(base.node_evals[i], run.node_evals[i]);
    EXPECT_EQ(base.node_warnings[i], run.node_warnings[i]);
    EXPECT_EQ(base.node_quarantined[i], run.node_quarantined[i]);
    EXPECT_FALSE(run.node_departed[i]);
  }
  // The drained node stopped early; it must have done no more work than
  // its uninterrupted twin.
  EXPECT_LT(run.node_evals[3], base.node_evals[3]);
  EXPECT_LT(run.node_evals[4], base.node_evals[4]);
}

/// A reshard rebuilds each calendar from the node records and keeps every
/// pending visit at its due tick. A node visited early steps the same
/// sim interval, so only a later barrier can tell: here a restart forces
/// a reshard while quiet nodes are backed off, and the other nodes leave
/// one barrier after another. Each must depart with the evaluations it
/// has in the same run without the restart.
TEST(Membership, ReshardKeepsPendingVisitsAtTheirDueTicks) {
  RunSpec leaves;
  leaves.nodes = 8;
  leaves.num_shards = 4;
  leaves.adaptive = true;
  leaves.quiet = true;
  leaves.hot_score_fraction = 0.9;
  leaves.duration = 2.0 * 3600.0;
  leaves.plan.seed = 3;
  for (std::size_t i = 1; i < leaves.nodes; ++i) {
    leaves.plan.node_leave(3600.0 + 60.0 * static_cast<double>(i), i);
  }
  RunSpec restarted = leaves;
  restarted.plan.restart_node(3600.0, 0);

  const auto base = run_fleet(leaves);
  const auto run = run_fleet(restarted);
  EXPECT_EQ(run.node_incarnation[0], 1u);
  for (std::size_t i = 1; i < leaves.nodes; ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_TRUE(run.node_departed[i]);
    EXPECT_EQ(base.node_evals[i], run.node_evals[i]);
    EXPECT_EQ(base.node_warnings[i], run.node_warnings[i]);
  }
}

// --- injected-fault accounting across restarts -------------------------------

/// A rolling restart destroys every restarted incarnation's node and
/// action wrappers. The injector's stats() must still count what they
/// injected, matching the registry's cause-side counters kind for kind.
TEST(Membership, InjectorStatsSurviveRollingRestarts) {
  obs::ObservabilityConfig ocfg;
  ocfg.shards = 2;
  obs::Observability hub(ocfg);

  telecom::SimConfig sim;
  sim.seed = 21;
  sim.duration = kDuration;
  sim.leak_mtbf = 21600.0;

  inj::FaultInjector injector(hostile_plan());
  injector.set_observability(&hub);

  runtime::FleetConfig cfg;
  cfg.mea.windows = geometry();
  cfg.mea.warning_threshold = 0.6;
  cfg.mea.action_cooldown = 600.0;
  cfg.num_threads = 2;
  cfg.obs = &hub;
  cfg.membership.plan.seed = 11;
  cfg.membership.plan.rolling_restart(7000.0, 0, 6, 600.0);
  cfg.membership.factory = [&injector, sim](const membership::JoinContext& ctx)
      -> std::unique_ptr<core::ManagedSystem> {
    telecom::SimConfig fresh = sim;
    fresh.seed = ctx.seed;
    return injector.wrap_node(
        ctx.node, std::make_unique<runtime::ScpManagedSystem>(fresh));
  };

  const auto& e = ensemble();
  runtime::FleetController fleet(
      injector.wrap_fleet(runtime::make_scp_fleet(sim, 6)), cfg);
  fleet.add_symptom_predictor(injector.wrap_symptom_predictor(0, e.trend));
  fleet.add_event_predictor(injector.wrap_event_predictor(0, e.eventset));
  fleet.add_action(injector.wrap_action_factory(0, [] {
    return std::make_unique<act::StateCleanupAction>(0.70);
  }));
  fleet.run();
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(fleet.node_incarnation(i), 1u) << "node " << i;
  }

  const auto& counters = hub.metrics().counters();
  auto registry = [&counters](const char* kind) -> std::size_t {
    const auto it = counters.find(
        std::string("pfm_injected_faults_total{kind=\"") + kind + "\"}");
    return it == counters.end() ? 0 : it->second->value();
  };
  const inj::InjectionStats stats = injector.stats();
  EXPECT_EQ(stats.node_crashes, registry("node_crash"));
  EXPECT_EQ(stats.node_hangs, registry("node_hang"));
  EXPECT_EQ(stats.samples_dropped, registry("sample_drop"));
  EXPECT_EQ(stats.samples_corrupted, registry("sample_corrupt"));
  EXPECT_EQ(stats.predictor_throws, registry("predictor_throw"));
  EXPECT_EQ(stats.predictor_nans, registry("predictor_nan"));
  EXPECT_EQ(stats.action_failures, registry("action_failure"));
  EXPECT_GT(stats.node_crashes, 0u);
  EXPECT_GT(stats.samples_dropped, 0u);
  EXPECT_GT(stats.predictor_nans, 0u);
  EXPECT_GT(stats.action_failures, 0u);
}

// --- per-shard counter identity ----------------------------------------------

TEST(Membership, PerShardMembershipCountersSumToFleetTotals) {
  obs::ObservabilityConfig ocfg;
  ocfg.shards = 2;
  obs::Observability hub(ocfg);

  telecom::SimConfig sim;
  sim.seed = 21;
  sim.duration = kDuration;
  sim.leak_mtbf = 21600.0;

  runtime::FleetConfig cfg;
  cfg.mea.windows = geometry();
  cfg.scheduler = runtime::FleetScheduler::kEventDriven;
  cfg.num_shards = 4;
  cfg.num_threads = 2;
  cfg.epoch_ticks = 4;
  cfg.obs = &hub;
  cfg.membership.plan.seed = 11;
  cfg.membership.plan.scale_out(3000.0, 3)
      .node_leave(5000.0, 2)
      .restart_node(7000.0, 5)
      .drain_node(9000.0, 7);
  cfg.membership.factory = [sim](const membership::JoinContext& ctx) {
    telecom::SimConfig joiner = sim;
    joiner.seed = ctx.seed;
    return std::make_unique<runtime::ScpManagedSystem>(joiner);
  };

  runtime::FleetController fleet(runtime::make_scp_fleet(sim, 12), cfg);
  fleet.add_symptom_predictor(ensemble().trend);
  fleet.run();

  auto& metrics = hub.metrics();
  std::uint64_t joined = 0, left = 0, handoffs = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
    joined +=
        metrics.counter("pfm_shard_membership_joined_total" + label).value();
    left += metrics.counter("pfm_shard_membership_left_total" + label).value();
    handoffs +=
        metrics.counter("pfm_shard_membership_handoffs_total" + label).value();
  }
  EXPECT_EQ(joined,
            metrics.counter("pfm_fleet_membership_nodes_joined_total").value());
  EXPECT_EQ(left,
            metrics.counter("pfm_fleet_membership_nodes_left_total").value());
  EXPECT_EQ(handoffs,
            metrics.counter("pfm_fleet_membership_handoffs_total").value());
  EXPECT_EQ(joined, 3u + 1u);  // scale-out burst + one restart
  EXPECT_EQ(left, 1u + 1u + 1u);  // leave + restart + drain
  EXPECT_GT(handoffs, 0u);

  // telemetry() mirrors the same registry values.
  const auto t = fleet.telemetry();
  EXPECT_EQ(t.membership.nodes_joined, joined);
  EXPECT_EQ(t.membership.nodes_left, left);
  EXPECT_EQ(t.membership.handoffs, handoffs);
  EXPECT_EQ(t.membership.drains, 1u);
}

// --- plan mutation fuzz ------------------------------------------------------

constexpr double kFuzzDuration = 2.0 * 3600.0;

/// A time around the 2 h horizon: now and then negative, non-finite or
/// past the horizon.
double fuzz_time(num::Rng& rng) {
  const double roll = rng.uniform();
  if (roll < 0.03) return -60.0;
  if (roll < 0.06) return std::numeric_limits<double>::quiet_NaN();
  if (roll < 0.08) return std::numeric_limits<double>::infinity();
  if (roll < 0.12) return 0.0;
  return rng.uniform(0.0, kFuzzDuration + 600.0);
}

/// A count in [0, 16]: mostly 1-4, now and then 0 (invalid) or 16.
std::size_t fuzz_count(num::Rng& rng) {
  const double roll = rng.uniform();
  if (roll < 0.05) return 0;
  if (roll < 0.10) return 16;
  return static_cast<std::size_t>(rng.uniform_int(1, 4));
}

double fuzz_threshold(num::Rng& rng) {
  const double specials[] = {-1.0, 0.0, 0.2, 0.5, 0.8, 1.5, 3.0,
                             std::numeric_limits<double>::quiet_NaN()};
  return specials[rng.uniform_int(0, 7)];
}

/// One mutation of a plan event's field, of the event list, or of the
/// elasticity policy. Every count and slot stays <= 16 and the plan keeps
/// at most 16 events, so no case builds a large fleet.
void mutate(RunSpec& spec, num::Rng& rng) {
  auto& events = spec.plan.events;
  auto& policy = spec.policy;
  const auto pick = [&] {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(events.size()) - 1));
  };
  const auto kind = rng.uniform_int(0, 8);
  if (events.empty() && kind <= 4) return;
  switch (kind) {
    case 0: events[pick()].at_time = fuzz_time(rng); break;
    case 1:
      events[pick()].kind =
          static_cast<membership::ChurnKind>(rng.uniform_int(0, 3));
      break;
    case 2:
      events[pick()].node = static_cast<std::size_t>(rng.uniform_int(0, 16));
      break;
    case 3: events[pick()].count = fuzz_count(rng); break;
    case 4:
      events[pick()].stagger =
          rng.bernoulli(0.05) ? -1.0 : rng.uniform(0.0, 900.0);
      break;
    case 5:
      if (events.size() < 16) {
        membership::ChurnEvent ev;
        ev.at_time = fuzz_time(rng);
        ev.kind = static_cast<membership::ChurnKind>(rng.uniform_int(0, 3));
        ev.node = static_cast<std::size_t>(rng.uniform_int(0, 16));
        ev.count = fuzz_count(rng);
        ev.stagger = rng.uniform(0.0, 600.0);
        events.push_back(ev);
      }
      break;
    case 6:
      if (!events.empty()) {
        events.erase(events.begin() + static_cast<std::ptrdiff_t>(pick()));
      }
      break;
    case 7:  // a duplicate: double leaves, restarts of departed slots
      if (!events.empty() && events.size() < 16) {
        events.push_back(events[pick()]);
      }
      break;
    default:
      policy.enabled = !policy.enabled || rng.bernoulli(0.5);
      policy.scale_up_mass = fuzz_threshold(rng);
      policy.scale_up_nodes = static_cast<std::size_t>(rng.uniform_int(0, 16));
      policy.cooldown_epochs =
          static_cast<std::size_t>(rng.uniform_int(0, 16));
      policy.drain_score = fuzz_threshold(rng);
      policy.failover_replace = rng.bernoulli(0.5);
      policy.max_policy_joins =
          static_cast<std::size_t>(rng.uniform_int(0, 16));
      break;
  }
}

enum class Outcome { kCompleted, kInvalidArgument, kOutOfRange, kOther };

Outcome run_outcome(const RunSpec& spec, Artifacts& out) {
  try {
    out = run_fleet(spec);
    return Outcome::kCompleted;
  } catch (const std::invalid_argument&) {
    return Outcome::kInvalidArgument;
  } catch (const std::out_of_range&) {
    return Outcome::kOutOfRange;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped rejection: " << e.what();
    return Outcome::kOther;
  }
}

/// Mutated churn plans and elasticity policies on an 8-node, 4-shard,
/// adaptive event-driven 2 h fleet (busy or quiet nodes, clean or under
/// the hostile fault plan): each is rejected with std::invalid_argument/std::out_of_range
/// — at construction or at the barrier that meets the bad change — or it
/// runs to completion, and either way the outcome, the include_wall=false
/// exports and the telemetry are the same at 1 and 2 threads. Joins,
/// leaves and restarts in every order drive the reshard path. In clean
/// runs, survivors must match a membership-free fleet, and without the
/// mass trigger every node must match a one-shard fleet.
TEST(Membership, MutatedPlansRejectOrReplayAcrossThreadCounts) {
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t compared = 0;
  std::map<std::pair<std::size_t, bool>, Artifacts> references;
  proptest::run_cases(
      "membership plan mutation", 0x3e3b, 48, [&](num::Rng& rng, std::size_t) {
        RunSpec spec;
        spec.nodes = 8;
        spec.num_shards = 4;
        spec.adaptive = true;
        spec.duration = kFuzzDuration;
        spec.hostile = rng.bernoulli(0.5);
        // Quiet nodes, and a hot score near the warning threshold, let the
        // adaptive schedule back off, so reshards meet records due beyond
        // the barrier.
        spec.quiet = rng.bernoulli(0.5);
        spec.hot_score_fraction = 0.9;
        const std::size_t epochs[] = {1, 4, 16};
        spec.epoch_ticks = epochs[rng.uniform_int(0, 2)];
        spec.plan.seed = 2026;
        spec.plan.scale_out(1200.0, 2, 120.0)
            .node_leave(2400.0, 4)
            .drain_node(3600.0, 3)
            .restart_node(4800.0, 1)
            .rolling_restart(5400.0, 6, 2, 300.0);
        spec.policy.scale_up_mass = 1.5;
        spec.policy.scale_up_nodes = 2;
        spec.policy.cooldown_epochs = 4;
        spec.policy.drain_score = 0.8;
        spec.policy.max_policy_joins = 4;
        const auto rounds = rng.uniform_int(1, 4);
        for (std::int64_t r = 0; r < rounds; ++r) mutate(spec, rng);

        Artifacts one;
        const Outcome first = run_outcome(spec, one);
        RunSpec twice = spec;
        twice.threads = 2;
        Artifacts two;
        ASSERT_EQ(run_outcome(twice, two), first);
        if (first != Outcome::kCompleted) {
          ++rejected;
          return;
        }
        ++completed;
        ASSERT_EQ(one.dropped, 0u);
        ASSERT_EQ(two.dropped, 0u);
        expect_identical(one, two);

        // In a clean fleet no predictor breaker trips, so churn touches
        // only the churned nodes. Survivors (initial slots that never
        // left or restarted) must match a membership-free run of the
        // same fleet, whatever reshards the churn forced.
        if (spec.hostile) return;
        auto [it, fresh] =
            references.try_emplace({spec.epoch_ticks, spec.quiet});
        if (fresh) {
          RunSpec plain = spec;
          plain.plan = {};
          plain.policy = {};
          ASSERT_EQ(run_outcome(plain, it->second), Outcome::kCompleted);
        }
        const Artifacts& reference = it->second;
        for (std::size_t i = 0; i < spec.nodes; ++i) {
          if (one.node_departed[i] || one.node_incarnation[i] != 0) continue;
          SCOPED_TRACE("survivor " + std::to_string(i));
          EXPECT_EQ(one.node_evals[i], reference.node_evals[i]);
          EXPECT_EQ(one.node_warnings[i], reference.node_warnings[i]);
          EXPECT_EQ(one.node_quarantined[i], reference.node_quarantined[i]);
        }

        // Without the mass trigger (a sum over shards) the policy couples
        // no two nodes either, so no node's results may depend on the
        // shard count: the 4-shard reshards move records between shards,
        // the 1-shard ones never do.
        if (spec.policy.enabled && spec.policy.scale_up_mass >= 0.0) return;
        RunSpec single = spec;
        single.num_shards = 1;
        Artifacts lone;
        ASSERT_EQ(run_outcome(single, lone), Outcome::kCompleted);
        ++compared;
        EXPECT_EQ(lone.num_slots, one.num_slots);
        EXPECT_EQ(lone.live_nodes, one.live_nodes);
        EXPECT_EQ(lone.node_evals, one.node_evals);
        EXPECT_EQ(lone.node_warnings, one.node_warnings);
        EXPECT_EQ(lone.node_quarantined, one.node_quarantined);
        EXPECT_EQ(lone.node_departed, one.node_departed);
        EXPECT_EQ(lone.node_incarnation, one.node_incarnation);
      });
  // Both outcomes occur, so the sweep exercises validation and the
  // reshard path alike.
  EXPECT_GT(completed, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(compared, 0u);
  std::printf(
      "membership plan mutants: %zu completed (%zu against one shard), %zu "
      "rejected\n",
      completed, compared, rejected);
}

// --- the prediction-driven scaling loop --------------------------------------

/// Deterministic quiet stub (same shape as the fleet-shard suite's).
class QuietStub final : public core::ManagedSystem {
 public:
  QuietStub(std::string name, double horizon, double urgency)
      : name_(std::move(name)),
        horizon_(horizon),
        urgency_(urgency),
        trace_(mon::SymptomSchema({"pressure"})) {}

  std::string name() const override { return name_; }
  double now() const override { return now_; }
  double horizon() const override { return horizon_; }
  bool finished() const override { return now_ >= horizon_; }
  void step_to(double t) override {
    t = std::min(t, horizon_);
    if (t <= now_) return;
    now_ = t;
    trace_.add_sample({now_, {0.1}});
  }
  const mon::MonitoringDataset& trace() const override { return trace_; }
  core::SchedulingHint scheduling_hint() const override {
    return core::SchedulingHint{urgency_};
  }

  std::size_t num_units() const override { return 1; }
  core::UnitHealth unit_health(std::size_t unit) const override {
    if (unit >= 1) throw std::out_of_range("QuietStub: unit");
    return {};
  }
  double offered_load() const override { return 100.0; }
  double unit_capacity() const override { return 200.0; }
  bool service_down() const override { return false; }
  void restart_unit(std::size_t) override {}
  void shed_load(double, double) override {}
  void checkpoint() override { ++checkpoints_; }
  void prepare_for_failure(double) override {}
  core::SystemStats system_stats() const override { return {}; }

  std::size_t checkpoints() const { return checkpoints_; }

 private:
  std::string name_;
  double now_ = 0.0;
  double horizon_;
  double urgency_;
  std::size_t checkpoints_ = 0;
  mon::MonitoringDataset trace_;
};

/// Constant-score predictor, configurable per node origin.
class OriginPredictor final : public pred::SymptomPredictor {
 public:
  OriginPredictor(double base, std::size_t hot_origin, double hot)
      : base_(base), hot_origin_(hot_origin), hot_(hot) {}
  std::string name() const override { return "origin"; }
  void train(const mon::MonitoringDataset&) override {}
  double score(const pred::SymptomContext& ctx) const override {
    return ctx.origin == hot_origin_ ? hot_ : base_;
  }

 private:
  double base_;
  std::size_t hot_origin_;
  double hot_;
};

runtime::FleetConfig stub_config(membership::ElasticityPolicy policy) {
  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.95;  // policy tests never warn
  cfg.membership.policy = policy;
  cfg.membership.factory = [](const membership::JoinContext& ctx) {
    return std::make_unique<QuietStub>(
        "joiner-" + std::to_string(ctx.node) + "." +
            std::to_string(ctx.incarnation),
        32 * 60.0, 1.0);
  };
  return cfg;
}

std::vector<std::unique_ptr<core::ManagedSystem>> stub_nodes(
    std::size_t count) {
  std::vector<std::unique_ptr<core::ManagedSystem>> nodes;
  for (std::size_t i = 0; i < count; ++i) {
    nodes.push_back(std::make_unique<QuietStub>("stub-" + std::to_string(i),
                                                32 * 60.0, 1.0));
  }
  return nodes;
}

/// Preventive scale-up: summed failure-probability mass crossing the
/// threshold adds capacity, bounded by max_policy_joins and cooldown.
TEST(Membership, PolicyScalesUpOnFailureMassAndHonoursJoinCap) {
  membership::ElasticityPolicy policy;
  policy.enabled = true;
  policy.scale_up_mass = 1.2;  // 3 nodes x 0.5 crosses it
  policy.scale_up_nodes = 2;
  policy.max_policy_joins = 2;
  policy.cooldown_epochs = 4;

  runtime::FleetController fleet(stub_nodes(3), stub_config(policy));
  fleet.add_symptom_predictor(
      std::make_shared<OriginPredictor>(0.5, 99, 0.5));
  fleet.run();

  const auto t = fleet.telemetry();
  EXPECT_EQ(t.membership.scale_ups, 1u);
  EXPECT_EQ(t.membership.nodes_joined, 2u);  // capped despite rising mass
  EXPECT_EQ(t.membership.nodes_left, 0u);
  EXPECT_EQ(t.nodes, 5u);
  EXPECT_EQ(fleet.num_nodes(), 5u);
  EXPECT_FALSE(fleet.node_departed(3));
  EXPECT_FALSE(fleet.node_departed(4));
}

/// Drain-and-failover: a node whose score crosses drain_score leaves
/// gracefully (prepare_for_drain -> checkpoint) and a policy-driven
/// replacement joins in the same barrier.
TEST(Membership, PolicyDrainsHotNodeAndFailsOverToReplacement) {
  membership::ElasticityPolicy policy;
  policy.enabled = true;
  policy.drain_score = 0.5;
  policy.failover_replace = true;

  auto nodes = stub_nodes(4);
  const auto* hot = static_cast<const QuietStub*>(nodes[1].get());
  runtime::FleetController fleet(std::move(nodes), stub_config(policy));
  fleet.add_symptom_predictor(
      std::make_shared<OriginPredictor>(0.05, 1, 0.8));
  fleet.run();

  const auto t = fleet.telemetry();
  EXPECT_EQ(t.membership.drains, 1u);
  EXPECT_EQ(t.membership.nodes_left, 1u);
  EXPECT_EQ(t.membership.nodes_joined, 1u);
  EXPECT_EQ(t.membership.scale_ups, 0u);
  EXPECT_EQ(t.nodes, 4u);  // drained one, gained one
  EXPECT_EQ(fleet.num_nodes(), 5u);
  EXPECT_TRUE(fleet.node_departed(1));
  EXPECT_FALSE(fleet.node_departed(0));
  EXPECT_FALSE(fleet.node_departed(4));
  EXPECT_GT(hot->checkpoints(), 0u)
      << "graceful drain must run prepare_for_drain";
}

// --- validation --------------------------------------------------------------

TEST(Membership, ConfigValidationRejectsMissingFactoriesAndBadTargets) {
  // Joins without a factory are rejected at construction.
  {
    runtime::FleetConfig cfg;
    cfg.membership.plan.scale_out(100.0, 1);
    EXPECT_THROW(runtime::FleetController(stub_nodes(2), cfg),
                 std::invalid_argument);
  }
  // An enabled policy may spawn replacements: factory required too.
  {
    runtime::FleetConfig cfg;
    cfg.membership.policy.enabled = true;
    cfg.membership.policy.scale_up_mass = 10.0;
    EXPECT_THROW(runtime::FleetController(stub_nodes(2), cfg),
                 std::invalid_argument);
  }
  // Invalid plan events are rejected at construction.
  {
    runtime::FleetConfig cfg;
    cfg.membership.plan.node_leave(-5.0, 0);
    EXPECT_THROW(runtime::FleetController(stub_nodes(2), cfg),
                 std::invalid_argument);
  }
  // A change targeting a slot that never exists throws mid-run.
  {
    runtime::FleetConfig cfg;
    cfg.membership.plan.node_leave(100.0, 99);
    runtime::FleetController fleet(stub_nodes(2), cfg);
    fleet.add_symptom_predictor(std::make_shared<OriginPredictor>(0.05, 9, 0.));
    EXPECT_THROW(fleet.run(), std::out_of_range);
  }
  // Churning a node that already left throws (double-leave).
  {
    runtime::FleetConfig cfg;
    cfg.membership.plan.node_leave(100.0, 0).node_leave(300.0, 0);
    runtime::FleetController fleet(stub_nodes(2), cfg);
    fleet.add_symptom_predictor(std::make_shared<OriginPredictor>(0.05, 9, 0.));
    EXPECT_THROW(fleet.run(), std::invalid_argument);
  }
}

}  // namespace
}  // namespace pfm
