// Conformance and determinism suite of the sharded event-driven fleet
// runtime (DESIGN.md §9):
//  - core::ShardLayout partitions and (shard, local) addressing;
//  - keyed injection decision streams are invariant under re-batching;
//  - dense schedule + one shard + epoch_ticks 1 reproduces the lockstep
//    scheduler's sim-time exports byte for byte, clean and hostile;
//  - adaptive sharded runs replay bit-identically across thread counts
//    and across repeated runs, per shard count;
//  - epochs / node_steps telemetry semantics (satellite of the same PR).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/sharding.hpp"
#include "injection/injector.hpp"
#include "obs/export.hpp"
#include "obs/observability.hpp"
#include "prediction/baselines.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"
#include "telecom/simulator.hpp"

namespace pfm {
namespace {

// --- ShardLayout ------------------------------------------------------------

TEST(ShardLayout, BlocksPartitionTheFleetWithSizesDifferingByAtMostOne) {
  for (std::size_t nodes : {1u, 7u, 16u, 100u, 101u}) {
    for (std::size_t shards : {1u, 2u, 3u, 7u, 16u}) {
      if (shards > nodes) continue;
      core::ShardLayout layout(nodes, shards);
      std::size_t covered = 0;
      std::size_t min_size = nodes, max_size = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        EXPECT_EQ(layout.begin(s), covered);
        covered += layout.size(s);
        min_size = std::min(min_size, layout.size(s));
        max_size = std::max(max_size, layout.size(s));
      }
      EXPECT_EQ(covered, nodes);
      EXPECT_LE(max_size - min_size, 1u);
      for (std::size_t node = 0; node < nodes; ++node) {
        const std::size_t s = layout.shard_of(node);
        EXPECT_GE(node, layout.begin(s));
        EXPECT_LT(node, layout.end(s));
        EXPECT_EQ(layout.global_index(s, layout.local_index(node)), node);
      }
    }
  }
}

TEST(ShardLayout, RejectsBadLayoutsAndAddresses) {
  EXPECT_THROW(core::ShardLayout(4, 0), std::invalid_argument);
  EXPECT_THROW(core::ShardLayout(3, 4), std::invalid_argument);
  core::ShardLayout layout(10, 3);
  EXPECT_THROW(layout.global_index(3, 0), std::out_of_range);
  EXPECT_THROW(layout.global_index(0, 99), std::out_of_range);
  EXPECT_THROW(layout.shard_of(10), std::out_of_range);
}

TEST(ShardLayout, FaultPlanShardAddressingTargetsTheGlobalNode) {
  core::ShardLayout layout(10, 3);  // blocks: [0,3) [3,6) [6,10)
  inj::FaultPlan plan;
  plan.node_at(layout, 1, 2).crash_at = 123.0;
  EXPECT_EQ(plan.nodes.at(5).crash_at, 123.0);
  EXPECT_EQ(plan.node_spec(layout, 1, 2).crash_at, 123.0);
  EXPECT_THROW(plan.node_at(layout, 2, 4), std::out_of_range);
}

// --- keyed decision streams --------------------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Constant-score predictor: isolates the injection wrapper's rolls.
class HalfPredictor final : public pred::SymptomPredictor {
 public:
  std::string name() const override { return "half"; }
  void train(const mon::MonitoringDataset&) override {}
  double score(const pred::SymptomContext&) const override { return 0.5; }
};

/// The faulty-predictor rolls are keyed per item (origin, ordinal), so
/// re-batching — scoring the same items in different groupings and
/// orders, as different shard counts do — must reproduce every per-item
/// outcome bit for bit.
TEST(ShardInjection, KeyedPredictorRollsAreInvariantUnderRebatching) {
  inj::FaultPlan plan;
  plan.seed = 99;
  plan.predictors[0].nan_p = 0.3;
  plan.predictors[0].inf_p = 0.1;
  inj::FaultySymptomPredictor faulty(std::make_shared<HalfPredictor>(), 0,
                                     plan);

  // 64 distinct item identities (origin, ordinal).
  std::vector<pred::SymptomContext> items(64);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i].origin = i % 16;
    items[i].ordinal = 1 + i / 16;
  }

  std::vector<double> whole(items.size());
  faulty.score_batch(items, whole);

  // Two shards' worth of batches, then a reversed order.
  std::vector<double> split(items.size());
  faulty.score_batch(std::span(items).subspan(0, 40),
                     std::span(split).subspan(0, 40));
  faulty.score_batch(std::span(items).subspan(40),
                     std::span(split).subspan(40));
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(bits(whole[i]), bits(split[i])) << "item " << i;
  }

  std::vector<pred::SymptomContext> reversed(items.rbegin(), items.rend());
  std::vector<double> rev_out(items.size());
  faulty.score_batch(reversed, rev_out);
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(bits(whole[i]), bits(rev_out[items.size() - 1 - i]))
        << "item " << i;
  }

  // And the rolls really fired: some scores must differ from 0.5.
  EXPECT_TRUE(std::any_of(whole.begin(), whole.end(),
                          [](double v) { return v != 0.5; }));
}

// --- fleet-level conformance -------------------------------------------------

constexpr double kDuration = 0.25 * 86400.0;

pred::WindowGeometry geometry() { return {600.0, 300.0, 300.0}; }

/// Cheap predictor pair trained once per process (the arena-heavy UBF
/// path is pinned by test_fleet_conformance; this suite exercises the
/// scheduler, not the kernels).
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

/// Everything observable about one fleet run except wall time.
struct Artifacts {
  std::string prometheus;
  std::string trace_json;
  std::string json_line;
  std::uint64_t dropped = 0;
  std::size_t rounds = 0;
  std::size_t epochs = 0;
  std::size_t node_steps = 0;
  std::size_t scores = 0;
  std::size_t warnings = 0;
  std::size_t quarantined = 0;
  std::size_t breaker_trips = 0;
  std::size_t total_actions = 0;
  double downtime = 0.0;
  double simulated = 0.0;
  std::vector<std::size_t> node_warnings;
  std::vector<bool> node_quarantined;
  std::vector<std::string> node_reason;
};

struct RunSpec {
  std::size_t nodes = 6;
  std::size_t threads = 1;
  runtime::FleetScheduler scheduler = runtime::FleetScheduler::kEventDriven;
  std::size_t num_shards = 1;
  std::size_t epoch_ticks = 1;
  bool adaptive = false;
  bool hostile = false;
};

Artifacts run_fleet(const RunSpec& spec) {
  obs::ObservabilityConfig ocfg;
  ocfg.shards = spec.threads;
  ocfg.trace_capacity = 1 << 16;
  obs::Observability hub(ocfg);

  telecom::SimConfig sim;
  sim.seed = 21;
  sim.duration = kDuration;
  sim.leak_mtbf = 21600.0;  // enough pressure to raise warnings

  runtime::FleetConfig cfg;
  cfg.mea.windows = geometry();
  cfg.mea.warning_threshold = 0.6;
  cfg.mea.action_cooldown = 600.0;
  cfg.num_threads = spec.threads;
  cfg.scheduler = spec.scheduler;
  cfg.num_shards = spec.num_shards;
  cfg.epoch_ticks = spec.epoch_ticks;
  cfg.schedule.adaptive = spec.adaptive;
  cfg.obs = &hub;

  const auto& e = ensemble();
  auto nodes = runtime::make_scp_fleet(sim, spec.nodes);

  inj::FaultInjector injector(hostile_plan());
  injector.set_observability(&hub);

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
  out.rounds = t.rounds;
  out.epochs = t.epochs;
  out.node_steps = t.node_steps;
  out.scores = t.scores_computed;
  out.warnings = t.warnings_raised;
  out.quarantined = t.resilience.nodes_quarantined;
  out.breaker_trips = t.resilience.breaker_trips;
  out.total_actions = t.mea.total_actions();
  out.downtime = t.system.downtime;
  out.simulated = t.system.simulated;
  for (std::size_t i = 0; i < fleet.num_nodes(); ++i) {
    out.node_warnings.push_back(fleet.node_mea_stats(i).warnings);
    out.node_quarantined.push_back(fleet.node_quarantined(i));
    out.node_reason.push_back(fleet.node_quarantine_reason(i));
  }
  return out;
}

void expect_identical(const Artifacts& a, const Artifacts& b) {
  EXPECT_EQ(a.prometheus, b.prometheus);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.json_line, b.json_line);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.node_steps, b.node_steps);
  EXPECT_EQ(a.scores, b.scores);
  EXPECT_EQ(a.warnings, b.warnings);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.breaker_trips, b.breaker_trips);
  EXPECT_EQ(a.total_actions, b.total_actions);
  EXPECT_EQ(bits(a.downtime), bits(b.downtime));
  EXPECT_EQ(bits(a.simulated), bits(b.simulated));
  EXPECT_EQ(a.node_warnings, b.node_warnings);
  EXPECT_EQ(a.node_quarantined, b.node_quarantined);
  EXPECT_EQ(a.node_reason, b.node_reason);
}

/// The byte-identity contract: a dense single-shard event-driven fleet
/// with epoch_ticks 1 is indistinguishable from the lockstep scheduler
/// in every sim-time export — clean and under a hostile fault plan.
void run_lockstep_equivalence(bool hostile) {
  RunSpec lockstep;
  lockstep.scheduler = runtime::FleetScheduler::kLockstep;
  lockstep.hostile = hostile;
  const auto canonical = run_fleet(lockstep);
  ASSERT_EQ(canonical.dropped, 0u);
  EXPECT_GT(canonical.rounds, 0u);
  EXPECT_GT(canonical.warnings, 0u) << "scenario too tame to exercise Act";
  EXPECT_EQ(canonical.epochs, canonical.rounds) << "lockstep: epoch == round";
  if (hostile) {
    EXPECT_GT(canonical.quarantined, 0u) << "plan injected no node faults";
  }

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(std::string(hostile ? "hostile" : "clean") +
                 " event-driven threads=" + std::to_string(threads));
    RunSpec event = lockstep;
    event.scheduler = runtime::FleetScheduler::kEventDriven;
    event.threads = threads;
    const auto run = run_fleet(event);
    ASSERT_EQ(run.dropped, 0u);
    expect_identical(canonical, run);
  }
}

TEST(FleetShard, DenseSingleShardIsByteIdenticalToLockstepClean) {
  run_lockstep_equivalence(/*hostile=*/false);
}

TEST(FleetShard, DenseSingleShardIsByteIdenticalToLockstepHostile) {
  run_lockstep_equivalence(/*hostile=*/true);
}

/// Larger epochs only batch the barrier: the dense single-shard schedule
/// computes the same rounds, scores and warnings, with fewer epochs.
TEST(FleetShard, EpochSizeTradesBarriersNotResults) {
  RunSpec tick1;
  const auto a = run_fleet(tick1);
  RunSpec tick8 = tick1;
  tick8.epoch_ticks = 8;
  const auto b = run_fleet(tick8);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.node_steps, b.node_steps);
  EXPECT_EQ(a.scores, b.scores);
  EXPECT_EQ(a.warnings, b.warnings);
  EXPECT_EQ(a.node_warnings, b.node_warnings);
  EXPECT_LT(b.epochs, a.epochs);
  EXPECT_EQ(a.trace_json, b.trace_json) << "spans carry no epoch structure";
}

/// The replay matrix: for every shard count, adaptive sharded runs are
/// bit-identical across thread counts and across repeated runs — clean
/// and hostile. (Results legitimately depend on the shard count: shards
/// score their own batches and keep their own breaker banks.)
void run_replay_matrix(bool hostile) {
  for (std::size_t shards : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    RunSpec spec;
    spec.nodes = 16;
    spec.num_shards = shards;
    spec.epoch_ticks = 4;
    spec.adaptive = true;
    spec.hostile = hostile;
    const auto canonical = run_fleet(spec);
    ASSERT_EQ(canonical.dropped, 0u);
    EXPECT_GT(canonical.rounds, 0u);
    if (hostile) {
      EXPECT_GT(canonical.quarantined, 0u) << "plan injected no node faults";
    }
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}}) {
      SCOPED_TRACE(std::string(hostile ? "hostile" : "clean") + " shards=" +
                   std::to_string(shards) + " threads=" +
                   std::to_string(threads));
      RunSpec repeat = spec;
      repeat.threads = threads;
      const auto run = run_fleet(repeat);
      ASSERT_EQ(run.dropped, 0u);
      expect_identical(canonical, run);
    }
  }
}

TEST(FleetShard, AdaptiveShardedRunsReplayAcrossThreadCountsClean) {
  run_replay_matrix(/*hostile=*/false);
}

TEST(FleetShard, AdaptiveShardedRunsReplayAcrossThreadCountsHostile) {
  run_replay_matrix(/*hostile=*/true);
}

// --- telemetry accounting (epochs / node_steps semantics) --------------------

/// Deterministic stub with a controllable SchedulingHint: quiet low
/// pressure, never fails — the adaptive scheduler should back it off.
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
  void checkpoint() override {}
  void prepare_for_failure(double) override {}
  core::SystemStats system_stats() const override { return {}; }

 private:
  std::string name_;
  double now_ = 0.0;
  double horizon_;
  double urgency_;
  mon::MonitoringDataset trace_;
};

/// Low constant score: never warns, never hot by score.
class LowPredictor final : public pred::SymptomPredictor {
 public:
  std::string name() const override { return "low"; }
  void train(const mon::MonitoringDataset&) override {}
  double score(const pred::SymptomContext&) const override { return 0.05; }
};

runtime::FleetTelemetry run_stub_fleet(runtime::FleetConfig cfg,
                                       std::size_t num_nodes,
                                       double urgency) {
  std::vector<std::unique_ptr<core::ManagedSystem>> nodes;
  for (std::size_t i = 0; i < num_nodes; ++i) {
    nodes.push_back(std::make_unique<QuietStub>(
        "stub-" + std::to_string(i), 32 * 60.0, urgency));
  }
  runtime::FleetController fleet(std::move(nodes), cfg);
  fleet.add_symptom_predictor(std::make_shared<LowPredictor>());
  fleet.run();
  return fleet.telemetry();
}

TEST(FleetShard, LockstepTelemetryCountsEpochsAndNodeStepsSeparately) {
  runtime::FleetConfig cfg;  // lockstep default
  const auto t = run_stub_fleet(cfg, 3, 1.0);
  // 32 rounds of 60 s to the 1920 s horizon, 3 nodes each round.
  EXPECT_EQ(t.rounds, 32u);
  EXPECT_EQ(t.epochs, 32u);
  EXPECT_EQ(t.node_steps, 96u);
}

TEST(FleetShard, AdaptiveSchedulingCutsNodeStepsNotCoverage) {
  runtime::FleetConfig cfg;
  cfg.scheduler = runtime::FleetScheduler::kEventDriven;
  cfg.schedule.adaptive = true;
  cfg.schedule.max_gap = 8;

  // Quiet nodes (urgency 0) back off exponentially: far fewer Monitor
  // steps than the 32-ticks-by-3-nodes dense schedule...
  const auto quiet = run_stub_fleet(cfg, 3, 0.0);
  EXPECT_LT(quiet.node_steps, 96u);
  EXPECT_GT(quiet.node_steps, 0u);
  EXPECT_EQ(quiet.warnings_raised, 0u);
  // ...while every node still reaches its horizon (coverage, not work,
  // is the contract): total simulated time equals the dense run's.
  EXPECT_EQ(quiet.nodes, 3u);

  // Urgent nodes (default urgency 1.0, above the hot cut) never back off —
  // unknown ManagedSystem backends stay dense by construction.
  const auto urgent = run_stub_fleet(cfg, 3, 1.0);
  EXPECT_EQ(urgent.node_steps, 96u);
  EXPECT_EQ(urgent.rounds, 32u);

  // The hot cut is 0.75: a hint at the cut keeps nodes dense, one just
  // below it backs off like a quiet node.
  EXPECT_EQ(run_stub_fleet(cfg, 3, 0.75).node_steps, 96u);
  EXPECT_EQ(run_stub_fleet(cfg, 3, 0.74).node_steps, quiet.node_steps);
}

// --- per-shard metrics -------------------------------------------------------

TEST(FleetShard, ShardMetricsSumToFleetTotalsAndSingleShardStaysUnlabelled) {
  obs::ObservabilityConfig ocfg;
  ocfg.shards = 2;
  obs::Observability hub(ocfg);

  runtime::FleetConfig cfg;
  cfg.scheduler = runtime::FleetScheduler::kEventDriven;
  cfg.num_shards = 4;
  cfg.num_threads = 2;
  cfg.obs = &hub;
  std::vector<std::unique_ptr<core::ManagedSystem>> nodes;
  for (std::size_t i = 0; i < 6; ++i) {
    nodes.push_back(std::make_unique<QuietStub>(
        "stub-" + std::to_string(i), 10 * 60.0, 1.0));
  }
  runtime::FleetController fleet(std::move(nodes), cfg);
  fleet.add_symptom_predictor(std::make_shared<LowPredictor>());
  fleet.run();

  auto& metrics = hub.metrics();
  std::uint64_t ticks = 0, steps = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
    ticks += metrics.counter("pfm_shard_ticks_total" + label).value();
    steps += metrics.counter("pfm_shard_node_steps_total" + label).value();
    EXPECT_GT(metrics.gauge("pfm_shard_nodes" + label).value(), 0.0);
  }
  EXPECT_EQ(ticks, metrics.counter("pfm_fleet_rounds_total").value());
  EXPECT_EQ(steps, metrics.counter("pfm_fleet_node_steps_total").value());
  EXPECT_GT(ticks, 0u);

  // A single-shard event-driven fleet registers no shard-labelled
  // metrics: its scrape is indistinguishable from the lockstep loop's.
  runtime::FleetConfig single;
  single.scheduler = runtime::FleetScheduler::kEventDriven;
  const auto t = run_stub_fleet(single, 2, 1.0);
  EXPECT_GT(t.rounds, 0u);
}

TEST(FleetShard, RejectsBadShardConfigs) {
  auto make_nodes = [] {
    std::vector<std::unique_ptr<core::ManagedSystem>> nodes;
    nodes.push_back(std::make_unique<QuietStub>("stub", 600.0, 1.0));
    return nodes;
  };
  runtime::FleetConfig cfg;
  cfg.num_shards = 0;
  EXPECT_THROW(runtime::FleetController(make_nodes(), cfg),
               std::invalid_argument);
  cfg.num_shards = 1;
  cfg.epoch_ticks = 0;
  EXPECT_THROW(runtime::FleetController(make_nodes(), cfg),
               std::invalid_argument);
  cfg.epoch_ticks = 1;
  cfg.scheduler = runtime::FleetScheduler::kEventDriven;
  cfg.num_shards = 2;  // one node cannot feed two shards
  EXPECT_THROW(runtime::FleetController(make_nodes(), cfg),
               std::invalid_argument);
  cfg.num_shards = 1;
  cfg.schedule.max_gap = 0;
  EXPECT_THROW(runtime::FleetController(make_nodes(), cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace pfm
