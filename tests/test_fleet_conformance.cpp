// Conformance suite of the fleet hot path: the arena-backed batch
// scorers (SoA UBF sweep, scratch-backed regression, sorted-id
// membership) must reproduce score() bit for bit, and a fleet run must
// be *bit-identical* in every observable — telemetry, per-node MEA
// statistics and every sim-time export — at 2 and 8 threads to the
// 1-thread run, on a healthy fleet and under a hostile fault plan. The
// absolute values are pinned by test_fleet_golden.cpp.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "injection/injector.hpp"
#include "obs/export.hpp"
#include "obs/observability.hpp"
#include "prediction/baselines.hpp"
#include "prediction/ubf.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"
#include "telecom/simulator.hpp"

namespace pfm {
namespace {

constexpr std::size_t kNodes = 6;
constexpr double kDuration = 0.3 * 86400.0;

pred::WindowGeometry geometry() { return {600.0, 300.0, 300.0}; }

/// The predictor ensemble, trained once per process on a simulated SCP
/// trace and shared read-only by every run of the suite: a UBF (the SoA
/// kernel sweep), a trend baseline (the regression scratch) and an
/// eventset miner (the sorted-id membership scratch) — one exerciser per
/// arena-backed code path.
struct Ensemble {
  std::shared_ptr<const pred::SymptomPredictor> ubf;
  std::shared_ptr<const pred::SymptomPredictor> trend;
  std::shared_ptr<const pred::EventPredictor> eventset;
  mon::MonitoringDataset train_trace{mon::SymptomSchema({"unused"})};
};

const Ensemble& ensemble() {
  static const Ensemble shared = [] {
    telecom::SimConfig cfg;
    cfg.seed = 5;
    cfg.duration = 4.0 * 86400.0;
    telecom::ScpSimulator sim(cfg);
    sim.run();
    const auto trace = sim.take_trace();
    const auto g = geometry();

    pred::UbfConfig ubf_cfg;
    ubf_cfg.windows = g;
    ubf_cfg.num_kernels = 4;
    ubf_cfg.pwa_iterations = 25;
    ubf_cfg.shape_evaluations = 120;
    ubf_cfg.max_train_windows = 1200;
    auto ubf = std::make_shared<pred::UbfPredictor>(ubf_cfg);
    ubf->train(trace);

    auto trend = std::make_shared<pred::TrendPredictor>(g);
    trend->train(trace);

    auto eventset = std::make_shared<pred::EventsetPredictor>();
    eventset->train(trace.failure_sequences(g.data_window, g.lead_time),
                    trace.nonfailure_sequences(g.data_window, g.lead_time,
                                               g.prediction_window, 300.0));

    Ensemble out;
    out.ubf = std::move(ubf);
    out.trend = std::move(trend);
    out.eventset = std::move(eventset);
    out.train_trace = trace;
    return out;
  }();
  return shared;
}

// --- predictor-level bit-identity -------------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The arena overloads (SoA UBF sweep, scratch-backed regression,
/// sorted-id membership) must reproduce score() bit for bit — same
/// rounding, same FP contraction, same accumulation order.
TEST(FleetConformance, ArenaScoreBatchesAreBitIdenticalToReference) {
  const auto& e = ensemble();
  const auto samples = e.train_trace.samples();
  const auto g = geometry();
  ASSERT_GE(samples.size(), 400u);

  std::vector<pred::SymptomContext> contexts;
  for (std::size_t start = 0; start + 20 <= samples.size() &&
                              contexts.size() < 64;
       start += samples.size() / 64) {
    pred::SymptomContext ctx;
    ctx.history = samples.subspan(start, 20);
    ctx.past_failures = e.train_trace.failures();
    contexts.push_back(ctx);
  }
  ASSERT_GE(contexts.size(), 32u);

  pred::BatchScratch scratch;
  std::vector<double> reference(contexts.size());
  std::vector<double> optimized(contexts.size());
  for (const auto* p : {e.ubf.get(), e.trend.get()}) {
    for (std::size_t i = 0; i < contexts.size(); ++i) {
      reference[i] = p->score(contexts[i]);
    }
    p->score_batch(contexts, optimized, scratch);
    for (std::size_t i = 0; i < contexts.size(); ++i) {
      EXPECT_EQ(bits(reference[i]), bits(optimized[i]))
          << p->name() << " context " << i;
    }
    // Second pass through the warm (possibly oversized) arena: reuse
    // must not change results either.
    p->score_batch(contexts, optimized, scratch);
    for (std::size_t i = 0; i < contexts.size(); ++i) {
      EXPECT_EQ(bits(reference[i]), bits(optimized[i]))
          << p->name() << " warm-arena context " << i;
    }
  }

  const auto sequences =
      e.train_trace.failure_sequences(g.data_window, g.lead_time);
  ASSERT_FALSE(sequences.empty());
  std::vector<double> seq_ref(sequences.size());
  std::vector<double> seq_opt(sequences.size());
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    seq_ref[i] = e.eventset->score(sequences[i]);
  }
  e.eventset->score_batch(sequences, seq_opt, scratch);
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    EXPECT_EQ(bits(seq_ref[i]), bits(seq_opt[i])) << "sequence " << i;
  }
}

// --- fleet-level conformance -------------------------------------------------

/// Everything observable about one fleet run except wall time.
struct Artifacts {
  std::string prometheus;
  std::string trace_json;
  std::string json_line;
  std::uint64_t dropped = 0;
  std::size_t rounds = 0;
  std::size_t scores = 0;
  std::size_t warnings = 0;
  std::size_t sanitized = 0;
  std::size_t node_faults = 0;
  std::size_t quarantined = 0;
  std::size_t breaker_trips = 0;
  std::size_t total_actions = 0;
  double downtime = 0.0;
  double simulated = 0.0;
  std::int64_t failures = 0;
  std::vector<std::size_t> node_warnings;
  std::vector<bool> node_quarantined;
  std::vector<std::string> node_reason;
};

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

Artifacts run_fleet(std::size_t threads, bool hostile) {
  obs::ObservabilityConfig ocfg;
  ocfg.shards = threads;
  ocfg.trace_capacity = 1 << 15;
  obs::Observability hub(ocfg);

  telecom::SimConfig sim;
  sim.seed = 21;
  sim.duration = kDuration;
  sim.leak_mtbf = 21600.0;  // enough pressure to raise warnings

  runtime::FleetConfig cfg;
  cfg.mea.windows = geometry();
  cfg.mea.warning_threshold = 0.6;
  cfg.mea.action_cooldown = 600.0;
  cfg.num_threads = threads;
  cfg.obs = &hub;

  const auto& e = ensemble();
  auto nodes = runtime::make_scp_fleet(sim, kNodes);

  inj::FaultInjector injector(hostile_plan());
  injector.set_observability(&hub);

  auto make_cleanup = [] {
    return std::make_unique<act::StateCleanupAction>(0.70);
  };
  auto make_repair = [] {
    return std::make_unique<act::PreparedRepairAction>(1800.0);
  };

  runtime::FleetController fleet(
      hostile ? injector.wrap_fleet(std::move(nodes)) : std::move(nodes),
      cfg);
  if (hostile) {
    fleet.add_symptom_predictor(injector.wrap_symptom_predictor(0, e.ubf));
    fleet.add_symptom_predictor(injector.wrap_symptom_predictor(1, e.trend));
    fleet.add_event_predictor(injector.wrap_event_predictor(0, e.eventset));
    fleet.add_action(injector.wrap_action_factory(0, make_cleanup));
    fleet.add_action(injector.wrap_action_factory(1, make_repair));
  } else {
    fleet.add_symptom_predictor(e.ubf);
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
  out.scores = t.scores_computed;
  out.warnings = t.warnings_raised;
  out.sanitized = t.resilience.scores_sanitized;
  out.node_faults = t.resilience.node_faults;
  out.quarantined = t.resilience.nodes_quarantined;
  out.breaker_trips = t.resilience.breaker_trips;
  out.total_actions = t.mea.total_actions();
  out.downtime = t.system.downtime;
  out.simulated = t.system.simulated;
  out.failures = t.system.failures;
  for (std::size_t i = 0; i < fleet.num_nodes(); ++i) {
    out.node_warnings.push_back(fleet.node_mea_stats(i).warnings);
    out.node_quarantined.push_back(fleet.node_quarantined(i));
    out.node_reason.push_back(fleet.node_quarantine_reason(i));
  }
  return out;
}

void expect_identical(const Artifacts& a, const Artifacts& b) {
  // Bit-identity: doubles compared exactly, exports byte for byte.
  EXPECT_EQ(a.prometheus, b.prometheus);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.json_line, b.json_line);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.scores, b.scores);
  EXPECT_EQ(a.warnings, b.warnings);
  EXPECT_EQ(a.sanitized, b.sanitized);
  EXPECT_EQ(a.node_faults, b.node_faults);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.breaker_trips, b.breaker_trips);
  EXPECT_EQ(a.total_actions, b.total_actions);
  EXPECT_EQ(bits(a.downtime), bits(b.downtime));
  EXPECT_EQ(bits(a.simulated), bits(b.simulated));
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.node_warnings, b.node_warnings);
  EXPECT_EQ(a.node_quarantined, b.node_quarantined);
  EXPECT_EQ(a.node_reason, b.node_reason);
}

void run_matrix(bool hostile) {
  const auto canonical = run_fleet(1, hostile);
  ASSERT_EQ(canonical.dropped, 0u);
  EXPECT_GT(canonical.rounds, 0u);
  EXPECT_GT(canonical.warnings, 0u) << "scenario too tame to exercise Act";
  if (hostile) {
    EXPECT_GT(canonical.quarantined, 0u) << "plan injected no node faults";
  }

  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(std::string(hostile ? "hostile" : "clean") +
                 " threads=" + std::to_string(threads));
    const auto run = run_fleet(threads, hostile);
    ASSERT_EQ(run.dropped, 0u);
    expect_identical(canonical, run);
  }
}

TEST(FleetConformance, CleanFleetIsBitIdenticalAcrossThreadCounts) {
  run_matrix(/*hostile=*/false);
}

TEST(FleetConformance, HostileFleetIsBitIdenticalAcrossThreadCounts) {
  run_matrix(/*hostile=*/true);
}

}  // namespace
}  // namespace pfm
