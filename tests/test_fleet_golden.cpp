// Golden fingerprints of the fleet runtime: the FNV-1a-64 of every
// include_wall=false export (Prometheus text, Chrome trace JSON, JSON
// line), of the telemetry() view plus the per-node and per-predictor
// state, and — with the flight recorder on — of the post-mortem text, for
// default-config SCP fleets in four scenarios (clean, hostile fault plan,
// membership churn, quality scoreboard + flight recorder). Each scenario
// runs at 1, 2 and 8 threads and must hit the same pinned values, so this
// file is the oracle every execution-path change is judged against.
//
// The values depend on libm only (glibc's exp/log/sqrt/pow), not on the C++
// standard library: num::Rng owns its engine and every sampler.
// To regenerate after an intended change to seeded numbers, run the binary
// with PFM_GOLDEN_PRINT=1 and paste the printed table over kGolden.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
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

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Trained once per process on a simulated SCP trace and shared read-only
/// by every run: one exerciser per batch-scoring body (UBF's SoA kernel
/// sweep, trend regression, threshold level, eventset membership, DFT
/// rules).
struct Ensemble {
  std::shared_ptr<const pred::SymptomPredictor> ubf;
  std::shared_ptr<const pred::SymptomPredictor> trend;
  std::shared_ptr<const pred::SymptomPredictor> threshold;
  std::shared_ptr<const pred::EventPredictor> eventset;
  std::shared_ptr<const pred::EventPredictor> dft;
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
    auto threshold = std::make_shared<pred::ThresholdPredictor>(g);
    threshold->train(trace);

    const auto failing = trace.failure_sequences(g.data_window, g.lead_time);
    const auto quiet = trace.nonfailure_sequences(
        g.data_window, g.lead_time, g.prediction_window, 300.0);
    auto eventset = std::make_shared<pred::EventsetPredictor>();
    eventset->train(failing, quiet);
    auto dft = std::make_shared<pred::DftPredictor>();
    dft->train(failing, quiet);

    Ensemble out;
    out.ubf = std::move(ubf);
    out.trend = std::move(trend);
    out.threshold = std::move(threshold);
    out.eventset = std::move(eventset);
    out.dft = std::move(dft);
    return out;
  }();
  return shared;
}

enum class Scenario { kClean, kHostile, kMembership, kQuality };

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kClean: return "Clean";
    case Scenario::kHostile: return "Hostile";
    case Scenario::kMembership: return "Membership";
    case Scenario::kQuality: return "Quality";
  }
  return "?";
}

/// The hostile plan of the conformance suite: a crash, a hang, dropped and
/// corrupted samples, a NaN/throwing predictor and a failing action.
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

/// Scale-out, leave, drain and restart, all on a healthy fleet.
membership::MembershipPlan churn_plan() {
  membership::MembershipPlan plan;
  plan.seed = 2026;
  plan.scale_out(3000.0, 2, 120.0)
      .node_leave(5000.0, 4)
      .drain_node(8000.0, 3)
      .restart_node(12000.0, 1)
      .rolling_restart(15000.0, 6, 2, 300.0);
  return plan;
}

std::string hex_bits(double x) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64,
                std::bit_cast<std::uint64_t>(x));
  return buf;
}

/// Every deterministic telemetry() field (latency is wall time and left
/// out), then the per-node state with its retained symptom samples and the
/// per-predictor state, one token per value.
std::string telemetry_text(const runtime::FleetController& fleet,
                           std::size_t num_predictors) {
  const auto t = fleet.telemetry();
  std::string s;
  auto put = [&s](const char* key, std::uint64_t v) {
    s += key;
    s += '=';
    s += std::to_string(v);
    s += ' ';
  };
  put("nodes", t.nodes);
  put("rounds", t.rounds);
  put("epochs", t.epochs);
  put("node_steps", t.node_steps);
  put("scores", t.scores_computed);
  put("warnings", t.warnings_raised);
  put("node_faults", t.resilience.node_faults);
  put("quarantined", t.resilience.nodes_quarantined);
  put("stalls", t.resilience.stall_detections);
  put("predictor_faults", t.resilience.predictor_faults);
  put("breaker_trips", t.resilience.breaker_trips);
  put("breakers_open", t.resilience.breakers_open);
  put("sanitized", t.resilience.scores_sanitized);
  put("joined", t.membership.nodes_joined);
  put("left", t.membership.nodes_left);
  put("handoffs", t.membership.handoffs);
  put("scale_ups", t.membership.scale_ups);
  put("drains", t.membership.drains);
  put("evaluations", t.mea.evaluations);
  put("mea_warnings", t.mea.warnings);
  for (const std::size_t a : t.mea.actions_by_kind) put("action", a);
  put("mea_sanitized", t.mea.scores_sanitized);
  put("action_faults", t.mea.action_faults);
  put("action_retries", t.mea.action_retries);
  put("abandoned", t.mea.actions_abandoned);
  put("requests", static_cast<std::uint64_t>(t.system.total_requests));
  put("violations", static_cast<std::uint64_t>(t.system.violations));
  put("failures", static_cast<std::uint64_t>(t.system.failures));
  put("shed", static_cast<std::uint64_t>(t.system.shed_requests));
  put("restarts", static_cast<std::uint64_t>(t.system.preventive_restarts));
  put("prepared", static_cast<std::uint64_t>(t.system.prepared_repairs));
  put("unprepared", static_cast<std::uint64_t>(t.system.unprepared_repairs));
  s += "downtime=" + hex_bits(t.system.downtime) + ' ';
  s += "simulated=" + hex_bits(t.system.simulated) + '\n';
  for (std::size_t i = 0; i < fleet.num_nodes(); ++i) {
    const auto& st = fleet.node_mea_stats(i);
    s += "node " + std::to_string(i) + ' ';
    put("evals", st.evaluations);
    put("warned", st.warnings);
    put("actions", st.total_actions());
    put("q", fleet.node_quarantined(i) ? 1 : 0);
    put("departed", fleet.node_departed(i) ? 1 : 0);
    put("incarnation", fleet.node_incarnation(i));
    s += "now=" + hex_bits(fleet.node(i).now()) + ' ';
    s += "reason=" + fleet.node_quarantine_reason(i) + '\n';
    // The symptom values themselves: append counts plus every retained
    // sample, bit for bit, so a change to what the managed system measures
    // moves this fingerprint even where no warning or export notices.
    const auto& trace = fleet.node(i).trace();
    put("samples", trace.sample_count());
    put("events", trace.event_count());
    for (const auto& sample : trace.samples()) {
      s += hex_bits(sample.time);
      for (const double v : sample.values) s += ':' + hex_bits(v);
      s += ' ';
    }
    s += '\n';
  }
  for (std::size_t p = 0; p < num_predictors; ++p) {
    s += "predictor " + std::to_string(p) + " tripped=" +
         (fleet.predictor_tripped(p) ? "1" : "0") + '\n';
  }
  return s;
}

struct Fingerprint {
  std::uint64_t prometheus = 0;
  std::uint64_t trace = 0;
  std::uint64_t json_line = 0;
  std::uint64_t telemetry = 0;
  std::uint64_t post_mortems = 0;  ///< 0 when the flight recorder is off
};

struct Run {
  Fingerprint fp;
  std::uint64_t dropped = 0;
  std::string telemetry;
};

Run run_scenario(Scenario scenario, std::size_t threads) {
  const bool hostile =
      scenario == Scenario::kHostile || scenario == Scenario::kQuality;
  obs::ObservabilityConfig ocfg;
  ocfg.shards = threads;
  ocfg.trace_capacity = 1 << 16;
  if (scenario == Scenario::kQuality) ocfg.flight_capacity = 32;
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
  if (scenario == Scenario::kQuality) cfg.quality = true;
  if (scenario == Scenario::kMembership) {
    cfg.membership.plan = churn_plan();
    cfg.membership.factory = [sim](const membership::JoinContext& ctx)
        -> std::unique_ptr<core::ManagedSystem> {
      telecom::SimConfig joiner = sim;
      joiner.seed = ctx.seed;
      return std::make_unique<runtime::ScpManagedSystem>(joiner);
    };
  }

  const auto& e = ensemble();
  inj::FaultInjector injector(hostile_plan());
  injector.set_observability(&hub);
  auto nodes = runtime::make_scp_fleet(sim, kNodes);
  auto make_cleanup = [] {
    return std::make_unique<act::StateCleanupAction>(0.70);
  };
  auto make_repair = [] {
    return std::make_unique<act::PreparedRepairAction>(1800.0);
  };

  runtime::FleetController fleet(
      hostile ? injector.wrap_fleet(std::move(nodes)) : std::move(nodes), cfg);
  if (hostile) {
    fleet.add_symptom_predictor(injector.wrap_symptom_predictor(0, e.ubf));
    fleet.add_symptom_predictor(injector.wrap_symptom_predictor(1, e.trend));
    fleet.add_symptom_predictor(
        injector.wrap_symptom_predictor(2, e.threshold));
    fleet.add_event_predictor(injector.wrap_event_predictor(0, e.eventset));
    fleet.add_event_predictor(injector.wrap_event_predictor(4, e.dft));
    fleet.add_action(injector.wrap_action_factory(0, make_cleanup));
    fleet.add_action(injector.wrap_action_factory(1, make_repair));
  } else {
    fleet.add_symptom_predictor(e.ubf);
    fleet.add_symptom_predictor(e.trend);
    fleet.add_symptom_predictor(e.threshold);
    fleet.add_event_predictor(e.eventset);
    fleet.add_event_predictor(e.dft);
    fleet.add_action(make_cleanup);
    fleet.add_action(make_repair);
  }
  fleet.run();

  Run out;
  out.fp.prometheus =
      fnv1a64(obs::prometheus_text(hub.metrics(), /*include_wall=*/false));
  out.fp.trace =
      fnv1a64(obs::chrome_trace_json(hub.trace(), /*include_wall=*/false));
  out.fp.json_line =
      fnv1a64(obs::metrics_json_line(hub.metrics(), /*include_wall=*/false));
  out.telemetry = telemetry_text(fleet, 5);
  out.fp.telemetry = fnv1a64(out.telemetry);
  if (hub.flight() != nullptr) {
    out.fp.post_mortems = fnv1a64(hub.flight()->post_mortems_text());
  }
  out.dropped = hub.trace().dropped();
  return out;
}

struct Golden {
  Scenario scenario;
  Fingerprint fp;
};

// clang-format off
constexpr Golden kGolden[] = {
    {Scenario::kClean,
     {0x4d6a9e0b2cf7e4d6ULL, 0x43f02af1dd2afcfeULL, 0xe8e5cba52e6089d0ULL,
      0xb87e7e44b4e3260dULL, 0x0000000000000000ULL}},
    {Scenario::kHostile,
     {0x892f0fd7d2b89caaULL, 0x8c6ab51c047d2f0cULL, 0x8e59f2240e8c7d3cULL,
      0xa93ae71f6b97cd65ULL, 0x0000000000000000ULL}},
    {Scenario::kMembership,
     {0x7430f12231888317ULL, 0xd4555ebcf2a6ce3bULL, 0xe601d683e479010dULL,
      0x1de0fcef0f343f91ULL, 0x0000000000000000ULL}},
    {Scenario::kQuality,
     {0xe02f05252471251dULL, 0x8c6ab51c047d2f0cULL, 0xa641bfb46b38e524ULL,
      0xa93ae71f6b97cd65ULL, 0x2b0bf839e020c756ULL}},
};
// clang-format on

void print_golden(Scenario scenario, const Fingerprint& fp) {
  std::printf(
      "    {Scenario::k%s,\n"
      "     {0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64
      "ULL,\n      0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL}},\n",
      scenario_name(scenario), fp.prometheus, fp.trace, fp.json_line,
      fp.telemetry, fp.post_mortems);
}

void check_scenario(Scenario scenario) {
  const Golden* golden = nullptr;
  for (const auto& g : kGolden) {
    if (g.scenario == scenario) golden = &g;
  }
  ASSERT_NE(golden, nullptr);
  const bool print = std::getenv("PFM_GOLDEN_PRINT") != nullptr;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(std::string(scenario_name(scenario)) +
                 " threads=" + std::to_string(threads));
    const Run run = run_scenario(scenario, threads);
    ASSERT_EQ(run.dropped, 0u) << "trace ring too small for the scenario";
    if (print && threads == 1) print_golden(scenario, run.fp);
    EXPECT_EQ(run.fp.prometheus, golden->fp.prometheus);
    EXPECT_EQ(run.fp.trace, golden->fp.trace);
    EXPECT_EQ(run.fp.json_line, golden->fp.json_line);
    EXPECT_EQ(run.fp.telemetry, golden->fp.telemetry) << run.telemetry;
    EXPECT_EQ(run.fp.post_mortems, golden->fp.post_mortems);
  }
}

TEST(FleetGolden, CleanFleetMatchesPinnedFingerprints) {
  check_scenario(Scenario::kClean);
}

TEST(FleetGolden, HostileFleetMatchesPinnedFingerprints) {
  check_scenario(Scenario::kHostile);
}

TEST(FleetGolden, MembershipChurnMatchesPinnedFingerprints) {
  check_scenario(Scenario::kMembership);
}

TEST(FleetGolden, QualityAndFlightRecorderMatchPinnedFingerprints) {
  check_scenario(Scenario::kQuality);
}

}  // namespace
}  // namespace pfm
