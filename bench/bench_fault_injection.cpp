// E15 (extension) — fleet availability under injected component faults.
// Sweeps a fault-rate knob that scales a deterministic FaultPlan (dropped
// samples, NaN/throwing predictors, flaky actions, plus a scripted crash
// and hang at the higher rates) over an 8-node fleet. The hardened round
// quarantines, retries and trips breakers its way to the horizon, so
// availability and coverage degrade gracefully with the rate. One JSON
// line per fault rate (scrapeable via the {"bench":"fault_injection",...}
// prefix).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "injection/injector.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"

namespace {

using namespace pfm;

constexpr std::size_t kFleetNodes = 8;
constexpr double kDuration = 0.5 * 86400.0;

telecom::SimConfig fleet_base_config() {
  telecom::SimConfig cfg;
  cfg.seed = 77;
  cfg.duration = kDuration;
  cfg.leak_mtbf = 21600.0;  // leak-heavy: plenty of warnings to act on
  return cfg;
}

/// Memory-pressure oracle: the bench measures runtime dependability, not
/// prediction quality, so the predictor is a trivially cheap direct read.
class PressurePredictor final : public pred::SymptomPredictor {
 public:
  explicit PressurePredictor(std::size_t pressure_index)
      : index_(pressure_index) {}
  std::string name() const override { return "pressure-oracle"; }
  void train(const mon::MonitoringDataset&) override {}
  double score(const pred::SymptomContext& ctx) const override {
    return ctx.history.back().values.at(index_);
  }

 private:
  std::size_t index_;
};

std::size_t pressure_index() {
  telecom::ScpSimulator sim(fleet_base_config());
  return *sim.trace().schema().index("mem_pressure_max");
}

/// Scales one deterministic fault scenario by `rate` in [0,1]. rate=0 is
/// the empty plan; higher rates add probabilistic faults on every
/// component plus a scripted crash (rate >= 0.05) and hang (rate >= 0.1).
inj::FaultPlan make_plan(double rate) {
  inj::FaultPlan plan;
  plan.seed = 424242;
  plan.default_node.drop_sample_p = 0.5 * rate;
  plan.default_predictor.throw_p = 0.25 * rate;
  plan.default_predictor.nan_p = 0.25 * rate;
  plan.default_action.fail_p = std::min(0.8, 4.0 * rate);
  plan.default_action.partial_p = rate;
  // Explicit node entries replace the default spec, so re-apply it.
  if (rate >= 0.05) {
    plan.nodes[1] = plan.default_node;
    plan.nodes[1].crash_at = 0.25 * kDuration;
  }
  if (rate >= 0.10) {
    plan.nodes[2] = plan.default_node;
    plan.nodes[2].hang_at = 0.5 * kDuration;
    plan.nodes[2].hang_steps = 10;
  }
  return plan;
}

struct RateResult {
  runtime::FleetTelemetry telemetry;
  inj::InjectionStats injected;
};

RateResult run_rate(double rate) {
  inj::FaultInjector injector(make_plan(rate));

  runtime::FleetConfig cfg;
  cfg.mea.evaluation_interval = 60.0;
  cfg.mea.warning_threshold = 0.72;
  cfg.num_threads = 4;

  runtime::FleetController fleet(
      injector.wrap_fleet(runtime::make_scp_fleet(fleet_base_config(),
                                                  kFleetNodes)),
      cfg);
  fleet.add_symptom_predictor(injector.wrap_symptom_predictor(
      0, std::make_shared<PressurePredictor>(pressure_index())));
  fleet.add_action(injector.wrap_action_factory(0, [] {
    return std::make_unique<act::StateCleanupAction>(0.70);
  }));
  fleet.add_action(injector.wrap_action_factory(1, [] {
    return std::make_unique<act::PreparedRepairAction>(900.0);
  }));

  fleet.run();
  RateResult out;
  out.telemetry = fleet.telemetry();
  out.injected = injector.stats();
  return out;
}

void print_experiment() {
  std::printf("== E15 (extension): fleet availability vs injected fault "
              "rate ==\n");
  std::printf("(%zu nodes x %.1f day(s); hardened round = quarantine + "
              "retry + circuit breakers)\n\n",
              kFleetNodes, kDuration / 86400.0);
  std::printf("  %-6s %-13s %-10s %-12s %s\n", "rate", "availability",
              "coverage", "quarantined", "injected");

  for (double rate : {0.0, 0.02, 0.05, 0.1, 0.2}) {
    const auto r = run_rate(rate);
    const auto& t = r.telemetry;
    const double coverage =
        t.system.simulated / (static_cast<double>(kFleetNodes) * kDuration);
    std::printf("  %-6.2f %-13.6f %-10.4f %-12zu %zu\n", rate,
                t.system.availability(), coverage,
                t.resilience.nodes_quarantined, r.injected.total());
    bench::JsonLine()
        .field("bench", "fault_injection")
        .field("fault_rate", rate)
        .field("availability", t.system.availability())
        .field("coverage", coverage)
        .field("rounds", t.rounds)
        .field("warnings", t.warnings_raised)
        .field("actions", t.mea.total_actions())
        .field("nodes_quarantined", t.resilience.nodes_quarantined)
        .field("breaker_trips", t.resilience.breaker_trips)
        .field("scores_sanitized", t.resilience.scores_sanitized)
        .field("action_faults", t.mea.action_faults)
        .field("action_retries", t.mea.action_retries)
        .field("actions_abandoned", t.mea.actions_abandoned)
        .field("injected_total", r.injected.total())
        .field("injected_crashes", r.injected.node_crashes)
        .field("injected_hangs", r.injected.node_hangs)
        .field("injected_samples_dropped", r.injected.samples_dropped)
        .field("injected_predictor_faults",
               r.injected.predictor_throws + r.injected.predictor_nans)
        .field("injected_action_failures", r.injected.action_failures)
        .emit();
  }
  std::printf("\n(coverage degrades gracefully with the rate — only "
              "quarantined nodes stop accumulating simulated time)\n\n");
}

/// Per-round cost of the hardened round on a fault-free fleet: the
/// captured parallel-for, breaker bookkeeping and finite checks when none
/// of them ever engage.
void BM_FleetRound(benchmark::State& state) {
  auto cfg_base = fleet_base_config();
  cfg_base.duration = 14.0 * 86400.0;  // never exhausted by the timing loop
  runtime::FleetConfig cfg;
  cfg.mea.evaluation_interval = 60.0;
  cfg.mea.warning_threshold = 0.72;
  cfg.num_threads = 1;
  runtime::FleetController fleet(runtime::make_scp_fleet(cfg_base, kFleetNodes),
                                 cfg);
  fleet.add_symptom_predictor(
      std::make_shared<PressurePredictor>(pressure_index()));
  double t = 0.0;
  for (auto _ : state) {
    t += cfg.mea.evaluation_interval;
    fleet.run_until(t);
    benchmark::DoNotOptimize(fleet.telemetry().rounds);
  }
}
BENCHMARK(BM_FleetRound)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
