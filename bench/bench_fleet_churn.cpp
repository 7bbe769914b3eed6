// E16 (extension) — elastic membership under churn. Two arms:
//
//  1. Churn sweep: the same leak-heavy SCP fleet run under deterministic
//     MembershipPlans of increasing churn rate (staggered rolling
//     restarts), static (plan-only) vs elastic (plan + the
//     prediction-driven ElasticityPolicy adding capacity when the
//     fleet's failure-probability mass rises). Reports availability and
//     wall time per (churn rate, mode) as {"bench":"fleet_churn",...}
//     JSON rows.
//
//  2. Overhead arm: an ACTIVE membership config whose policy never
//     fires vs the inactive default, on a churn-free run. The barrier
//     bookkeeping is the entire cost of elasticity when nothing churns;
//     the acceptance budget (gated in tools/bench_to_json.py) is < 5%,
//     emitted as the {"bench":"fleet_churn_overhead",...} row.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "membership/membership_plan.hpp"
#include "prediction/baselines.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"

namespace {

using namespace pfm;

constexpr std::size_t kFleetNodes = 16;

bool g_quick = false;

double fleet_days() { return g_quick ? 0.125 : 0.5; }

telecom::SimConfig fleet_base_config(double days = fleet_days()) {
  telecom::SimConfig cfg;
  cfg.seed = 91;
  cfg.duration = days * 86400.0;
  cfg.leak_mtbf = 43200.0;  // leak-heavy: scores rise before failures
  return cfg;
}

struct TrainedBaselines {
  std::shared_ptr<const pred::SymptomPredictor> threshold;
  std::shared_ptr<const pred::SymptomPredictor> trend;
  std::shared_ptr<const pred::EventPredictor> dft;
};

TrainedBaselines train_baselines() {
  const auto g = bench::case_study_windows();
  const auto [train, test] = bench::make_case_study(5, /*days=*/4.0);
  (void)test;

  auto threshold = std::make_shared<pred::ThresholdPredictor>(g);
  threshold->train(train);
  auto trend = std::make_shared<pred::TrendPredictor>(g);
  trend->train(train);
  auto dft = std::make_shared<pred::DftPredictor>();
  dft->train(train.failure_sequences(g.data_window, g.lead_time),
             train.nonfailure_sequences(g.data_window, g.lead_time,
                                        g.prediction_window, 300.0));
  TrainedBaselines out;
  out.threshold = threshold;
  out.trend = trend;
  out.dft = dft;
  return out;
}

/// Staggered rolling restarts over the horizon: `events_per_day` churn
/// events, evenly spaced, walking the initial slots round-robin. A pure
/// function of its arguments, so every mode at a given rate replays the
/// identical churn.
membership::MembershipPlan churn_plan(double events_per_day) {
  membership::MembershipPlan plan;
  plan.seed = 4242;
  const std::size_t count =
      static_cast<std::size_t>(events_per_day * fleet_days() + 0.5);
  if (count == 0) return plan;
  const double spacing = fleet_base_config().duration /
                         static_cast<double>(count + 1);
  for (std::size_t i = 0; i < count; ++i) {
    plan.restart_node(spacing * static_cast<double>(i + 1), i % kFleetNodes);
  }
  return plan;
}

membership::NodeFactory scp_factory(double days = fleet_days()) {
  return [days](const membership::JoinContext& ctx) {
    telecom::SimConfig cfg = fleet_base_config(days);
    cfg.seed = ctx.seed;
    return std::make_unique<runtime::ScpManagedSystem>(cfg);
  };
}

struct ChurnRun {
  double wall = 0.0;
  runtime::FleetTelemetry t;
};

ChurnRun run_churn_fleet(const TrainedBaselines& preds,
                         const membership::MembershipConfig& membership,
                         double days = fleet_days()) {
  runtime::FleetConfig cfg;
  cfg.mea.windows = bench::case_study_windows();
  cfg.mea.evaluation_interval = 60.0;
  cfg.mea.warning_threshold = 0.6;
  cfg.num_threads = 4;
  cfg.scheduler = runtime::FleetScheduler::kEventDriven;
  cfg.num_shards = 4;
  cfg.epoch_ticks = 4;
  cfg.membership = membership;

  runtime::FleetController fleet(
      runtime::make_scp_fleet(fleet_base_config(days), kFleetNodes), cfg);
  fleet.add_symptom_predictor(preds.threshold);
  fleet.add_symptom_predictor(preds.trend);
  fleet.add_event_predictor(preds.dft);
  fleet.add_action([] { return std::make_unique<act::StateCleanupAction>(); });
  fleet.add_action(
      [] { return std::make_unique<act::PreparedRepairAction>(900.0); });

  ChurnRun out;
  const auto t0 = std::chrono::steady_clock::now();
  fleet.run();
  const auto t1 = std::chrono::steady_clock::now();
  out.wall = std::chrono::duration<double>(t1 - t0).count();
  out.t = fleet.telemetry();
  return out;
}

void emit_churn_row(const char* mode, double events_per_day,
                    const ChurnRun& r) {
  std::printf("  %-8s %-10.0f %-9.2f %-13.6f %-8llu %-8llu %-10llu %-10llu\n",
              mode, events_per_day, r.wall, r.t.system.availability(),
              static_cast<unsigned long long>(r.t.membership.nodes_joined),
              static_cast<unsigned long long>(r.t.membership.nodes_left),
              static_cast<unsigned long long>(r.t.membership.handoffs),
              static_cast<unsigned long long>(r.t.membership.scale_ups));
  bench::JsonLine()
      .field("bench", "fleet_churn")
      .field("mode", mode)
      .field("churn_events_per_day", events_per_day)
      .field("nodes", kFleetNodes)
      .field("live_nodes", r.t.nodes)
      .field("wall_seconds", r.wall)
      .field("availability", r.t.system.availability())
      .field("downtime", r.t.system.downtime)
      .field("nodes_joined", r.t.membership.nodes_joined)
      .field("nodes_left", r.t.membership.nodes_left)
      .field("handoffs", r.t.membership.handoffs)
      .field("scale_ups", r.t.membership.scale_ups)
      .field("drains", r.t.membership.drains)
      .field("warnings", r.t.warnings_raised)
      .field("actions", r.t.mea.total_actions())
      .field("node_steps", r.t.node_steps)
      .emit();
}

void print_churn_sweep(const TrainedBaselines& preds) {
  std::printf("== E16 (extension): availability and wall time vs churn "
              "rate, static vs elastic ==\n");
  std::printf("(%zu nodes x %.3f day(s); staggered rolling restarts; "
              "elastic adds prediction-driven scale-up)\n\n",
              kFleetNodes, fleet_days());
  std::printf("  %-8s %-10s %-9s %-13s %-8s %-8s %-10s %-10s\n", "mode",
              "churn/day", "wall [s]", "availability", "joined", "left",
              "handoffs", "scale_ups");

  const std::vector<double> rates = g_quick
                                        ? std::vector<double>{0.0, 8.0}
                                        : std::vector<double>{0.0, 4.0, 16.0};
  for (double rate : rates) {
    membership::MembershipConfig static_cfg;
    static_cfg.plan = churn_plan(rate);
    static_cfg.factory = scp_factory();
    emit_churn_row("static", rate, run_churn_fleet(preds, static_cfg));

    membership::MembershipConfig elastic_cfg = static_cfg;
    elastic_cfg.policy.enabled = true;
    // Preventive scale-up when the fleet's summed combined score says
    // ~45% of the fleet is trending toward failure.
    elastic_cfg.policy.scale_up_mass = 0.45 * kFleetNodes;
    elastic_cfg.policy.scale_up_nodes = 2;
    elastic_cfg.policy.cooldown_epochs = 32;
    elastic_cfg.policy.max_policy_joins = 8;
    emit_churn_row("elastic", rate, run_churn_fleet(preds, elastic_cfg));
  }
  std::printf("\n(restarts double as rejuvenation: a restarted slot "
              "returns leak-free, so moderate churn can raise "
              "availability on this workload)\n\n");
}

/// Overhead arm: the membership barrier on every epoch, with a policy
/// armed but never firing and zero planned churn, vs the inactive
/// default, as the median over interleaved off/on pairs over
/// bench::kOverheadArmDays (gated < 5%).
void print_churn_overhead(const TrainedBaselines& preds) {
  constexpr double days = bench::kOverheadArmDays;
  std::printf("== elastic overhead: armed-but-idle membership vs off, "
              "%zu nodes x %.2f day(s) ==\n",
              kFleetNodes, days);
  membership::MembershipConfig armed;
  armed.policy.enabled = true;
  armed.policy.scale_up_mass = 1e18;  // never crossed
  armed.policy.drain_score = 2.0;     // scores are probabilities <= 1
  armed.policy.failover_replace = false;
  armed.factory = scp_factory(days);
  std::uint64_t joined = 0;
  const auto o = bench::paired_overhead(
      [&] {
        return run_churn_fleet(preds, membership::MembershipConfig{}, days)
            .wall;
      },
      [&] {
        const auto r = run_churn_fleet(preds, armed, days);
        joined += r.t.membership.nodes_joined;
        return r.wall;
      });
  std::printf("  baseline %.3f s, armed %.3f s -> overhead %+.2f%% "
              "(median of %zu pairs, %+.2f%%..%+.2f%%; %llu policy joins "
              "— must be 0)\n\n",
              o.baseline_seconds, o.observed_seconds, o.median_pct, o.pairs,
              o.min_pct, o.max_pct, static_cast<unsigned long long>(joined));
  bench::JsonLine row;
  row.field("bench", "fleet_churn_overhead").field("nodes", kFleetNodes);
  o.fields(row).field("policy_joins", joined).emit();
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --quick before google-benchmark sees the argv.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") {
      g_quick = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  // No microbenchmarks here — both arms are whole-run experiments — so
  // google-benchmark is initialized only to honour its standard flags.
  benchmark::Initialize(&argc, argv);

  const auto preds = train_baselines();
  print_churn_sweep(preds);
  print_churn_overhead(preds);
  return 0;
}
