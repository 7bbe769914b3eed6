// DESIGN.md §10 — the online prediction-quality scoreboard. Two arms:
//
//  1. Scoreboard arm: the leak-heavy SCP fleet with the quality tracker
//     and the flight recorder armed. Reports the combined lane's live
//     windowed confusion tallies, precision/recall/F/fpr, the streaming
//     AUC, and the Eq. 8 self-assessed availability next to the measured
//     one, as the {"bench":"fleet_quality",...} JSON row.
//
//  2. Overhead arm: the same fleet with the scoreboard + flight recorder
//     on vs fully off. Per-instant pending-ring bookkeeping, sharded
//     outcome counters and the per-refresh Eq. 8 solve are the entire
//     cost; the acceptance budget (gated in tools/bench_to_json.py) is
//     < 5%, emitted as the {"bench":"fleet_quality_overhead",...} row.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string_view>

#include "bench_common.hpp"
#include "ctmc/pfm_model.hpp"
#include "obs/observability.hpp"
#include "obs/quality.hpp"
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

struct QualityRun {
  double wall = 0.0;
  runtime::FleetTelemetry t;
  // Combined-lane tallies (only meaningful when the scoreboard ran).
  obs::ConfusionCounts window;
  obs::ConfusionCounts lifetime;
  double auc = 0.5;
  double model_availability = 0.0;
  std::uint64_t post_mortems = 0;
};

QualityRun run_quality_fleet(const TrainedBaselines& preds, bool quality_on,
                             double days = fleet_days()) {
  // Both arms share one external hub shape so the toggle isolates the
  // scoreboard + flight recorder, not hub-vs-private bookkeeping.
  obs::ObservabilityConfig ocfg;
  ocfg.shards = 4;
  ocfg.flight_capacity = quality_on ? 32 : 0;
  obs::Observability hub(ocfg);

  runtime::FleetConfig cfg;
  cfg.mea.windows = bench::case_study_windows();
  cfg.mea.evaluation_interval = 60.0;
  cfg.mea.warning_threshold = 0.6;
  cfg.num_threads = 4;
  cfg.scheduler = runtime::FleetScheduler::kEventDriven;
  cfg.num_shards = 4;
  cfg.epoch_ticks = 4;
  cfg.quality = quality_on;
  cfg.obs = &hub;

  runtime::FleetController fleet(
      runtime::make_scp_fleet(fleet_base_config(days), kFleetNodes), cfg);
  fleet.add_symptom_predictor(preds.threshold);
  fleet.add_symptom_predictor(preds.trend);
  fleet.add_event_predictor(preds.dft);
  fleet.add_action([] { return std::make_unique<act::StateCleanupAction>(); });
  fleet.add_action(
      [] { return std::make_unique<act::PreparedRepairAction>(900.0); });

  QualityRun out;
  const auto t0 = std::chrono::steady_clock::now();
  fleet.run();
  const auto t1 = std::chrono::steady_clock::now();
  out.wall = std::chrono::duration<double>(t1 - t0).count();
  out.t = fleet.telemetry();
  if (const auto* q = fleet.quality_tracker()) {
    const std::size_t lane = q->combined_lane();
    out.window = q->windowed(lane);
    out.lifetime = q->cumulative(lane);
    out.auc = q->auc_estimate(lane);
    ctmc::PfmModelParams params;
    params.quality = ctmc::clamped_quality(out.window.precision(),
                                           out.window.recall(),
                                           out.window.false_positive_rate());
    out.model_availability =
        ctmc::PfmAvailabilityModel(params).availability_closed_form();
  }
  if (hub.flight() != nullptr) out.post_mortems = hub.flight()->dump_count();
  return out;
}

void print_quality_scoreboard(const TrainedBaselines& preds) {
  std::printf("== DESIGN.md §10: online quality scoreboard and Eq. 8 "
              "self-assessment ==\n");
  std::printf("(%zu nodes x %.3f day(s); combined lane, windowed tallies; "
              "model availability from the live clamped quality)\n\n",
              kFleetNodes, fleet_days());

  const QualityRun r = run_quality_fleet(preds, /*quality_on=*/true);
  const double measured = r.t.system.availability();
  const double drift = r.model_availability - measured;
  std::printf("  window   tp %llu fp %llu tn %llu fn %llu\n",
              static_cast<unsigned long long>(r.window.true_positives),
              static_cast<unsigned long long>(r.window.false_positives),
              static_cast<unsigned long long>(r.window.true_negatives),
              static_cast<unsigned long long>(r.window.false_negatives));
  std::printf("  quality  precision %.4f recall %.4f F %.4f fpr %.4f "
              "auc %.4f\n",
              r.window.precision(), r.window.recall(), r.window.f_measure(),
              r.window.false_positive_rate(), r.auc);
  std::printf("  Eq. 8    model %.6f measured %.6f drift %+.6f\n",
              r.model_availability, measured, drift);
  std::printf("  lifetime %llu instants resolved, %llu post-mortem(s)\n\n",
              static_cast<unsigned long long>(r.lifetime.total()),
              static_cast<unsigned long long>(r.post_mortems));
  bench::JsonLine()
      .field("bench", "fleet_quality")
      .field("nodes", kFleetNodes)
      .field("wall_seconds", r.wall)
      .field("tp", r.window.true_positives)
      .field("fp", r.window.false_positives)
      .field("tn", r.window.true_negatives)
      .field("fn", r.window.false_negatives)
      .field("precision", r.window.precision())
      .field("recall", r.window.recall())
      .field("f_measure", r.window.f_measure())
      .field("fpr", r.window.false_positive_rate())
      .field("auc", r.auc)
      .field("model_availability", r.model_availability)
      .field("measured_availability", measured)
      .field("availability_drift", drift)
      .field("instants_resolved", r.lifetime.total())
      .field("post_mortems", r.post_mortems)
      .field("warnings", r.t.warnings_raised)
      .field("actions", r.t.mea.total_actions())
      .emit();
}

/// Overhead arm: scoreboard + flight recorder on vs off on an otherwise
/// identical fleet, as the median over interleaved off/on pairs over
/// bench::kOverheadArmDays (gated < 5%).
void print_quality_overhead(const TrainedBaselines& preds) {
  constexpr double days = bench::kOverheadArmDays;
  std::printf("== quality overhead: scoreboard + flight recorder vs off, "
              "%zu nodes x %.2f day(s) ==\n",
              kFleetNodes, days);
  std::uint64_t resolved = 0;
  const auto o = bench::paired_overhead(
      [&] { return run_quality_fleet(preds, /*quality_on=*/false, days).wall; },
      [&] {
        const auto r = run_quality_fleet(preds, /*quality_on=*/true, days);
        resolved = r.lifetime.total();
        return r.wall;
      });
  std::printf("  baseline %.3f s, scoreboard %.3f s -> overhead %+.2f%% "
              "(median of %zu pairs, %+.2f%%..%+.2f%%; %llu instants "
              "resolved — must be > 0)\n\n",
              o.baseline_seconds, o.observed_seconds, o.median_pct, o.pairs,
              o.min_pct, o.max_pct, static_cast<unsigned long long>(resolved));
  bench::JsonLine row;
  row.field("bench", "fleet_quality_overhead").field("nodes", kFleetNodes);
  o.fields(row).field("instants_resolved", resolved).emit();
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
  print_quality_scoreboard(preds);
  print_quality_overhead(preds);
  return 0;
}
