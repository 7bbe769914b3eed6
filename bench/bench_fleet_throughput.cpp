// E14 (extension) — fleet-scale MEA throughput. The FleetController runs
// the Monitor-Evaluate-Act loop over N managed systems on a fixed thread
// pool; results are bit-identical for any thread count, so the only
// question is wall time. This bench sweeps the pool size at a fixed fleet
// and prints one human-readable row plus one JSON line per configuration
// (scrapeable via the {"bench":"fleet_throughput",...} prefix).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "monitoring/types.hpp"
#include "numerics/rng.hpp"
#include "obs/observability.hpp"
#include "prediction/baselines.hpp"
#include "prediction/frozen.hpp"
#include "prediction/kernels.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"

namespace {

using namespace pfm;

constexpr std::size_t kFleetNodes = 8;

// --quick trims the sweep for CI: shorter horizon, fewer repetitions,
// 1/8-thread endpoints only, microbenchmarks skipped. The JSON rows the
// regression gate consumes are emitted either way.
bool g_quick = false;

double fleet_days() { return g_quick ? 0.25 : 1.0; }

telecom::SimConfig fleet_base_config(double days = fleet_days()) {
  telecom::SimConfig cfg;
  cfg.seed = 91;
  cfg.duration = days * 86400.0;
  cfg.leak_mtbf = 43200.0;  // leak-heavy: plenty of warnings to act on
  return cfg;
}

struct TrainedBaselines {
  std::shared_ptr<const pred::SymptomPredictor> threshold;
  std::shared_ptr<const pred::SymptomPredictor> trend;
  std::shared_ptr<const pred::EventPredictor> dft;
};

/// Trains the cheap baselines once; they are shared read-only by every
/// fleet run in the sweep.
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

runtime::FleetTelemetry run_fleet(
    const TrainedBaselines& preds, std::size_t num_threads,
    double* wall_seconds, obs::Observability* hub = nullptr,
    double days = fleet_days()) {
  runtime::FleetConfig cfg;
  cfg.mea.windows = bench::case_study_windows();
  cfg.mea.evaluation_interval = 60.0;
  cfg.mea.warning_threshold = 0.6;
  cfg.num_threads = num_threads;
  cfg.obs = hub;

  runtime::FleetController fleet(
      runtime::make_scp_fleet(fleet_base_config(days), kFleetNodes), cfg);
  fleet.add_symptom_predictor(preds.threshold);
  fleet.add_symptom_predictor(preds.trend);
  fleet.add_event_predictor(preds.dft);
  fleet.add_action([] { return std::make_unique<act::StateCleanupAction>(); });
  fleet.add_action(
      [] { return std::make_unique<act::PreparedRepairAction>(900.0); });

  const auto t0 = std::chrono::steady_clock::now();
  fleet.run();
  const auto t1 = std::chrono::steady_clock::now();
  *wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return fleet.telemetry();
}

void print_experiment(const TrainedBaselines& preds) {
  std::printf("== E14 (extension): fleet MEA throughput vs pool size ==\n");
  std::printf("(%zu nodes x %.2f day(s); per-node results are identical "
              "across thread counts)\n\n",
              kFleetNodes, fleet_days());

  std::printf("  %-8s %-9s %-9s %-10s %-12s %-10s %-10s\n", "threads",
              "wall [s]", "speedup", "scores/s", "sim-s/s", "warnings",
              "actions");
  double wall_1 = 0.0;
  const std::vector<std::size_t> sweep =
      g_quick ? std::vector<std::size_t>{1u, 8u}
              : std::vector<std::size_t>{1u, 2u, 4u, 8u};
  for (std::size_t threads : sweep) {
    double wall = 0.0;
    const auto t = run_fleet(preds, threads, &wall);
    if (threads == 1) wall_1 = wall;
    const double scores_per_sec =
        wall > 0.0 ? static_cast<double>(t.scores_computed) / wall : 0.0;
    const double sim_sec_per_sec =
        wall > 0.0 ? t.system.simulated / wall : 0.0;
    std::printf("  %-8zu %-9.2f %-9.2f %-10.0f %-12.0f %-10zu %-10zu\n",
                threads, wall, wall > 0.0 ? wall_1 / wall : 0.0,
                scores_per_sec, sim_sec_per_sec, t.warnings_raised,
                t.mea.total_actions());
    bench::JsonLine()
        .field("bench", "fleet_throughput")
        .field("nodes", t.nodes)
        .field("threads", threads)
        .field("wall_seconds", wall)
        .field("speedup", wall > 0.0 ? wall_1 / wall : 0.0)
        .field("rounds", t.rounds)
        .field("scores_computed", t.scores_computed)
        .field("scores_per_second", scores_per_sec)
        .field("warnings", t.warnings_raised)
        .field("actions", t.mea.total_actions())
        .field("monitor_seconds", t.latency.monitor_seconds)
        .field("evaluate_seconds", t.latency.evaluate_seconds)
        .field("act_seconds", t.latency.act_seconds)
        .field("availability", t.system.availability())
        .emit();
  }
  std::printf("\n(the Monitor stage dominates: node simulation is the bulk "
              "of each round, and it parallelizes across nodes)\n\n");
}

// --- shard-scaling arm (E15) ----------------------------------------------
//
// The event-driven sharded scheduler's claim is structural: adaptive
// sampling visits quiet nodes exponentially less often, so fleet
// throughput (simulated node-seconds per wall second) scales with the
// fleet, not with the dense visit count. The workload here is tuned to
// the regime that scheduler targets — many cheap single-unit nodes whose
// per-visit Evaluate cost (symptom windowing + ensemble scoring)
// dominates the coarse simulator tick, and a fleet that is quiet most of
// the time with occasional leak/cascade episodes pinning nodes dense.

/// One cheap single-unit SCP node for the scaling grid: coarse tick, low
/// load, sparse benign noise (noise would otherwise re-densify quiet
/// nodes through the new-events hot trigger and mask the scheduling
/// effect being measured).
telecom::SimConfig shard_node_config(double duration_seconds) {
  telecom::SimConfig cfg;
  cfg.seed = 17;
  cfg.duration = duration_seconds;
  cfg.tick = 30.0;
  cfg.num_nodes = 1;
  cfg.arrival_rate = 6.0;
  cfg.node_capacity = 30.0;
  cfg.noise_event_rate = 1.0 / 7200.0;
  cfg.lookalike_event_rate = 1.0 / 14400.0;
  return cfg;
}

struct ShardRun {
  double wall = 0.0;
  runtime::FleetTelemetry t;
};

ShardRun run_shard_fleet(const TrainedBaselines& preds, std::size_t nodes,
                         std::size_t threads, std::size_t shards,
                         bool event_driven, double duration_seconds) {
  runtime::FleetConfig cfg;
  cfg.mea.windows = bench::case_study_windows();
  cfg.mea.evaluation_interval = 30.0;
  cfg.mea.warning_threshold = 0.6;
  // A two-hour symptom context per score: trend fitting over 240 samples
  // is the realistic Evaluate weight adaptive sampling amortizes.
  cfg.mea.context_samples = 240;
  cfg.num_threads = threads;
  if (event_driven) {
    cfg.scheduler = runtime::FleetScheduler::kEventDriven;
    cfg.num_shards = shards;
    cfg.epoch_ticks = 8;
    cfg.schedule.adaptive = true;
    cfg.schedule.max_gap = 16;
    // Sigmoid-shaped baseline scores idle around 0.3-0.5, so the default
    // near-threshold fraction would pin every quiet node dense. Back off
    // unless a node actually crosses the warning threshold — urgency and
    // symptom-delta triggers still snap faulty nodes back to dense.
    cfg.schedule.hot_score_fraction = 1.0;
  }

  runtime::FleetController fleet(
      runtime::make_scp_fleet(shard_node_config(duration_seconds), nodes),
      cfg);
  fleet.add_symptom_predictor(preds.threshold);
  fleet.add_symptom_predictor(preds.trend);
  fleet.add_event_predictor(preds.dft);
  fleet.add_action([] { return std::make_unique<act::StateCleanupAction>(); });
  fleet.add_action(
      [] { return std::make_unique<act::PreparedRepairAction>(900.0); });

  ShardRun out;
  const auto t0 = std::chrono::steady_clock::now();
  fleet.run();
  const auto t1 = std::chrono::steady_clock::now();
  out.wall = std::chrono::duration<double>(t1 - t0).count();
  out.t = fleet.telemetry();
  return out;
}

void emit_shard_row(const char* mode, std::size_t shards,
                    std::size_t threads, const ShardRun& r,
                    double speedup_vs_lockstep) {
  const double scores_per_sec =
      r.wall > 0.0 ? static_cast<double>(r.t.scores_computed) / r.wall : 0.0;
  const double sim_sec_per_sec =
      r.wall > 0.0 ? r.t.system.simulated / r.wall : 0.0;
  std::printf("  %-9s %-8zu %-8zu %-9.2f %-9.2f %-12.0f %-10.0f %-11zu\n",
              mode, shards, threads, r.wall, speedup_vs_lockstep,
              sim_sec_per_sec, scores_per_sec, r.t.node_steps);
  bench::JsonLine()
      .field("bench", "fleet_shard_scaling")
      .field("mode", mode)
      .field("nodes", r.t.nodes)
      .field("shards", shards)
      .field("threads", threads)
      .field("wall_seconds", r.wall)
      .field("speedup_vs_lockstep", speedup_vs_lockstep)
      .field("sim_seconds_per_second", sim_sec_per_sec)
      .field("scores_per_second", scores_per_sec)
      .field("rounds", r.t.rounds)
      .field("epochs", r.t.epochs)
      .field("node_steps", r.t.node_steps)
      .field("scores_computed", r.t.scores_computed)
      .field("warnings", r.t.warnings_raised)
      .field("actions", r.t.mea.total_actions())
      .field("availability", r.t.system.availability())
      .emit();
}

void print_shard_scaling(const TrainedBaselines& preds) {
  const std::size_t grid_nodes = g_quick ? 256 : 512;
  const double grid_duration = g_quick ? 3600.0 : 7200.0;

  std::printf("== E15 (extension): sharded event-driven scheduling vs "
              "lockstep ==\n");
  std::printf("(%zu single-unit nodes x %.0f sim-s; adaptive sampling, "
              "max_gap 16, epoch_ticks 8)\n\n",
              grid_nodes, grid_duration);
  std::printf("  %-9s %-8s %-8s %-9s %-9s %-12s %-10s %-11s\n", "mode",
              "shards", "threads", "wall [s]", "speedup", "sim-s/s",
              "scores/s", "node_steps");

  // The 8-thread lockstep preset the ≥1.5x gate measures against.
  const auto lockstep =
      run_shard_fleet(preds, grid_nodes, 8, 1, false, grid_duration);
  emit_shard_row("lockstep", 1, 8, lockstep, 1.0);

  // Shard sweep at the gate thread count.
  const std::vector<std::size_t> shard_sweep =
      g_quick ? std::vector<std::size_t>{1u, 8u}
              : std::vector<std::size_t>{1u, 2u, 4u, 8u};
  for (std::size_t shards : shard_sweep) {
    const auto r =
        run_shard_fleet(preds, grid_nodes, 8, shards, true, grid_duration);
    emit_shard_row("event", shards, 8, r,
                   r.wall > 0.0 ? lockstep.wall / r.wall : 0.0);
  }

  // Thread sweep at 8 shards: how the sharded engine scales with the
  // pool (each shard runs its loops inline, shards spread across
  // threads).
  const std::vector<std::size_t> thread_sweep =
      g_quick ? std::vector<std::size_t>{1u}
              : std::vector<std::size_t>{1u, 2u, 4u};
  for (std::size_t threads : thread_sweep) {
    const auto r =
        run_shard_fleet(preds, grid_nodes, threads, 8, true, grid_duration);
    emit_shard_row("event", 8, threads, r,
                   r.wall > 0.0 ? lockstep.wall / r.wall : 0.0);
  }

  // Fleet-scale row: 10^5 adaptive nodes over a short horizon. Skipped
  // in --quick (CI) runs; the committed BENCH_fleet.json carries it.
  if (!g_quick) {
    const std::size_t scale_nodes = 100000;
    const auto r = run_shard_fleet(preds, scale_nodes, 8, 64, true, 900.0);
    std::printf("\n  fleet-scale: %zu nodes, 64 shards, 8 threads: "
                "%.2f s wall, %.0f sim-s/s, %zu node_steps\n",
                scale_nodes, r.wall,
                r.wall > 0.0 ? r.t.system.simulated / r.wall : 0.0,
                r.t.node_steps);
    emit_shard_row("event", 64, 8, r, 0.0);
  }
  std::printf("\n(adaptive sampling visits quiet nodes ~max_gap times "
              "less often; simulator stepping still covers the full "
              "horizon, so the win is bounded by the Evaluate share)\n\n");
}

/// Observability overhead arm: the same fleet run with the default
/// private metrics-only hub (the deployed baseline) vs an external hub
/// with tracing live, as the median over interleaved off/on pairs over
/// bench::kOverheadArmDays; the acceptance budget is < 5% overhead.
void print_obs_overhead(const TrainedBaselines& preds) {
  std::printf("== obs overhead: full hub (metrics + tracing) vs default, "
              "%zu nodes x %.2f day(s) ==\n",
              kFleetNodes, bench::kOverheadArmDays);
  constexpr std::size_t kThreads = 4;
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;
  const auto o = bench::paired_overhead(
      [&] {
        double wall = 0.0;
        run_fleet(preds, kThreads, &wall, nullptr, bench::kOverheadArmDays);
        return wall;
      },
      [&] {
        obs::ObservabilityConfig ocfg;
        ocfg.shards = kThreads;
        ocfg.trace_capacity = 1 << 16;
        obs::Observability hub(ocfg);
        double wall = 0.0;
        run_fleet(preds, kThreads, &wall, &hub, bench::kOverheadArmDays);
        spans_recorded = hub.trace().recorded();
        spans_dropped = hub.trace().dropped();
        return wall;
      });
  std::printf("  baseline %.3f s, observed %.3f s -> overhead %+.2f%% "
              "(median of %zu pairs, %+.2f%%..%+.2f%%; %llu spans, "
              "%llu dropped)\n\n",
              o.baseline_seconds, o.observed_seconds, o.median_pct, o.pairs,
              o.min_pct, o.max_pct,
              static_cast<unsigned long long>(spans_recorded),
              static_cast<unsigned long long>(spans_dropped));
  bench::JsonLine row;
  row.field("bench", "fleet_obs_overhead")
      .field("nodes", kFleetNodes)
      .field("threads", kThreads);
  o.fields(row)
      .field("spans_recorded", spans_recorded)
      .field("spans_dropped", spans_dropped)
      .emit();
}

// --- frozen-serving arm --------------------------------------------------
//
// The frozen-artifact serving path against the live engine over the same
// model: a mmap-serving sanity ratio, not a speedup claim — both
// predictors wrap the same score_batch_soa. The row feeds the >= 0.7x
// gate in tools/bench_to_json.py.

/// Synthetic but well-formed mixture model: width-derived constants built
/// with the exact reference expressions, all-level features so
/// one-sample contexts suffice.
pred::MixtureModel make_serving_model(num::Rng& rng,
                                      std::size_t num_kernels,
                                      std::size_t dim) {
  pred::MixtureModel m;
  m.name = "UBF";
  m.mixture_kernels = true;
  m.num_raw_vars = dim;
  for (std::size_t i = 0; i < dim; ++i) {
    m.selected.push_back(i);
    m.lo.push_back(rng.uniform(-1.0, 0.0));
    m.range.push_back(rng.uniform(0.5, 2.0));
  }
  for (std::size_t i = 0; i < num_kernels; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      m.centers.push_back(rng.uniform(-0.2, 1.2));
    }
    const double w = std::max(rng.uniform(0.05, 1.5), 1e-6);
    m.w.push_back(w);
    m.two_w_sq.push_back(2.0 * w * w);
    m.step_scale.push_back(0.3 * w);
    m.mixture.push_back(rng.uniform(0.0, 1.0));
    m.weights.push_back(rng.uniform(-1.5, 1.5));
  }
  m.weights.push_back(rng.uniform(-0.5, 0.5));
  return m;
}

/// Best-of-3 seconds per call of `fn` over `iters`-call timed blocks.
template <typename Fn>
double best_seconds_per_call(int iters, Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double per_call =
        std::chrono::duration<double>(t1 - t0).count() / iters;
    best = rep == 0 ? per_call : std::min(best, per_call);
  }
  return best;
}

void print_frozen_serving() {
  constexpr std::size_t kKernels = 64;
  constexpr std::size_t kDim = 8;
  const std::size_t batch = g_quick ? 512 : 2048;
  const int iters = g_quick ? 20 : 50;

  std::printf("== frozen-artifact serving vs the live engine ==\n");
  num::Rng rng(2025);
  const auto model = make_serving_model(rng, kKernels, kDim);

  const std::string path = "bench_frozen_model.pfmfrozen";
  if (pred::freeze(model, path) != pred::FrozenError::kOk) {
    std::fprintf(stderr, "FATAL: freezing the bench model failed\n");
    std::exit(1);
  }
  auto loaded = pred::FrozenPredictor::load(path);
  std::remove(path.c_str());
  if (loaded.error != pred::FrozenError::kOk) {
    std::fprintf(stderr, "FATAL: loading the bench artifact failed: %s\n",
                 pred::to_string(loaded.error));
    std::exit(1);
  }

  // One-sample contexts (all-level features), scored through the same
  // arena path on both sides.
  std::vector<mon::SymptomSample> samples(batch);
  std::vector<pred::SymptomContext> contexts(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    samples[i].time = 600.0 + static_cast<double>(i);
    for (std::size_t j = 0; j < kDim; ++j) {
      samples[i].values.push_back(rng.uniform(-1.5, 2.5));
    }
    contexts[i].history = {&samples[i], 1};
  }
  std::vector<double> out(batch, 0.0);
  pred::BatchScratch scratch;

  const auto view = model.view();
  const double live_seconds = best_seconds_per_call(iters, [&] {
    pred::score_batch_soa(view, contexts, out, scratch);
    benchmark::DoNotOptimize(out.data());
  });
  const double frozen_seconds = best_seconds_per_call(iters, [&] {
    loaded.predictor->score_batch(contexts, out, scratch);
    benchmark::DoNotOptimize(out.data());
  });
  const double live_rate =
      live_seconds > 0.0 ? static_cast<double>(batch) / live_seconds : 0.0;
  const double frozen_rate =
      frozen_seconds > 0.0 ? static_cast<double>(batch) / frozen_seconds : 0.0;
  const double ratio = live_rate > 0.0 ? frozen_rate / live_rate : 0.0;
  std::printf("  live %.0f scores/s, frozen %.0f scores/s -> ratio %.3f "
              "(both wrap the same sweep; ~1.0 expected)\n\n",
              live_rate, frozen_rate, ratio);
  bench::JsonLine()
      .field("bench", "frozen_serving")
      .field("kernels", kKernels)
      .field("dim", kDim)
      .field("batch", batch)
      .field("live_scores_per_second", live_rate)
      .field("frozen_scores_per_second", frozen_rate)
      .field("ratio", ratio)
      .emit();
}

void BM_FleetRoundSingleThread(benchmark::State& state) {
  // Cost of one lockstep MEA round (Monitor+Evaluate+Act) at 1 thread.
  const auto preds = train_baselines();
  runtime::FleetConfig cfg;
  cfg.mea.windows = bench::case_study_windows();
  cfg.mea.evaluation_interval = 60.0;
  cfg.mea.warning_threshold = 0.6;
  cfg.num_threads = 1;
  runtime::FleetController fleet(
      runtime::make_scp_fleet(fleet_base_config(), kFleetNodes), cfg);
  fleet.add_symptom_predictor(preds.threshold);
  fleet.add_symptom_predictor(preds.trend);
  fleet.add_event_predictor(preds.dft);
  double t = 0.0;
  for (auto _ : state) {
    t += cfg.mea.evaluation_interval;
    fleet.run_until(t);
    benchmark::DoNotOptimize(fleet.telemetry().rounds);
  }
}
BENCHMARK(BM_FleetRoundSingleThread)->Unit(benchmark::kMillisecond);

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

  const auto preds = train_baselines();
  print_experiment(preds);
  print_shard_scaling(preds);
  print_obs_overhead(preds);
  print_frozen_serving();
  if (!g_quick) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
