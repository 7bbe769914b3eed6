// E11 — computational overhead of online prediction ([64] reports
// measurements of the HSMM's runtime overhead; Sect. 7 lists "prediction
// processing time" among the trade-offs). Micro-latency of one online
// scoring step per method, plus the analytic-model primitives.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <span>

#include "bench_common.hpp"
#include "ctmc/pfm_model.hpp"
#include "numerics/matexp.hpp"
#include "prediction/baselines.hpp"
#include "prediction/hsmm.hpp"
#include "prediction/ubf.hpp"

namespace {

using namespace pfm;

struct Fixture {
  mon::MonitoringDataset train;
  mon::MonitoringDataset test;
  std::unique_ptr<pred::UbfPredictor> ubf;
  std::unique_ptr<pred::HsmmPredictor> hsmm;
  std::unique_ptr<pred::DftPredictor> dft;
  std::unique_ptr<pred::EventsetPredictor> eventset;
  std::vector<mon::SymptomSample> context_samples;  // 240, oldest first
  mon::ErrorSequence probe_seq;

  Fixture() {
    auto [tr, te] = bench::make_case_study(5, 7.0);
    train = std::move(tr);
    test = std::move(te);
    const auto g = bench::case_study_windows();

    pred::UbfConfig ucfg;
    ucfg.windows = g;
    ucfg.pwa_iterations = 25;
    ucfg.shape_evaluations = 120;
    ubf = std::make_unique<pred::UbfPredictor>(ucfg);
    ubf->train(train);

    const auto fail_seqs = train.failure_sequences(g.data_window, g.lead_time);
    const auto ok_seqs = train.nonfailure_sequences(
        g.data_window, g.lead_time, g.prediction_window, 300.0);
    pred::HsmmPredictorConfig hcfg;
    hcfg.windows = g;
    hsmm = std::make_unique<pred::HsmmPredictor>(hcfg);
    hsmm->train(fail_seqs, ok_seqs);
    dft = std::make_unique<pred::DftPredictor>();
    dft->train(fail_seqs, ok_seqs);
    eventset = std::make_unique<pred::EventsetPredictor>();
    eventset->train(fail_seqs, ok_seqs);

    const auto samples = test.samples();
    context_samples.assign(samples.begin(),
                           samples.begin() + std::min<std::size_t>(
                                                 kMaxContext, samples.size()));
    // A probe of fixed length: the test trace's first kProbeEvents events,
    // re-timed 20 s apart so the last lands on the probe's end. Event
    // scores are linear in the event count, so a probe cut from a fixed
    // time window would follow the simulator's random stream instead of
    // the scoring code.
    const auto events = test.events();
    const std::size_t n = std::min(kProbeEvents, events.size());
    probe_seq.end_time = test.start_time() + 600.0;
    probe_seq.events.assign(events.begin(), events.begin() + n);
    for (std::size_t i = 0; i < n; ++i) {
      probe_seq.events[i].time =
          probe_seq.end_time - 20.0 * static_cast<double>(n - 1 - i);
    }
  }

  /// The newest `length` samples of the context, like a fleet node's
  /// trailing context of that length.
  pred::SymptomContext context(std::size_t length) const {
    pred::SymptomContext ctx;
    ctx.history = std::span<const mon::SymptomSample>(context_samples)
                      .last(std::min(length, context_samples.size()));
    return ctx;
  }

  static constexpr std::size_t kMaxContext = 240;
  static constexpr std::size_t kProbeEvents = 30;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

// Argument: context length in samples (the MeaConfig default, and the
// 240-sample contexts of the perfbench fleet_serving workload). The slope
// features regress over the data window's samples only.
void BM_UbfScore(benchmark::State& state) {
  auto& f = fixture();
  const auto ctx = f.context(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(f.ubf->score(ctx));
}
BENCHMARK(BM_UbfScore)->Arg(20)->Arg(240);

void BM_HsmmScore(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) benchmark::DoNotOptimize(f.hsmm->score(f.probe_seq));
}
BENCHMARK(BM_HsmmScore);

void BM_DftScore(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) benchmark::DoNotOptimize(f.dft->score(f.probe_seq));
}
BENCHMARK(BM_DftScore);

void BM_EventsetScore(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.eventset->score(f.probe_seq));
  }
}
BENCHMARK(BM_EventsetScore);

void BM_SimulatorDay(benchmark::State& state) {
  for (auto _ : state) {
    telecom::SimConfig cfg;
    cfg.seed = 99;
    cfg.duration = 86400.0;
    telecom::ScpSimulator sim(cfg);
    sim.run();
    benchmark::DoNotOptimize(sim.stats().total_requests);
  }
}
BENCHMARK(BM_SimulatorDay)->Unit(benchmark::kMillisecond);

void BM_Expm7x7(benchmark::State& state) {
  const auto q = ctmc::PfmAvailabilityModel(
                     ctmc::PfmModelParams::table2_example())
                     .chain()
                     .generator();
  for (auto _ : state) benchmark::DoNotOptimize(num::expm(q * 100.0));
}
BENCHMARK(BM_Expm7x7);

void BM_SteadyState7(benchmark::State& state) {
  const auto chain =
      ctmc::PfmAvailabilityModel(ctmc::PfmModelParams::table2_example())
          .chain();
  for (auto _ : state) benchmark::DoNotOptimize(chain.steady_state());
}
BENCHMARK(BM_SteadyState7);

}  // namespace

BENCHMARK_MAIN();
