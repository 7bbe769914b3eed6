#include "workloads.hpp"

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <unordered_set>

#include "core/mea.hpp"
#include "decorators.hpp"
#include "injection/injector.hpp"
#include "membership/membership_plan.hpp"
#include "obs/observability.hpp"
#include "prediction/baselines.hpp"
#include "prediction/calibration.hpp"
#include "prediction/evaluate.hpp"
#include "prediction/frozen.hpp"
#include "prediction/hsmm.hpp"
#include "prediction/ubf.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using namespace pfm;

constexpr double kDay = 86400.0;

/// splitmix64 over (seed, stream): independent sub-seeds per input.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Wall times of consecutive steps: each lap() closes the step that began
/// at the previous lap (or at construction), so the steps add up to the
/// section they divide.
class Laps {
 public:
  Laps() : last_(now_ns()) {}

  void lap() {
    const std::int64_t now = now_ns();
    laps_.push_back(static_cast<double>(now - last_) * 1e-9);
    last_ = now;
  }

  std::vector<double> take() { return std::move(laps_); }

 private:
  std::int64_t last_;
  std::vector<double> laps_;
};

/// Closes `laps` into the repetition's steps and total.
void put_steps(RepResult& r, Laps& laps) {
  r.step_s = laps.take();
  r.wall_s = 0.0;
  for (double s : r.step_s) r.wall_s += s;
}

/// Fig. 6 window geometry of the case study (as in the E9 bench).
pred::WindowGeometry case_windows() { return {600.0, 300.0, 300.0}; }

/// Trace volume of the managed systems a repetition touched.
struct TraceTotals {
  double samples = 0.0;
  double events = 0.0;
  double failures = 0.0;
  double bytes = 0.0;       ///< retained trace memory
  double unit_ticks = 0.0;  ///< simulated unit-ticks stepped

  void add(const mon::MonitoringDataset& d) {
    samples += static_cast<double>(d.samples().size());
    events += static_cast<double>(d.events().size());
    failures += static_cast<double>(d.failures().size());
    for (const auto& s : d.samples()) {
      bytes += static_cast<double>(sizeof(s) +
                                   s.values.capacity() * sizeof(double));
    }
    bytes += static_cast<double>(d.events().size() * sizeof(mon::ErrorEvent) +
                                 d.failures().size() * sizeof(double));
  }
  void add_ticks(double simulated, const telecom::SimConfig& cfg) {
    unit_ticks += simulated / cfg.tick * static_cast<double>(cfg.num_nodes);
  }
  void put(Values& v) const {
    v.emplace_back("telecom.samples", samples);
    v.emplace_back("telecom.events", events);
    v.emplace_back("telecom.failures", failures);
    v.emplace_back("telecom.unit_ticks", unit_ticks);
    v.emplace_back("monitoring.trace_bytes", bytes);
  }
};

void put_mea(Values& v, const core::MeaStats& m) {
  static constexpr const char* kKinds[act::kNumActionKinds] = {
      "actions.executed.state_cleanup", "actions.executed.preventive_failover",
      "actions.executed.load_lowering", "actions.executed.prepared_repair",
      "actions.executed.preventive_restart"};
  v.emplace_back("core.evaluations", static_cast<double>(m.evaluations));
  v.emplace_back("core.warnings", static_cast<double>(m.warnings));
  for (std::size_t k = 0; k < act::kNumActionKinds; ++k) {
    v.emplace_back(kKinds[k], static_cast<double>(m.actions_by_kind[k]));
  }
  v.emplace_back("core.action_faults", static_cast<double>(m.action_faults));
  v.emplace_back("core.action_retries", static_cast<double>(m.action_retries));
  v.emplace_back("core.actions_abandoned",
                 static_cast<double>(m.actions_abandoned));
  v.emplace_back("core.scores_sanitized",
                 static_cast<double>(m.scores_sanitized));
}

/// `simulated`: system-seconds the repetition simulated in total.
void put_system(Values& v, const core::SystemStats& s, double simulated) {
  v.emplace_back("availability", s.availability());
  v.emplace_back("sim_node_s", simulated);
  v.emplace_back("repairs.prepared", static_cast<double>(s.prepared_repairs));
  v.emplace_back("repairs.unprepared",
                 static_cast<double>(s.unprepared_repairs));
}

void put_report(Values& v, const char* prefix, const pred::PredictorReport& r) {
  const std::string p(prefix);
  v.emplace_back("eval." + p + "_auc", r.auc);
  v.emplace_back("eval." + p + "_threshold", r.threshold);
  v.emplace_back("eval." + p + "_precision", r.precision());
  v.emplace_back("eval." + p + "_recall", r.recall());
  v.emplace_back("eval." + p + "_instants", static_cast<double>(r.num_instants));
}

/// The three recorded phases of offline evaluation: the validation grid,
/// then AUC plus the max-F threshold search.
template <typename Predictor>
pred::PredictorReport validate(const char* name, const char* grid_span,
                               const char* report_span, const Predictor& p,
                               const mon::MonitoringDataset& validation,
                               const pred::EvalOptions& eo) {
  std::vector<pred::ScoredInstant> instants;
  {
    Span span(grid_span);
    instants = pred::score_on_grid(p, validation, eo);
  }
  Span span(report_span, 0, 0, instants.size());
  return pred::make_report(name, instants);
}

/// The Sect. 3.3 training sets: the 70/30 split of one trace and the
/// failure / non-failure sequences of its training part.
struct TrainingData {
  mon::MonitoringDataset train;
  mon::MonitoringDataset validation;
  std::vector<mon::ErrorSequence> failure_seqs;
  std::vector<mon::ErrorSequence> nonfailure_seqs;
};

/// Simulates `cfg`, splits the trace at `validation_start` (seconds) and
/// cuts the training part's sequences.
TrainingData simulate_training_data(const telecom::SimConfig& cfg,
                                    double validation_start,
                                    TraceTotals* totals) {
  const auto g = case_windows();
  telecom::ScpSimulator sim(cfg);
  {
    Span span("telecom.run");
    sim.run();
  }
  if (totals != nullptr) {
    totals->add(sim.trace());
    totals->add_ticks(sim.stats().simulated, cfg);
  }
  const auto trace = sim.take_trace();
  TrainingData d;
  {
    Span span("monitoring.split");
    auto [train, validation] = trace.split_at(validation_start);
    d.train = std::move(train);
    d.validation = std::move(validation);
  }
  Span span("monitoring.sequences");
  d.failure_seqs = d.train.failure_sequences(g.data_window, g.lead_time);
  d.nonfailure_seqs = d.train.nonfailure_sequences(
      g.data_window, g.lead_time, g.prediction_window, 300.0);
  return d;
}

std::shared_ptr<pred::UbfPredictor> train_ubf(const TrainingData& d) {
  pred::UbfConfig cfg;
  cfg.windows = case_windows();
  auto ubf = std::make_shared<pred::UbfPredictor>(cfg);
  Span span("prediction.train.ubf");
  ubf->train(d.train);
  return ubf;
}

std::shared_ptr<pred::HsmmPredictor> train_hsmm(const TrainingData& d) {
  pred::HsmmPredictorConfig cfg;
  cfg.windows = case_windows();
  auto hsmm = std::make_shared<pred::HsmmPredictor>(cfg);
  Span span("prediction.train.hsmm");
  hsmm->train(d.failure_seqs, d.nonfailure_seqs);
  return hsmm;
}

std::shared_ptr<const pred::SymptomPredictor> maybe_timed(
    std::shared_ptr<const pred::SymptomPredictor> p, bool traced,
    const char* span_name) {
  if (!traced) return p;
  return std::make_shared<TimedSymptomPredictor>(std::move(p), span_name);
}

std::shared_ptr<const pred::EventPredictor> maybe_timed(
    std::shared_ptr<const pred::EventPredictor> p, bool traced,
    const char* span_name) {
  if (!traced) return p;
  return std::make_shared<TimedEventPredictor>(std::move(p), span_name);
}

std::unique_ptr<core::ManagedSystem> maybe_timed(
    std::unique_ptr<core::ManagedSystem> system, bool traced,
    std::uint64_t node) {
  if (!traced) return system;
  return std::make_unique<TimedSystem>(std::move(system), node);
}

ActionFactory maybe_timed(ActionFactory factory, bool traced) {
  return traced ? timed_factory(std::move(factory)) : factory;
}

/// Span ring of the library's own tracer when it is switched on: large
/// enough that the Monitor/Evaluate/Act spans of one repetition are all
/// recorded (a full ring overwrites and keeps the cost per span).
constexpr std::size_t kProgramTraceCapacity = 1 << 18;

// ---------------------------------------------------------------------------
// paper_pipeline: the E9 run. Simulate a 14-day SCP trace, split it 70/30,
// train UBF and HSMM, find each max-F threshold on the validation part,
// then run the MEA loop over a fresh 14-day system without PFM and with
// avoidance + minimization. Single-threaded, like training and
// MeaController.

class PaperPipeline final : public Workload {
 public:
  // The training trace stands for the case study's one recorded data set,
  // so it has a fixed seed: training and the threshold search do the same
  // work for every workload seed (on different traces their cost moved
  // the run's time by several percent), and the seed varies the managed
  // system the closed loops run on.
  static constexpr std::uint64_t kTraceSeed = 1;

  explicit PaperPipeline(std::uint64_t seed) : seed_(seed) {}

  std::size_t threads() const override { return 1; }

  std::vector<double> setup() override {
    // The pipeline's inputs are its seeds; set-up is the warm-up: a short
    // trace and a short unmanaged closed loop on throwaway seeds.
    Laps laps;
    telecom::SimConfig warm;
    warm.seed = derive(seed_, 100);
    warm.duration = 2.0 * kDay;
    telecom::ScpSimulator sim(warm);
    sim.run();
    laps.lap();
    warm.duration = 1.0 * kDay;
    runtime::ScpManagedSystem system(warm);
    core::MeaConfig mc;
    mc.windows = case_windows();
    core::MeaController mea(system, mc);
    mea.run();
    laps.lap();
    return laps.take();
  }

  RepResult run(Mode mode) override {
    const bool traced = mode == Mode::kTraced;
    const auto g = case_windows();
    RepResult r;
    TraceTotals totals;
    Laps laps;
    Span root("pipeline");

    telecom::SimConfig trace_cfg;
    trace_cfg.seed = derive(kTraceSeed, 1);
    trace_cfg.duration = 14.0 * kDay;
    const TrainingData data =
        simulate_training_data(trace_cfg, 0.7 * trace_cfg.duration, &totals);
    laps.lap();

    pred::EvalOptions eo;
    eo.windows = g;
    const auto ubf = train_ubf(data);
    laps.lap();
    const auto ubf_report = validate("ubf", "eval.grid.ubf", "eval.report.ubf",
                                     *ubf, data.validation, eo);
    laps.lap();
    const auto hsmm = train_hsmm(data);
    laps.lap();
    const auto hsmm_report =
        validate("hsmm", "eval.grid.hsmm", "eval.report.hsmm", *hsmm,
                 data.validation, eo);
    laps.lap();

    const auto symptom = maybe_timed(
        std::make_shared<pred::CalibratedSymptomPredictor>(
            ubf, ubf_report.threshold),
        traced, "prediction.score.ubf");
    const auto event = maybe_timed(
        std::make_shared<pred::CalibratedEventPredictor>(
            hsmm, hsmm_report.threshold),
        traced, "prediction.score.hsmm");

    // Both arms manage the same fresh system: same seed, different from
    // the training trace's.
    core::MeaStats mea_none, mea_both;
    core::SystemStats sys_none, sys_both;
    closed_loop("core.closed_loop.none", false, mode, nullptr, nullptr,
                &mea_none, &sys_none, &totals);
    laps.lap();
    closed_loop("core.closed_loop.both", true, mode, symptom, event,
                &mea_both, &sys_both, &totals);
    laps.lap();
    put_steps(r, laps);

    auto& v = r.values;
    v.emplace_back("evaluations", static_cast<double>(mea_none.evaluations +
                                                      mea_both.evaluations));
    v.emplace_back("failed", 0.0);
    put_system(v, sys_both,
               trace_cfg.duration + sys_none.simulated + sys_both.simulated);
    v.emplace_back("availability_none", sys_none.availability());
    v.emplace_back("unavail_ratio", (1.0 - sys_both.availability()) /
                                        (1.0 - sys_none.availability()));
    v.emplace_back("auc_ubf", ubf_report.auc);
    v.emplace_back("auc_hsmm", hsmm_report.auc);
    put_report(v, "ubf", ubf_report);
    put_report(v, "hsmm", hsmm_report);
    put_mea(v, mea_both);
    v.emplace_back("core.evaluations_none",
                   static_cast<double>(mea_none.evaluations));
    v.emplace_back("core.warnings_none", static_cast<double>(mea_none.warnings));
    totals.put(v);
    return r;
  }

 private:
  void closed_loop(const char* span_name, bool pfm, Mode mode,
                   const std::shared_ptr<const pred::SymptomPredictor>& symptom,
                   const std::shared_ptr<const pred::EventPredictor>& event,
                   core::MeaStats* mea_out, core::SystemStats* sys_out,
                   TraceTotals* totals) {
    const bool traced = mode == Mode::kTraced;
    telecom::SimConfig cfg;
    cfg.seed = derive(seed_, 2);
    cfg.duration = 14.0 * kDay;
    auto system = maybe_timed(std::make_unique<runtime::ScpManagedSystem>(cfg),
                              traced, 0);

    core::MeaConfig mc;
    mc.windows = case_windows();
    mc.evaluation_interval = 60.0;
    mc.warning_threshold = 0.5;  // calibrated predictors: 0.5 = their max-F
    mc.enable_avoidance = pfm;
    mc.enable_minimization = pfm;
    core::MeaController mea(*system, mc);
    if (pfm) {
      mea.add_symptom_predictor(symptom);
      mea.add_event_predictor(event);
      const ActionFactory factories[] = {
          [] { return std::make_unique<act::StateCleanupAction>(); },
          [] { return std::make_unique<act::PreventiveFailoverAction>(); },
          [] { return std::make_unique<act::LoadLoweringAction>(); },
          [] { return std::make_unique<act::PreparedRepairAction>(900.0); }};
      for (const auto& f : factories) mea.add_action(maybe_timed(f, traced)());
    }
    std::unique_ptr<obs::Observability> hub;
    if (mode == Mode::kProgramTraced) {
      hub = std::make_unique<obs::Observability>(
          obs::ObservabilityConfig{1, kProgramTraceCapacity, 0});
      mea.set_observability(hub.get());
    }
    {
      Span span(span_name);
      mea.run();
    }
    *mea_out = mea.stats();
    *sys_out = system->system_stats();
    totals->add(system->trace());
    totals->add_ticks(sys_out->simulated, cfg);
  }

  std::uint64_t seed_;
};

// ---------------------------------------------------------------------------
// Fleet helpers.

/// Reads every fleet-level outcome into `r`.
void put_fleet(RepResult& r, const runtime::FleetController& fleet,
               double interval, const telecom::SimConfig& node_cfg) {
  const auto t = fleet.telemetry();
  auto& v = r.values;
  v.emplace_back("evaluations", static_cast<double>(t.node_steps));
  put_system(v, t.system, t.system.simulated);
  put_mea(v, t.mea);
  v.emplace_back("runtime.nodes", static_cast<double>(t.nodes));
  v.emplace_back("runtime.rounds", static_cast<double>(t.rounds));
  v.emplace_back("runtime.epochs", static_cast<double>(t.epochs));
  v.emplace_back("runtime.node_steps", static_cast<double>(t.node_steps));
  v.emplace_back("runtime.dense_visits", t.system.simulated / interval);
  v.emplace_back("runtime.scores", static_cast<double>(t.scores_computed));
  v.emplace_back("runtime.quarantines",
                 static_cast<double>(t.resilience.nodes_quarantined));
  v.emplace_back("runtime.breaker_trips",
                 static_cast<double>(t.resilience.breaker_trips));
  v.emplace_back("runtime.scores_sanitized",
                 static_cast<double>(t.resilience.scores_sanitized));
  v.emplace_back("membership.joined",
                 static_cast<double>(t.membership.nodes_joined));
  v.emplace_back("membership.left",
                 static_cast<double>(t.membership.nodes_left));
  v.emplace_back("membership.handoffs",
                 static_cast<double>(t.membership.handoffs));

  TraceTotals totals;
  for (std::size_t i = 0; i < fleet.num_nodes(); ++i) {
    totals.add(fleet.node(i).trace());
  }
  totals.add_ticks(t.system.simulated, node_cfg);
  totals.put(v);

  r.wall.emplace_back("runtime.monitor_s", t.latency.monitor_seconds);
  r.wall.emplace_back("runtime.evaluate_s", t.latency.evaluate_seconds);
  r.wall.emplace_back("runtime.act_s", t.latency.act_seconds);
  r.wall.emplace_back("runtime.scratch_bytes",
                      static_cast<double>(fleet.scratch_capacity_bytes()));
}

// ---------------------------------------------------------------------------
// fleet_dense: the lockstep fleet in the bench_fleet_throughput shape.
// 8 SCP nodes x 4 containers, 1 s tick, leak-heavy, threshold/trend/DFT
// baselines trained in set-up; one run_until per evaluation interval, so
// every round is timed.

class FleetDense final : public Workload {
 public:
  static constexpr std::size_t kNodes = 8;
  static constexpr double kHorizon = 4.0 * kDay;
  static constexpr double kInterval = 60.0;

  explicit FleetDense(std::uint64_t seed) : seed_(seed) {}

  std::size_t threads() const override { return 2; }

  std::vector<double> setup() override {
    Laps laps;
    telecom::SimConfig trace_cfg;
    trace_cfg.seed = derive(seed_, 1);
    trace_cfg.duration = 4.0 * kDay;
    setup_trace_ = {};
    const TrainingData data = simulate_training_data(
        trace_cfg, 0.7 * trace_cfg.duration, &setup_trace_);
    laps.lap();
    const auto g = case_windows();
    auto threshold = std::make_shared<pred::ThresholdPredictor>(g);
    auto trend = std::make_shared<pred::TrendPredictor>(g);
    auto dft = std::make_shared<pred::DftPredictor>();
    {
      Span span("prediction.train.threshold");
      threshold->train(data.train);
    }
    {
      Span span("prediction.train.trend");
      trend->train(data.train);
    }
    {
      Span span("prediction.train.dft");
      dft->train(data.failure_seqs, data.nonfailure_seqs);
    }
    laps.lap();
    pred::EvalOptions eo;
    eo.windows = g;
    reports_.clear();
    reports_.emplace_back(validate("threshold", "eval.grid.threshold",
                                   "eval.report.threshold", *threshold,
                                   data.validation, eo));
    reports_.emplace_back(validate("trend", "eval.grid.trend",
                                   "eval.report.trend", *trend,
                                   data.validation, eo));
    reports_.emplace_back(validate("dft", "eval.grid.dft", "eval.report.dft",
                                   *dft, data.validation, eo));
    threshold_ = threshold;
    trend_ = trend;
    dft_ = dft;
    laps.lap();

    next_ = std::make_unique<Built>(build(kHorizon, Mode::kPlain));
    laps.lap();
    return laps.take();
  }

  RepResult run(Mode mode) override {
    Built b = mode == Mode::kPlain && next_ ? std::move(*next_)
                                            : build(kHorizon, mode);
    next_.reset();
    RepResult r;
    const auto rounds = static_cast<std::size_t>(kHorizon / kInterval);
    const auto rounds_per_day = static_cast<std::size_t>(kDay / kInterval);
    Laps laps;
    for (std::size_t k = 1; k <= rounds; ++k) {
      {
        Span round("runtime.round", k);
        RootScope root(round);
        b.fleet->run_until(static_cast<double>(k) * kInterval);
      }
      laps.lap();
    }
    put_steps(r, laps);
    // One step per simulated day of rounds.
    r.round_s = std::move(r.step_s);
    r.step_s.assign(rounds / rounds_per_day, 0.0);
    for (std::size_t k = 0; k < rounds; ++k) {
      r.step_s[k / rounds_per_day] += r.round_s[k];
    }
    put(r, *b.fleet);
    return r;
  }

  Values reference_run() override {
    Built b = build(kHorizon, Mode::kPlain);
    b.fleet->run();
    RepResult r;
    put(r, *b.fleet);
    return r.values;
  }

 private:
  /// A fleet and the hub it records into (null: the fleet's private one);
  /// the fleet is destroyed first.
  struct Built {
    std::unique_ptr<obs::Observability> hub;
    std::unique_ptr<runtime::FleetController> fleet;
  };

  telecom::SimConfig node_config(double horizon) const {
    telecom::SimConfig cfg;
    cfg.seed = derive(seed_, 2);
    cfg.duration = horizon;
    cfg.leak_mtbf = 43200.0;  // leak-heavy: plenty of warnings to act on
    return cfg;
  }

  Built build(double horizon, Mode mode) const {
    const bool traced = mode == Mode::kTraced;
    runtime::FleetConfig cfg;
    cfg.mea.windows = case_windows();
    cfg.mea.evaluation_interval = kInterval;
    cfg.mea.warning_threshold = 0.6;
    cfg.num_threads = threads();
    Built b;
    if (mode == Mode::kProgramTraced) {
      b.hub = std::make_unique<obs::Observability>(
          obs::ObservabilityConfig{threads(), kProgramTraceCapacity, 0});
      cfg.obs = b.hub.get();
    }
    auto nodes = runtime::make_scp_fleet(node_config(horizon), kNodes);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i] = maybe_timed(std::move(nodes[i]), traced, i);
    }
    b.fleet = std::make_unique<runtime::FleetController>(std::move(nodes), cfg);
    b.fleet->add_symptom_predictor(
        maybe_timed(threshold_, traced, "prediction.score.threshold"));
    b.fleet->add_symptom_predictor(
        maybe_timed(trend_, traced, "prediction.score.trend"));
    b.fleet->add_event_predictor(
        maybe_timed(dft_, traced, "prediction.score.dft"));
    b.fleet->add_action(maybe_timed(
        [] { return std::make_unique<act::StateCleanupAction>(); }, traced));
    b.fleet->add_action(maybe_timed(
        [] { return std::make_unique<act::PreparedRepairAction>(900.0); },
        traced));
    return b;
  }

  void put(RepResult& r, const runtime::FleetController& fleet) const {
    put_fleet(r, fleet, kInterval, node_config(kHorizon));
    auto& v = r.values;
    v.emplace_back("failed", 0.0);
    std::size_t at_horizon = 0;
    std::size_t quarantined = 0;
    for (std::size_t i = 0; i < fleet.num_nodes(); ++i) {
      if (fleet.node(i).now() >= kHorizon) ++at_horizon;
      if (fleet.node_quarantined(i)) ++quarantined;
    }
    v.emplace_back("check.nodes", static_cast<double>(fleet.num_nodes()));
    v.emplace_back("check.nodes_at_horizon", static_cast<double>(at_horizon));
    v.emplace_back("check.expected_rounds", kHorizon / kInterval);
    v.emplace_back("check.quarantined", static_cast<double>(quarantined));
    v.emplace_back("setup.unit_ticks", setup_trace_.unit_ticks);
    for (const auto& rep : reports_) put_report(v, rep.name.c_str(), rep);
  }

  std::uint64_t seed_;
  std::shared_ptr<const pred::SymptomPredictor> threshold_;
  std::shared_ptr<const pred::SymptomPredictor> trend_;
  std::shared_ptr<const pred::EventPredictor> dft_;
  std::vector<pred::PredictorReport> reports_;
  TraceTotals setup_trace_;
  std::unique_ptr<Built> next_;
};

// ---------------------------------------------------------------------------
// fleet_serving: the paper's predictors served at fleet scale under faults
// and churn. ~1000 single-unit SCP nodes, 30 s tick, low load; the
// event-driven scheduler with 4 shards on one thread, epoch_ticks 4,
// adaptive sampling and 240-sample contexts. Set-up trains UBF, trend and HSMM on a trace
// of the same node configuration, calibrates them on its validation part,
// freezes UBF and serves it from the mmap-loaded artifact. One run() per
// repetition: run_until would re-activate backed-off nodes per call.

class FleetServing final : public Workload {
 public:
  static constexpr std::size_t kNodes = 1024;
  static constexpr double kHorizon = 8.0 * 3600.0;
  static constexpr double kInterval = 30.0;
  // The served model belongs to the deployment, not to the traffic: it is
  // trained on a trace with a fixed seed, so its scoring cost (UBF's
  // selected features, HSMM's vocabulary, the warning rate its thresholds
  // give) is the same for every workload seed, which varies the fleet,
  // the faults and the churn. A long training trace keeps every served
  // predictor's calibration sane; a short validation tail keeps the max-F
  // search (superlinear in the grid size) affordable.
  static constexpr std::uint64_t kModelSeed = 3;
  static constexpr double kTrainDays = 42.0;
  static constexpr double kValidationDays = 4.0;

  FleetServing(std::uint64_t seed, std::string workdir)
      : seed_(seed), workdir_(std::move(workdir)) {}

  // One thread: on a shared 4-CPU VM, five seeds run alternately on one
  // and two threads spread 10% and 20% between their quartiles; the two
  // threads sped a repetition up only 1.5x. fleet_dense keeps the pool and
  // its barriers in the benchmark.
  std::size_t threads() const override { return 1; }

  std::vector<double> setup() override {
    Laps laps;
    telecom::SimConfig trace_cfg = node_config(kTrainDays * kDay);
    trace_cfg.seed = derive(kModelSeed, 1);
    setup_trace_ = {};
    const TrainingData data = simulate_training_data(
        trace_cfg, (kTrainDays - kValidationDays) * kDay, &setup_trace_);
    laps.lap();
    const auto g = case_windows();
    pred::EvalOptions eo;
    eo.windows = g;
    eo.context_samples = 240;

    const auto ubf = train_ubf(data);
    laps.lap();
    auto trend = std::make_shared<pred::TrendPredictor>(g);
    {
      Span span("prediction.train.trend");
      trend->train(data.train);
    }
    laps.lap();
    const auto hsmm = train_hsmm(data);
    laps.lap();
    reports_.clear();
    reports_.emplace_back(validate("ubf", "eval.grid.ubf", "eval.report.ubf",
                                   *ubf, data.validation, eo));
    laps.lap();
    reports_.emplace_back(validate("trend", "eval.grid.trend",
                                   "eval.report.trend", *trend,
                                   data.validation, eo));
    laps.lap();
    reports_.emplace_back(validate("hsmm", "eval.grid.hsmm",
                                   "eval.report.hsmm", *hsmm, data.validation,
                                   eo));
    laps.lap();

    // train -> freeze -> serve: the served UBF is the mmap-loaded artifact.
    std::shared_ptr<const pred::SymptomPredictor> frozen;
    {
      Span span("prediction.freeze");
      const std::string path = workdir_ + "/ubf.pfmfrozen";
      if (pred::freeze(ubf->export_model(), path) != pred::FrozenError::kOk) {
        throw std::runtime_error("fleet_serving: freezing UBF failed");
      }
      auto loaded = pred::FrozenPredictor::load(path);
      std::remove(path.c_str());  // the mapping outlives the file name
      if (loaded.error != pred::FrozenError::kOk) {
        throw std::runtime_error(std::string("fleet_serving: loading UBF: ") +
                                 pred::to_string(loaded.error));
      }
      frozen = std::move(loaded.predictor);
    }
    ubf_ = std::make_shared<pred::CalibratedSymptomPredictor>(
        frozen, reports_[0].threshold);
    trend_ = std::make_shared<pred::CalibratedSymptomPredictor>(
        trend, reports_[1].threshold);
    hsmm_ = std::make_shared<pred::CalibratedEventPredictor>(
        hsmm, reports_[2].threshold);
    laps.lap();

    next_ = std::make_unique<Built>(build(kHorizon, Mode::kPlain));
    laps.lap();
    return laps.take();
  }

  RepResult run(Mode mode) override {
    Built b = mode == Mode::kPlain && next_ ? std::move(*next_)
                                            : build(kHorizon, mode);
    next_.reset();
    RepResult r;
    Laps laps;
    {
      Span span("runtime.run");
      RootScope root(span);
      b.fleet->run();
    }
    laps.lap();
    put_steps(r, laps);
    put_fleet(r, *b.fleet, kInterval, node_config(kHorizon));

    auto& v = r.values;
    double failed = 0.0;
    std::size_t scripted = 0;
    std::size_t unscripted = 0;
    for (std::size_t i = 0; i < b.fleet->num_nodes(); ++i) {
      if (!b.fleet->node_quarantined(i)) continue;
      if (b.scripted.count(i) != 0) {
        ++scripted;
      } else {
        ++unscripted;
        failed += static_cast<double>(b.fleet->node_mea_stats(i).evaluations);
      }
    }
    v.emplace_back("failed", failed);
    v.emplace_back("check.scripted_quarantines", static_cast<double>(scripted));
    v.emplace_back("check.unscripted_quarantines",
                   static_cast<double>(unscripted));
    v.emplace_back("check.plan_crashes", static_cast<double>(b.scripted.size()));
    v.emplace_back("check.plan_joins", static_cast<double>(b.plan_joins));
    v.emplace_back("check.plan_leaves", static_cast<double>(b.plan_leaves));
    for (const char* kind : {"node_crash", "node_hang", "sample_drop",
                             "predictor_throw", "predictor_nan",
                             "action_failure"}) {
      v.emplace_back(std::string("injection.faults.") + kind,
                     injected(*b.hub, kind));
    }
    v.emplace_back("setup.unit_ticks", setup_trace_.unit_ticks);
    for (const auto& rep : reports_) put_report(v, rep.name.c_str(), rep);
    return r;
  }

 private:
  /// One fleet with everything it borrows; members are destroyed in
  /// reverse order, so the fleet goes before the injector and the hub.
  struct Built {
    std::unique_ptr<obs::Observability> hub;
    std::unique_ptr<inj::FaultInjector> injector;
    std::unique_ptr<runtime::FleetController> fleet;
    std::unordered_set<std::size_t> scripted;  // nodes with a scripted crash
    std::size_t plan_joins = 0;
    std::size_t plan_leaves = 0;
  };

  telecom::SimConfig node_config(double horizon) const {
    // One cheap single-unit node (the E15 shard-scaling node): coarse
    // tick, low load, sparse benign noise.
    telecom::SimConfig cfg;
    cfg.seed = derive(seed_, 2);
    cfg.duration = horizon;
    cfg.tick = kInterval;
    cfg.num_nodes = 1;
    cfg.arrival_rate = 6.0;
    cfg.node_capacity = 30.0;
    cfg.noise_event_rate = 1.0 / 7200.0;
    cfg.lookalike_event_rate = 1.0 / 14400.0;
    return cfg;
  }

  static double injected(const obs::Observability& hub, const char* kind) {
    const auto& counters = hub.metrics().counters();
    const auto it = counters.find(
        std::string("pfm_injected_faults_total{kind=\"") + kind + "\"}");
    return it == counters.end() ? 0.0 : static_cast<double>(it->second->value());
  }

  Built build(double horizon, Mode mode) const {
    const bool traced = mode == Mode::kTraced;
    Built b;
    b.hub = std::make_unique<obs::Observability>(obs::ObservabilityConfig{
        threads(), mode == Mode::kProgramTraced ? kProgramTraceCapacity : 0,
        0});

    // Fault plan: sample drops everywhere, NaN and throwing predictors,
    // failing actions and one scripted node crash. No wall-latency faults.
    inj::FaultPlan faults;
    faults.seed = derive(seed_, 3);
    faults.default_node.drop_sample_p = 0.02;
    faults.default_predictor.throw_p = 0.0005;
    faults.default_predictor.nan_p = 0.0005;
    faults.default_action.fail_p = 0.2;
    // The crash target lies outside every slot the membership plan touches.
    const std::size_t crash_node = derive(seed_, 4) % (kNodes / 2);
    faults.nodes[crash_node] = faults.default_node;
    faults.nodes[crash_node].crash_at = 0.375 * horizon;
    b.scripted.insert(crash_node);
    b.injector = std::make_unique<inj::FaultInjector>(faults);
    b.injector->set_observability(b.hub.get());

    // Membership plan: a scale-out burst, a rolling restart and a zone loss.
    const std::size_t burst = kNodes / 16;
    const std::size_t restarts = kNodes / 32;
    const std::size_t zone = kNodes / 16;
    membership::MembershipConfig members;
    members.plan.seed = derive(seed_, 5);
    members.plan.scale_out(0.125 * horizon, burst, kInterval);
    members.plan.rolling_restart(0.25 * horizon, kNodes / 2, restarts,
                                 2.0 * kInterval);
    members.plan.zone_loss(0.75 * horizon, kNodes - zone, zone);
    b.plan_joins = burst + restarts;
    b.plan_leaves = restarts + zone;
    const telecom::SimConfig node_cfg = node_config(horizon);
    inj::FaultInjector* injector = b.injector.get();
    members.factory = [node_cfg, traced,
                       injector](const membership::JoinContext& ctx) {
      telecom::SimConfig cfg = node_cfg;
      cfg.seed = ctx.seed;
      return injector->wrap_node(
          ctx.node,
          maybe_timed(std::make_unique<runtime::ScpManagedSystem>(cfg), traced,
                      ctx.node));
    };

    runtime::FleetConfig cfg;
    cfg.mea.windows = case_windows();
    cfg.mea.evaluation_interval = kInterval;
    cfg.mea.warning_threshold = 0.5;  // calibrated predictors
    cfg.mea.context_samples = 240;
    cfg.num_threads = threads();
    cfg.scheduler = runtime::FleetScheduler::kEventDriven;
    cfg.num_shards = 4;
    cfg.epoch_ticks = 4;
    cfg.schedule.adaptive = true;
    cfg.schedule.max_gap = 16;
    cfg.schedule.hot_score_fraction = 1.0;
    cfg.membership = std::move(members);
    cfg.obs = b.hub.get();

    auto nodes = runtime::make_scp_fleet(node_cfg, kNodes);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i] = maybe_timed(std::move(nodes[i]), traced, i);
    }
    b.fleet = std::make_unique<runtime::FleetController>(
        b.injector->wrap_fleet(std::move(nodes)), std::move(cfg));
    b.fleet->add_symptom_predictor(b.injector->wrap_symptom_predictor(
        0, maybe_timed(ubf_, traced, "prediction.score.ubf")));
    b.fleet->add_symptom_predictor(b.injector->wrap_symptom_predictor(
        1, maybe_timed(trend_, traced, "prediction.score.trend")));
    b.fleet->add_event_predictor(b.injector->wrap_event_predictor(
        2, maybe_timed(hsmm_, traced, "prediction.score.hsmm")));
    b.fleet->add_action(b.injector->wrap_action_factory(
        0, maybe_timed(
               [] { return std::make_unique<act::StateCleanupAction>(); },
               traced)));
    b.fleet->add_action(b.injector->wrap_action_factory(
        1, maybe_timed(
               [] { return std::make_unique<act::PreparedRepairAction>(900.0); },
               traced)));
    return b;
  }

  std::uint64_t seed_;
  std::string workdir_;
  std::vector<pred::PredictorReport> reports_;
  std::shared_ptr<const pred::SymptomPredictor> ubf_;
  std::shared_ptr<const pred::SymptomPredictor> trend_;
  std::shared_ptr<const pred::EventPredictor> hsmm_;
  TraceTotals setup_trace_;
  std::unique_ptr<Built> next_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& workdir) {
  if (name == "paper_pipeline") return std::make_unique<PaperPipeline>(seed);
  if (name == "fleet_dense") return std::make_unique<FleetDense>(seed);
  if (name == "fleet_serving") {
    return std::make_unique<FleetServing>(seed, workdir);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

std::string fingerprint(const Values& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [name, value] : values) {
    mix(name.data(), name.size());
    mix(&value, sizeof(value));
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

}  // namespace perfbench
