// Offline trace analysis workflow: persist a monitoring trace to the CSV
// trace format, reload it (as an operator would with real field data),
// summarize it, ask the diagnosis component who is to blame while a
// fault is still only a precursor — then run a closed MEA loop with the
// observability hub, the online quality scoreboard and the flight
// recorder attached, export its stage spans as a Chrome trace-event
// file (loadable at ui.perfetto.dev), and print the live Eq. 8
// self-assessment plus the post-mortem the crashed node left behind.
//
//   $ ./examples/trace_analysis [output.csv] [mea_trace.json]

#include <cstdio>
#include <map>
#include <memory>

#include "core/diagnosis.hpp"
#include "injection/injector.hpp"
#include "monitoring/io.hpp"
#include "numerics/stats.hpp"
#include "obs/export.hpp"
#include "obs/observability.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"
#include "telecom/simulator.hpp"

namespace {

/// Oracle predictor for the demo loop: newest worst-node memory pressure
/// (no training needed, so the example stays self-contained).
class PressurePredictor final : public pfm::pred::SymptomPredictor {
 public:
  explicit PressurePredictor(std::size_t index) : index_(index) {}
  std::string name() const override { return "pressure"; }
  void train(const pfm::mon::MonitoringDataset&) override {}
  double score(const pfm::pred::SymptomContext& ctx) const override {
    return ctx.history.back().values.at(index_);
  }

 private:
  std::size_t index_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pfm;
  const std::string path = argc > 1 ? argv[1] : "/tmp/pfm_trace.csv";

  // Record two days of operation and persist the trace.
  telecom::SimConfig cfg;
  cfg.seed = 404;
  cfg.duration = 2.0 * 86400.0;
  cfg.leak_mtbf = 43200.0;  // a leak is likely within the window
  telecom::ScpSimulator sim(cfg);
  sim.run();
  mon::save_csv(sim.trace(), path);
  std::printf("wrote %s\n", path.c_str());

  // Reload and summarize — from here on, only the file's contents matter.
  const auto trace = mon::load_csv(path);
  std::printf("\ntrace summary:\n");
  std::printf("  span: %.1f h, %zu samples, %zu error events, %zu failures\n",
              (trace.end_time() - trace.start_time()) / 3600.0,
              trace.samples().size(), trace.events().size(),
              trace.failures().size());

  // Error-log profile: events per id, most frequent first.
  std::map<std::int32_t, int> by_id;
  for (const auto& e : trace.events()) ++by_id[e.event_id];
  std::printf("  busiest error ids:");
  for (int rank = 0; rank < 4; ++rank) {
    int best_count = 0;
    std::int32_t best_id = -1;
    for (const auto& [id, count] : by_id) {
      if (count > best_count) {
        best_count = count;
        best_id = id;
      }
    }
    if (best_id < 0) break;
    std::printf(" %d(%dx)", best_id, best_count);
    by_id.erase(best_id);
  }
  std::printf("\n");

  // Per-variable statistics of the symptom channels.
  std::printf("\n  %-18s %10s %10s %10s\n", "variable", "mean", "min", "max");
  for (std::size_t j = 0; j < trace.schema().size(); ++j) {
    num::RunningStats rs;
    for (const auto& s : trace.samples()) rs.add(s.values[j]);
    std::printf("  %-18s %10.2f %10.2f %10.2f\n",
                trace.schema().name(j).c_str(), rs.mean(), rs.min(),
                rs.max());
  }

  // Diagnosis at a failure-prone moment: re-run the platform to just
  // before its first failure and ask who looks suspicious.
  if (!trace.failures().empty()) {
    const double first_failure = trace.failures().front();
    telecom::ScpSimulator replay(cfg);
    replay.step_to(first_failure - 300.0);  // lead time before the failure
    runtime::ScpManagedSystem replay_system(replay);
    core::Diagnoser diagnoser;
    const auto suspects = diagnoser.diagnose(replay_system);
    std::printf("\ndiagnosis %.0f s before the first failure (t=%.0f):\n",
                300.0, first_failure);
    if (suspects.empty()) {
      std::printf("  no component stands out\n");
    }
    for (const auto& s : suspects) {
      if (s.component >= 0) {
        std::printf("  node %d  score %.2f  (%s)\n", s.component, s.score,
                    s.evidence.c_str());
      } else {
        std::printf("  system-wide  score %.2f  (%s)\n", s.score,
                    s.evidence.c_str());
      }
    }
  }

  // Closed-loop observability: run a small MEA fleet over the same
  // scenario with the obs hub attached, then export every recorded stage
  // span (Monitor/Evaluate/Act, per-node steps, per-predictor scoring,
  // warnings, actions) as a Chrome trace-event file. Open it in Perfetto:
  // go to https://ui.perfetto.dev and use "Open trace file" — one lane
  // per node and predictor, timestamps in simulated seconds.
  const std::string mea_trace_path =
      argc > 2 ? argv[2] : "/tmp/pfm_mea_trace.json";
  obs::ObservabilityConfig ocfg;
  ocfg.shards = 2;                // controller + 1 pool worker
  ocfg.trace_capacity = 1 << 16;  // ample for half a day of rounds
  ocfg.flight_capacity = 32;      // per-node flight recorder ring
  obs::Observability hub(ocfg);

  // One scripted crash so the flight recorder has a story to tell: the
  // quarantine of node 1 dumps its last 32 events as a post-mortem.
  inj::FaultPlan plan;
  plan.seed = 1234;
  plan.nodes[1].crash_at = 10800.0;
  inj::FaultInjector injector(plan);
  injector.set_observability(&hub);

  telecom::SimConfig loop_cfg = cfg;
  loop_cfg.duration = 0.5 * 86400.0;
  runtime::FleetConfig fleet_cfg;
  fleet_cfg.mea.warning_threshold = 0.72;
  fleet_cfg.mea.action_cooldown = 600.0;
  fleet_cfg.num_threads = 2;
  fleet_cfg.quality = true;  // the live Sect. 3.3 scoreboard
  fleet_cfg.obs = &hub;
  auto nodes = runtime::make_scp_fleet(loop_cfg, 4);
  const auto pressure_idx =
      *nodes.front()->trace().schema().index("mem_pressure_max");
  runtime::FleetController fleet(injector.wrap_fleet(std::move(nodes)),
                                 fleet_cfg);
  fleet.add_symptom_predictor(
      std::make_shared<PressurePredictor>(pressure_idx));
  fleet.add_action(
      [] { return std::make_unique<act::StateCleanupAction>(0.70); });
  fleet.add_action(
      [] { return std::make_unique<act::PreparedRepairAction>(1800.0); });
  fleet.run();

  const std::string chrome = obs::chrome_trace_json(hub.trace());
  if (std::FILE* f = std::fopen(mea_trace_path.c_str(), "w")) {
    std::fwrite(chrome.data(), 1, chrome.size(), f);
    std::fclose(f);
  }
  const auto t = fleet.telemetry();
  std::printf("\nclosed-loop run: %zu rounds, %zu warnings, %llu spans "
              "(%llu dropped)\n",
              t.rounds, t.warnings_raised,
              static_cast<unsigned long long>(hub.trace().recorded()),
              static_cast<unsigned long long>(hub.trace().dropped()));
  std::printf("wrote %s — open it at https://ui.perfetto.dev "
              "(\"Open trace file\")\n", mea_trace_path.c_str());

  // The same hub doubles as the scrape surface; here is the exposition a
  // Prometheus agent would pull.
  std::printf("\nscrape sample (first lines):\n");
  const std::string scrape = obs::prometheus_text(hub.metrics());
  std::size_t printed = 0, pos = 0;
  while (printed < 8 && pos < scrape.size()) {
    const std::size_t eol = scrape.find('\n', pos);
    std::printf("  %s\n", scrape.substr(pos, eol - pos).c_str());
    pos = eol + 1;
    ++printed;
  }
  std::printf("  ...\n");

  // The online quality scoreboard (DESIGN.md §10): the combined lane's
  // live Sect. 3.3 quality and the Eq. 8 self-assessment — what the
  // Fig. 9 model predicts availability should be given the quality the
  // predictor is demonstrating, next to what the fleet measured.
  std::printf("\nquality scoreboard (combined lane + Eq. 8 gauges):\n");
  pos = 0;
  while (pos < scrape.size()) {
    const std::size_t eol = scrape.find('\n', pos);
    const std::string line = scrape.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.compare(0, 12, "pfm_quality_") != 0) continue;
    if (line.find("availability") == std::string::npos &&
        line.find("{predictor=\"combined\"}") == std::string::npos) {
      continue;
    }
    std::printf("  %s\n", line.c_str());
  }

  // The crashed node's post-mortem: the flight recorder dumped its last
  // events (scores, warnings, actions, the injected fault) when the
  // fleet quarantined it.
  std::printf("\nflight-recorder post-mortem (first dump):\n");
  const std::string dumps = hub.flight()->post_mortems_text();
  printed = 0;
  pos = 0;
  while (printed < 10 && pos < dumps.size()) {
    const std::size_t eol = dumps.find('\n', pos);
    const std::string line = dumps.substr(pos, eol - pos);
    if (printed > 0 && line.compare(0, 14, "{\"postmortem\":") == 0) break;
    std::printf("  %s\n", line.c_str());
    pos = eol + 1;
    ++printed;
  }
  if (pos < dumps.size()) std::printf("  ...\n");
  return 0;
}
