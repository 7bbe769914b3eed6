// Fleet memory follows the window: a fleet node's trace keeps only what
// the MEA round reads (the newest context_samples samples, the events of
// the trailing data window and every failure), and what it keeps is the
// exact tail of the full trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "injection/injector.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"

namespace pfm {
namespace {

class PressurePredictor final : public pred::SymptomPredictor {
 public:
  explicit PressurePredictor(std::size_t pressure_index)
      : index_(pressure_index) {}
  std::string name() const override { return "pressure"; }
  void train(const mon::MonitoringDataset&) override {}
  double score(const pred::SymptomContext& ctx) const override {
    return ctx.history.back().values.at(index_);
  }

 private:
  std::size_t index_;
};

class EventCountPredictor final : public pred::EventPredictor {
 public:
  std::string name() const override { return "event-count"; }
  void train(std::span<const mon::ErrorSequence>,
             std::span<const mon::ErrorSequence>) override {}
  double score(const mon::ErrorSequence& seq) const override {
    return std::min(1.0, static_cast<double>(seq.events.size()) / 50.0);
  }
};

telecom::SimConfig node_config(double duration) {
  telecom::SimConfig cfg;
  cfg.seed = 33;
  cfg.duration = duration;
  cfg.leak_mtbf = 21600.0;
  cfg.cascade_mtbf = 43200.0;  // error bursts for the event window
  return cfg;
}

runtime::FleetConfig fleet_config(bool event_driven) {
  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.9;
  cfg.mea.context_samples = 12;
  cfg.num_threads = 2;
  if (event_driven) {
    cfg.scheduler = runtime::FleetScheduler::kEventDriven;
    cfg.num_shards = 2;
    cfg.epoch_ticks = 4;
    cfg.schedule.adaptive = true;
    cfg.schedule.max_gap = 6;
  }
  return cfg;
}

void add_predictors(runtime::FleetController& fleet,
                    const mon::MonitoringDataset& any_trace) {
  const auto idx = *any_trace.schema().index("mem_pressure_max");
  fleet.add_symptom_predictor(std::make_shared<PressurePredictor>(idx));
  fleet.add_event_predictor(std::make_shared<EventCountPredictor>());
}

std::size_t retained_bytes(const mon::MonitoringDataset& t) {
  std::size_t bytes = t.events().size() * sizeof(mon::ErrorEvent) +
                      t.failures().size() * sizeof(double);
  for (const auto& s : t.samples()) {
    bytes += sizeof(s) + s.values.capacity() * sizeof(double);
  }
  return bytes;
}

// Without actions nothing perturbs a node, so its trajectory is the
// standalone simulator's with the node's derived seed.
TEST(FleetRetention, RetainedTraceIsTheExactTailOfTheFullTrace) {
  constexpr std::size_t kNodes = 3;
  const double duration = 0.5 * 86400.0;
  for (const bool event_driven : {false, true}) {
    SCOPED_TRACE(event_driven ? "event-driven" : "lockstep");
    const auto cfg = fleet_config(event_driven);
    auto nodes = runtime::make_scp_fleet(node_config(duration), kNodes);
    const auto& schema_source = nodes.front()->trace();
    runtime::FleetController fleet(std::move(nodes), cfg);
    add_predictors(fleet, schema_source);
    fleet.run();

    for (std::size_t i = 0; i < kNodes; ++i) {
      SCOPED_TRACE("node " + std::to_string(i));
      telecom::SimConfig sc = node_config(duration);
      sc.seed = runtime::derive_node_seed(sc.seed, i);
      telecom::ScpSimulator sim(sc);
      sim.run();
      const auto& full = sim.trace();
      const auto& kept = fleet.node(i).trace();
      const double now = fleet.node(i).now();
      ASSERT_EQ(now, sim.now());

      // Counts follow every append; the store keeps a bounded tail.
      ASSERT_EQ(kept.sample_count(), full.samples().size());
      ASSERT_EQ(kept.event_count(), full.events().size());
      EXPECT_GE(kept.samples().size(), cfg.mea.context_samples);
      EXPECT_LT(kept.samples().size(), full.samples().size() / 10);
      EXPECT_LT(kept.events().size(), full.events().size());

      // Samples: the tail, bit for bit.
      const std::size_t first = full.samples().size() - kept.samples().size();
      for (std::size_t k = 0; k < kept.samples().size(); ++k) {
        const auto& a = kept.samples()[k];
        const auto& b = full.samples()[first + k];
        ASSERT_EQ(a.time, b.time);
        ASSERT_EQ(a.values, b.values);
      }
      // Events: the tail, holding at least (now - data_window, now].
      const std::size_t first_event =
          full.events().size() - kept.events().size();
      for (std::size_t k = 0; k < kept.events().size(); ++k) {
        const auto& a = kept.events()[k];
        const auto& b = full.events()[first_event + k];
        ASSERT_EQ(a.time, b.time);
        ASSERT_EQ(a.event_id, b.event_id);
        ASSERT_EQ(a.component, b.component);
        ASSERT_EQ(a.severity, b.severity);
      }
      const auto window =
          full.events_in(now - cfg.mea.windows.data_window, now);
      EXPECT_GE(kept.events().size(), window.size());
      // Failures: all of them.
      ASSERT_EQ(kept.failures().size(), full.failures().size());
      EXPECT_TRUE(std::equal(kept.failures().begin(), kept.failures().end(),
                             full.failures().begin()));
    }
  }
}

// The ROADMAP's check: a fleet twice as long keeps no more trace.
TEST(FleetRetention, DoublingTheHorizonLeavesPeakRetainedBytesFlat) {
  constexpr std::size_t kNodes = 2;
  auto peak_bytes = [](double duration, std::size_t* appended) {
    auto nodes = runtime::make_scp_fleet(node_config(duration), kNodes);
    const auto& schema_source = nodes.front()->trace();
    runtime::FleetController fleet(std::move(nodes), fleet_config(true));
    add_predictors(fleet, schema_source);
    fleet.add_action([] {
      return std::make_unique<act::StateCleanupAction>(0.70);
    });
    std::size_t peak = 0;
    for (double t = 3600.0; t <= duration; t += 3600.0) {
      fleet.run_until(t);
      std::size_t bytes = 0;
      for (std::size_t i = 0; i < kNodes; ++i) {
        bytes += retained_bytes(fleet.node(i).trace());
      }
      peak = std::max(peak, bytes);
    }
    *appended = fleet.node(0).trace().sample_count();
    return peak;
  };
  std::size_t appended_1 = 0;
  std::size_t appended_2 = 0;
  const std::size_t peak_1 = peak_bytes(86400.0, &appended_1);
  const std::size_t peak_2 = peak_bytes(2.0 * 86400.0, &appended_2);
  EXPECT_EQ(appended_2, 2 * appended_1);
  // Flat up to the failure log and the size of the largest error burst
  // inside one data window.
  EXPECT_LE(peak_2, peak_1 + peak_1 / 4);
  // And far below the full trace of one node.
  EXPECT_LT(peak_1, appended_1 * 160 / 10);
}

// Under a drop-and-corrupt plan the shadow is what the fleet reads: the
// wrapper drains its inner store after every copy, and the shadow is
// bounded by the fleet's release.
TEST(FleetRetention, FaultWrapperDrainsItsInnerTraceAndBoundsItsShadow) {
  constexpr std::size_t kNodes = 3;
  const double duration = 0.5 * 86400.0;
  inj::FaultPlan plan;
  plan.seed = 5;
  plan.default_node.drop_sample_p = 0.2;
  plan.default_node.corrupt_sample_p = 0.2;
  inj::FaultInjector injector(plan);

  std::vector<std::unique_ptr<telecom::ScpSimulator>> sims;
  std::vector<std::unique_ptr<core::ManagedSystem>> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    telecom::SimConfig sc = node_config(duration);
    sc.seed = runtime::derive_node_seed(sc.seed, i);
    sims.push_back(std::make_unique<telecom::ScpSimulator>(sc));
    nodes.push_back(injector.wrap_node(
        i, std::make_unique<runtime::ScpManagedSystem>(*sims.back())));
  }
  const auto cfg = fleet_config(false);
  runtime::FleetController fleet(std::move(nodes), cfg);
  add_predictors(fleet, sims.front()->trace());
  fleet.run();

  const auto stats = injector.stats();
  EXPECT_GT(stats.samples_dropped, 0u);
  EXPECT_GT(stats.samples_corrupted, 0u);
  std::size_t shadow_samples = 0;
  // One Monitor step appends evaluation_interval / sample_interval
  // samples; the inner store keeps no more than one step's worth.
  const std::size_t per_step = static_cast<std::size_t>(
      cfg.mea.evaluation_interval / sims.front()->config().sample_interval);
  for (std::size_t i = 0; i < kNodes; ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    const auto& inner = sims[i]->trace();
    const auto& shadow = fleet.node(i).trace();
    EXPECT_GT(inner.sample_count(), 1000u);
    EXPECT_LE(inner.samples().size(), per_step);
    EXPECT_EQ(shadow.event_count(), inner.event_count());
    EXPECT_LE(shadow.samples().size(), cfg.mea.context_samples + per_step);
    EXPECT_EQ(shadow.failures().size(), inner.failures().size());
    shadow_samples += shadow.sample_count();
  }
  std::size_t inner_samples = 0;
  for (const auto& sim : sims) inner_samples += sim->trace().sample_count();
  EXPECT_EQ(shadow_samples + stats.samples_dropped, inner_samples);
}

}  // namespace
}  // namespace pfm
