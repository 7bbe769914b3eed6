// Flight recorder (DESIGN.md §10): the per-scope ring must keep exactly
// the newest `capacity` events and count the rest as dropped, dumps must
// render a hand-checkable golden JSON-line post-mortem, a hostile fault
// plan must leave a quarantine post-mortem on the crashed node, and the
// full post-mortem text must be byte-identical across thread counts.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "injection/injector.hpp"
#include "obs/flight.hpp"
#include "obs/observability.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"

namespace pfm {
namespace {

// --- unit semantics of the ring and the dump format --------------------------

TEST(QualityFlightRecorder, GoldenPostMortemIsByteExact) {
  obs::FlightRecorder rec(3);
  ASSERT_TRUE(rec.enabled());
  rec.ensure_nodes(1);
  rec.record_node(0, {100.0, obs::FlightEventKind::kScore, 0, 0, 0.25});
  rec.record_node(0, {160.0, obs::FlightEventKind::kScore, 0, 0, 0.5});
  rec.record_node(0, {220.0, obs::FlightEventKind::kWarning, 0, 810000, 0.81});
  rec.record_node(0, {220.0, obs::FlightEventKind::kAction, 1, 2, 0.81});
  rec.dump_node(0, "quarantine", 250.0);

  // Four events through a three-slot ring: the t=100 score fell off.
  const std::string expected =
      "{\"postmortem\":\"node\",\"id\":0,\"reason\":\"quarantine\","
      "\"time\":250,\"events\":3,\"dropped\":1}\n"
      "{\"t\":160,\"kind\":\"score\",\"sub\":0,\"arg\":0,\"value\":0.5}\n"
      "{\"t\":220,\"kind\":\"warning\",\"sub\":0,\"arg\":810000,"
      "\"value\":0.81}\n"
      "{\"t\":220,\"kind\":\"action\",\"sub\":1,\"arg\":2,\"value\":0.81}\n";
  EXPECT_EQ(rec.post_mortems_text(), expected);
  EXPECT_EQ(rec.dump_count(), 1u);
  rec.clear_dumps();
  EXPECT_EQ(rec.dump_count(), 0u);
  EXPECT_EQ(rec.post_mortems_text(), "");
}

TEST(QualityFlightRecorder, LaneDumpCarriesShardAndPredictor) {
  obs::FlightRecorder rec(4);
  rec.ensure_lanes(6, /*stride=*/2);  // three shards, two predictors
  rec.record_lane(5, {300.0, obs::FlightEventKind::kBreakerTrip, 7, 3, 0.0});
  rec.dump_lane(5, "breaker", 300.0);
  const std::string expected =
      "{\"postmortem\":\"predictor\",\"id\":5,\"shard\":2,\"predictor\":1,"
      "\"reason\":\"breaker\",\"time\":300,\"events\":1,\"dropped\":0}\n"
      "{\"t\":300,\"kind\":\"breaker_trip\",\"sub\":7,\"arg\":3,"
      "\"value\":0}\n";
  EXPECT_EQ(rec.post_mortems_text(), expected);
}

TEST(QualityFlightRecorder, RingKeepsNewestEventsOnly) {
  obs::FlightRecorder rec(2);
  rec.ensure_nodes(2);
  for (int i = 0; i < 5; ++i) {
    rec.record_node(
        0, {static_cast<double>(i), obs::FlightEventKind::kScore, 0, i, 0.0});
  }
  rec.dump_node(0, "drain", 10.0);
  const std::string text = rec.post_mortems_text();
  EXPECT_NE(text.find("\"events\":2,\"dropped\":3"), std::string::npos);
  EXPECT_EQ(text.find("\"arg\":2,"), std::string::npos) << "evicted event";
  EXPECT_NE(text.find("\"arg\":3,"), std::string::npos);
  EXPECT_NE(text.find("\"arg\":4,"), std::string::npos);
  // Scopes are independent: node 1 recorded nothing.
  rec.dump_node(1, "drain", 11.0);
  EXPECT_NE(rec.post_mortems_text().find("\"events\":0,\"dropped\":0"),
            std::string::npos);
}

TEST(QualityFlightRecorder, DumpsAreOrderedByTimeFamilyIdSequence) {
  obs::FlightRecorder rec(2);
  rec.ensure_nodes(2);
  rec.ensure_lanes(1, 1);
  rec.dump_lane(0, "breaker", 50.0);   // predictor family sorts after node
  rec.dump_node(1, "quarantine", 50.0);
  rec.dump_node(0, "drain", 20.0);
  const std::string text = rec.post_mortems_text();
  const auto drain = text.find("\"reason\":\"drain\"");
  const auto quarantine = text.find("\"reason\":\"quarantine\"");
  const auto breaker = text.find("\"reason\":\"breaker\"");
  ASSERT_NE(drain, std::string::npos);
  ASSERT_NE(quarantine, std::string::npos);
  ASSERT_NE(breaker, std::string::npos);
  EXPECT_LT(drain, quarantine);
  EXPECT_LT(quarantine, breaker);
}

TEST(QualityFlightRecorder, ZeroCapacityDisablesEverything) {
  obs::FlightRecorder rec(0);
  EXPECT_FALSE(rec.enabled());
  rec.ensure_nodes(4);
  rec.ensure_lanes(4, 2);
  EXPECT_EQ(rec.node_scopes(), 0u);
  EXPECT_EQ(rec.lane_scopes(), 0u);
  rec.record_node(0, {1.0, obs::FlightEventKind::kScore, 0, 0, 0.0});
  rec.dump_node(0, "quarantine", 1.0);
  EXPECT_EQ(rec.dump_count(), 0u);

  // The hub only hands out a recorder when one was configured.
  obs::ObservabilityConfig off;
  obs::Observability hub_off(off);
  EXPECT_EQ(hub_off.flight(), nullptr);
  obs::ObservabilityConfig on;
  on.flight_capacity = 8;
  obs::Observability hub_on(on);
  ASSERT_NE(hub_on.flight(), nullptr);
  EXPECT_EQ(hub_on.flight()->capacity(), 8u);
}

// --- fleet integration: a hostile plan leaves a post-mortem -------------------

/// Oracle predictor: newest value of symptom 0 (see test_fleet).
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

telecom::SimConfig scp_config() {
  telecom::SimConfig cfg;
  cfg.seed = 21;
  cfg.duration = 0.5 * 86400.0;
  cfg.leak_mtbf = 21600.0;
  cfg.cascade_mtbf = 1e12;
  cfg.spike_mtbf = 1e12;
  return cfg;
}

/// The hostile scenario of the injected-fault counter test, with the
/// flight recorder armed: node 1 crashes at 10800 s and must leave a
/// quarantine post-mortem whose tail records the injected fault.
std::string run_hostile_fleet(std::size_t num_threads) {
  const std::size_t kNodes = 4;
  obs::ObservabilityConfig ocfg;
  ocfg.shards = num_threads;
  ocfg.flight_capacity = 32;
  obs::Observability hub(ocfg);

  inj::FaultPlan plan;
  plan.seed = 1234;
  plan.nodes[1].crash_at = 10800.0;
  plan.default_node.drop_sample_p = 0.05;
  plan.predictors[0].nan_p = 0.05;
  plan.actions[0].fail_p = 0.5;
  inj::FaultInjector injector(plan);
  injector.set_observability(&hub);

  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.72;
  cfg.mea.action_cooldown = 600.0;
  cfg.num_threads = num_threads;
  cfg.quality = true;  // the scoreboard rides along
  cfg.obs = &hub;

  auto nodes = runtime::make_scp_fleet(scp_config(), kNodes);
  const auto idx = *nodes.front()->trace().schema().index("mem_pressure_max");
  runtime::FleetController fleet(injector.wrap_fleet(std::move(nodes)), cfg);
  fleet.add_symptom_predictor(injector.wrap_symptom_predictor(
      0, std::make_shared<PressurePredictor>(idx)));
  fleet.add_action(injector.wrap_action_factory(0, [] {
    return std::make_unique<act::StateCleanupAction>(0.70);
  }));
  fleet.add_action(injector.wrap_action_factory(1, [] {
    return std::make_unique<act::PreparedRepairAction>(1800.0);
  }));
  fleet.run();

  EXPECT_TRUE(fleet.node_quarantined(1));
  EXPECT_GE(hub.flight()->dump_count(), 1u);
  return hub.flight()->post_mortems_text();
}

TEST(QualityFlightFleet, CrashLeavesAQuarantinePostMortem) {
  const std::string text = run_hostile_fleet(2);
  EXPECT_NE(text.find("{\"postmortem\":\"node\",\"id\":1,"), std::string::npos);
  EXPECT_NE(text.find("\"reason\":\"quarantine\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"injected_fault\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"score\""), std::string::npos);
}

TEST(QualityFlightFleet, PostMortemsAreBitIdenticalAcrossThreadCounts) {
  const std::string t1 = run_hostile_fleet(1);
  const std::string t2 = run_hostile_fleet(2);
  const std::string t8 = run_hostile_fleet(8);
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
}

}  // namespace
}  // namespace pfm
