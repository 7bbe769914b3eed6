#include "telecom/simulator.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <utility>
#include <vector>

namespace pfm::telecom {
namespace {

TEST(SimConfig, Validation) {
  SimConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  cfg.duration = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SimConfig{};
  cfg.num_nodes = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SimConfig{};
  cfg.diurnal_amplitude = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SimConfig{};
  cfg.max_violation_fraction = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  // Every value that parameterises a random draw must be finite and
  // positive, bounds must be ordered, and NaN must not slip through.
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<const char*, double SimConfig::*>> drawn{
      {"arrival_rate", &SimConfig::arrival_rate},
      {"spike_mtbf", &SimConfig::spike_mtbf},
      {"spike_min_factor", &SimConfig::spike_min_factor},
      {"spike_max_factor", &SimConfig::spike_max_factor},
      {"spike_min_duration", &SimConfig::spike_min_duration},
      {"spike_max_duration", &SimConfig::spike_max_duration},
      {"leak_mtbf", &SimConfig::leak_mtbf},
      {"leak_min_rate", &SimConfig::leak_min_rate},
      {"leak_max_rate", &SimConfig::leak_max_rate},
      {"cascade_mtbf", &SimConfig::cascade_mtbf},
      {"cascade_stage_mean", &SimConfig::cascade_stage_mean},
      {"noise_event_rate", &SimConfig::noise_event_rate},
      {"lookalike_event_rate", &SimConfig::lookalike_event_rate},
      {"response_sigma", &SimConfig::response_sigma},
  };
  for (const auto& [name, field] : drawn) {
    for (const double bad : {nan, inf, 0.0, -240.0}) {
      cfg = SimConfig{};
      cfg.*field = bad;
      EXPECT_THROW(cfg.validate(), std::invalid_argument)
          << name << " = " << bad;
    }
  }
  for (std::size_t c = 0; c < kNumRequestClasses; ++c) {
    for (const double bad : {nan, inf, 0.0, -240.0}) {
      cfg = SimConfig{};
      cfg.base_response_ms[c] = bad;
      EXPECT_THROW(cfg.validate(), std::invalid_argument)
          << "base_response_ms[" << c << "] = " << bad;
    }
  }
  cfg = SimConfig{};
  std::swap(cfg.leak_min_rate, cfg.leak_max_rate);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SimConfig{};
  std::swap(cfg.spike_min_factor, cfg.spike_max_factor);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SimConfig{};
  std::swap(cfg.spike_min_duration, cfg.spike_max_duration);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Simulator, ReproducibleForSameSeed) {
  SimConfig cfg;
  cfg.duration = 86400.0;
  cfg.seed = 42;
  ScpSimulator a(cfg), b(cfg);
  a.run();
  b.run();
  EXPECT_EQ(a.stats().failures, b.stats().failures);
  EXPECT_EQ(a.stats().total_requests, b.stats().total_requests);
  EXPECT_EQ(a.trace().events().size(), b.trace().events().size());
  EXPECT_EQ(a.trace().samples().size(), b.trace().samples().size());
}

TEST(Simulator, BusyQuietClassesMatchPinnedSlowCallCounts) {
  // Pins the slow-call counts of a busy platform whose classes run close
  // to the Eq. 2 limit: ten times the default traffic on ten times the
  // capacity, with slower nominal responses. Most per-class draws have a
  // violation probability between 1e-8 and 3.4e-6 and some of them come
  // out nonzero, which never happens over 14 default days. A sampler
  // that decides such a draw wrongly (say, a 0 without its mean) moves
  // these counts while the fleet goldens, built on default nodes, hold.
  SimConfig cfg;
  cfg.seed = 3;
  cfg.duration = 86400.0;
  cfg.arrival_rate = 600.0;
  cfg.node_capacity = 300.0;
  cfg.base_response_ms[0] = 50.0;
  cfg.base_response_ms[1] = 45.0;
  cfg.base_response_ms[2] = 40.0;
  ScpSimulator sim(cfg);
  sim.run();
  EXPECT_EQ(sim.stats().total_requests, 49'980'399);
  EXPECT_EQ(sim.stats().violations, 66'223);
  EXPECT_EQ(sim.stats().failures, 7);
}

TEST(Simulator, DifferentSeedsDiffer) {
  SimConfig cfg;
  cfg.duration = 86400.0;
  cfg.seed = 1;
  ScpSimulator a(cfg);
  cfg.seed = 2;
  ScpSimulator b(cfg);
  a.run();
  b.run();
  EXPECT_NE(a.stats().total_requests, b.stats().total_requests);
}

TEST(Simulator, SchemaHasFifteenDocumentedVariables) {
  SimConfig cfg;
  cfg.duration = 600.0;
  ScpSimulator sim(cfg);
  sim.run();
  const auto& schema = sim.trace().schema();
  EXPECT_EQ(schema.size(), 15u);
  EXPECT_TRUE(schema.index("free_mem_min_mb").has_value());
  EXPECT_TRUE(schema.index("util_max").has_value());
  EXPECT_TRUE(schema.index("error_rate").has_value());
  EXPECT_FALSE(schema.index("no_such_variable").has_value());
}

TEST(Simulator, SamplesArriveAtConfiguredInterval) {
  SimConfig cfg;
  cfg.duration = 3600.0;
  cfg.sample_interval = 30.0;
  ScpSimulator sim(cfg);
  sim.run();
  const auto samples = sim.trace().samples();
  ASSERT_GT(samples.size(), 100u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_NEAR(samples[i].time - samples[i - 1].time, 30.0, 1.5);
  }
}

TEST(Simulator, MultiDayRunProducesFailuresOfSeveralCauses) {
  SimConfig cfg;
  cfg.duration = 7.0 * 86400.0;
  cfg.seed = 5;
  ScpSimulator sim(cfg);
  sim.run();
  EXPECT_GT(sim.stats().failures, 10);
  EXPECT_LT(sim.stats().failures, 200);
  EXPECT_EQ(static_cast<std::size_t>(sim.stats().failures),
            sim.trace().failures().size());
  std::set<FailureCause> causes;
  for (const auto& f : sim.failure_infos()) causes.insert(f.cause);
  // The three injected fault classes all surface as failures.
  EXPECT_TRUE(causes.contains(FailureCause::kMemoryLeak));
  EXPECT_TRUE(causes.contains(FailureCause::kCascade));
  EXPECT_TRUE(causes.contains(FailureCause::kOverload));
}

TEST(Simulator, AvailabilityWithinBoundsAndDowntimeConsistent) {
  SimConfig cfg;
  cfg.duration = 4.0 * 86400.0;
  cfg.seed = 9;
  ScpSimulator sim(cfg);
  sim.run();
  const auto& st = sim.stats();
  EXPECT_GT(st.availability(), 0.8);
  EXPECT_LE(st.availability(), 1.0);
  // Downtime should roughly equal the sum of repair times (failures do not
  // overlap because the service is down while repairing).
  double ttr_sum = 0.0;
  for (const auto& f : sim.failure_infos()) ttr_sum += f.repair_time;
  EXPECT_NEAR(st.downtime, ttr_sum, 0.05 * ttr_sum + 10.0);
}

TEST(Simulator, RepairTimeDecompositionFollowsFig8) {
  SimConfig cfg;
  ScpSimulator sim(cfg);
  // Prepared repair is faster at equal checkpoint age.
  EXPECT_LT(sim.repair_time(true, 1000.0), sim.repair_time(false, 1000.0));
  // Older checkpoints mean more recomputation...
  EXPECT_LT(sim.repair_time(false, 100.0), sim.repair_time(false, 10000.0));
  // ...bounded by recompute_max.
  EXPECT_NEAR(sim.repair_time(false, 1e9),
              cfg.reconfig_cold + cfg.recompute_max, 1e-9);
  // Fresh checkpoint: reconfiguration only.
  EXPECT_NEAR(sim.repair_time(true, 0.0), cfg.reconfig_warm, 1e-9);
}

TEST(Simulator, PreparedRepairShortensDowntime) {
  // Two identical runs; in one, repairs are always prepared via a standing
  // prepare_for_failure window refreshed continuously.
  SimConfig cfg;
  cfg.duration = 4.0 * 86400.0;
  cfg.seed = 11;
  ScpSimulator plain(cfg);
  plain.run();

  ScpSimulator prepared(cfg);
  while (!prepared.finished()) {
    prepared.prepare_for_failure(4000.0);
    prepared.step_to(prepared.now() + 3600.0);
  }
  ASSERT_GT(plain.stats().failures, 0);
  EXPECT_GT(prepared.stats().prepared_repairs, 0);
  EXPECT_EQ(plain.stats().prepared_repairs, 0);
  // Same fault processes (same seed), so downtime per failure must shrink.
  const double plain_ttr =
      plain.stats().downtime / static_cast<double>(plain.stats().failures);
  const double prep_ttr =
      prepared.stats().downtime /
      static_cast<double>(prepared.stats().failures);
  EXPECT_LT(prep_ttr, plain_ttr);
}

TEST(Simulator, PreventiveRestartIsCountedAndClearsNode) {
  SimConfig cfg;
  cfg.duration = 7200.0;
  ScpSimulator sim(cfg);
  sim.step_to(3600.0);
  sim.preventive_restart(0);
  EXPECT_EQ(sim.stats().preventive_restarts, 1);
  EXPECT_FALSE(sim.node(0).available(sim.now()));
  EXPECT_THROW(sim.preventive_restart(99), std::out_of_range);
}

TEST(Simulator, ShedLoadReducesServedRequests) {
  SimConfig cfg;
  cfg.duration = 4.0 * 3600.0;
  cfg.seed = 13;
  ScpSimulator plain(cfg);
  plain.run();

  ScpSimulator shedding(cfg);
  shedding.step_to(3600.0);
  shedding.shed_load(0.5, 3.0 * 3600.0);
  shedding.step_to(cfg.duration);
  EXPECT_GT(shedding.stats().shed_requests, 0);
  EXPECT_LT(shedding.stats().total_requests, plain.stats().total_requests);
}

TEST(Simulator, StepToIsIdempotentAndMonotone) {
  SimConfig cfg;
  cfg.duration = 3600.0;
  ScpSimulator sim(cfg);
  sim.step_to(600.0);
  const double t = sim.now();
  sim.step_to(100.0);  // earlier target: no-op
  EXPECT_DOUBLE_EQ(sim.now(), t);
  sim.step_to(1e9);  // clamped to duration
  EXPECT_TRUE(sim.finished());
  EXPECT_LE(sim.now(), cfg.duration + cfg.tick);
}

TEST(Simulator, FailureEntersDowntimeAndRecovers) {
  SimConfig cfg;
  cfg.duration = 7.0 * 86400.0;
  cfg.seed = 5;
  ScpSimulator sim(cfg);
  // Step until the first failure.
  while (sim.stats().failures == 0 && !sim.finished()) {
    sim.step_to(sim.now() + 300.0);
  }
  ASSERT_GT(sim.stats().failures, 0);
  EXPECT_TRUE(sim.service_down());
  const auto& f = sim.failure_infos().front();
  sim.step_to(f.time + f.repair_time + 10.0);
  EXPECT_FALSE(sim.service_down());
}

}  // namespace
}  // namespace pfm::telecom
