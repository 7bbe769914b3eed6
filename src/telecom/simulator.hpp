#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "monitoring/dataset.hpp"
#include "numerics/rng.hpp"
#include "telecom/config.hpp"
#include "telecom/node.hpp"
#include "telecom/workload.hpp"

namespace pfm::telecom {

/// Root cause recorded for each service failure.
enum class FailureCause : std::uint8_t {
  kMemoryLeak = 0,  ///< software aging on some node
  kCascade = 1,     ///< error cascade reached stage 3
  kOverload = 2,    ///< workload exceeded capacity
  kOther = 3
};

/// Per-failure record kept by the simulator (beyond the dataset's failure
/// log): cause, whether repair was prepared, and the repair time.
struct FailureInfo {
  double time = 0.0;
  FailureCause cause = FailureCause::kOther;
  bool prepared = false;
  double repair_time = 0.0;
};

/// Aggregate run statistics.
struct SimStats {
  std::int64_t total_requests = 0;
  std::int64_t violations = 0;  ///< requests slower than the Eq. 2 limit
  std::int64_t failures = 0;
  double downtime = 0.0;  ///< seconds of service downtime
  std::int64_t shed_requests = 0;
  std::int64_t preventive_restarts = 0;
  std::int64_t prepared_repairs = 0;
  std::int64_t unprepared_repairs = 0;
  double simulated = 0.0;  ///< seconds simulated so far

  /// Steady-state availability estimate: uptime / simulated time.
  double availability() const noexcept {
    return simulated > 0.0 ? 1.0 - downtime / simulated : 1.0;
  }
};

/// Hybrid discrete-event / fluid simulator of the commercial SCP platform
/// of the paper's case study (Sect. 3.3).
///
/// Produces (a) a MonitoringDataset — periodic SAR-style symptom samples,
/// the error-event log and the failure log per the Eq. 2 failure
/// definition — and (b) live hooks for prediction-driven countermeasures
/// (preventive restart, load shedding, checkpointing, repair preparation),
/// so the same model serves offline predictor training and the closed-loop
/// MEA experiments.
class ScpSimulator {
 public:
  explicit ScpSimulator(SimConfig config);

  /// Runs the whole configured duration (offline trace generation).
  void run() { step_to(config_.duration); }

  /// Advances the simulation up to time `t` (clamped to the configured
  /// duration). Idempotent for t <= now().
  void step_to(double t);

  double now() const noexcept { return now_; }
  bool finished() const noexcept { return now_ >= config_.duration; }

  const SimConfig& config() const noexcept { return config_; }
  const mon::MonitoringDataset& trace() const noexcept { return trace_; }
  const SimStats& stats() const noexcept { return stats_; }
  const std::vector<FailureInfo>& failure_infos() const noexcept {
    return failure_infos_;
  }

  /// Moves the accumulated trace out (ends the simulator's usefulness for
  /// further stepping with history; use after run()).
  mon::MonitoringDataset take_trace() { return std::move(trace_); }

  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  const ServiceNode& node(std::size_t i) const { return nodes_.at(i); }

  /// True while the service as a whole is down (failure being repaired).
  bool service_down() const noexcept { return now_ < service_down_until_; }

  // --- countermeasure hooks (the Act phase operates through these) ---------

  /// Preventive restart / rejuvenation of one node (downtime avoidance:
  /// state clean-up). Throws std::out_of_range for a bad index.
  void preventive_restart(std::size_t node);

  /// Lowers offered load by `fraction` for `duration` seconds (downtime
  /// avoidance: lowering the load). Rejected requests are accounted in
  /// stats().shed_requests.
  void shed_load(double fraction, double duration);

  /// Saves a checkpoint now (bounds the recomputation part of a later
  /// repair, Fig. 8).
  void checkpoint() { last_checkpoint_ = now_; }

  /// Prepares repair for an anticipated failure (downtime minimization:
  /// warm spare + fresh checkpoint). Effective for failures within
  /// `window` seconds.
  void prepare_for_failure(double window);

  /// The Fig. 8 repair-time decomposition: reconfiguration plus bounded
  /// recomputation since the last checkpoint.
  double repair_time(bool prepared, double time_since_checkpoint) const;

  /// Current mean offered arrival rate (monitoring convenience).
  double current_arrival_rate() const { return workload_.mean_rate(now_); }

 private:
  void tick(double t);
  void end_window(double t);
  void fail(double t);
  double queue_multiplier(double utilization) const noexcept;
  /// P(response time > limit) for a lognormal response with the given mean.
  double violation_probability(double mean_ms) const noexcept;
  /// The quiet band [floor_ms_, quiet_ms_] of mean responses puts the
  /// limit between kQuietZ and kFloorZ lognormal sigmas above mu. The
  /// violation probability rises with the mean, through (0, ~3.4e-6] over
  /// the band, so a class inside it draws its slow calls with
  /// poisson_below(share * kQuietP): the draw's uniform decides most 0s
  /// before p is computed, and p > 0 means the unbanded path drew that
  /// uniform too. The constructor checks p at both edges (<= kQuietP / 2
  /// and > 0) or leaves the band empty.
  static constexpr double kFloorZ = 30.0;
  static constexpr double kQuietZ = 4.5;
  static constexpr double kQuietP = 1e-5;
  void sample_symptoms(double t);
  static mon::SymptomSchema make_schema();

  SimConfig config_;
  num::Rng rng_;
  WorkloadGenerator workload_;
  std::vector<ServiceNode> nodes_;
  mon::MonitoringDataset trace_;
  SimStats stats_;
  std::vector<FailureInfo> failure_infos_;

  double now_ = 0.0;
  double next_sample_ = 0.0;
  double window_end_;
  double service_down_until_ = 0.0;
  double last_checkpoint_ = 0.0;
  double next_periodic_checkpoint_;
  double prepared_until_ = -1.0;

  // Quiet band of mean responses; empty (floor above ceiling) unless the
  // constructor verifies its p bounds.
  double floor_ms_ = 1.0;
  double quiet_ms_ = 0.0;

  // Window accumulators (Eq. 2).
  std::int64_t window_requests_ = 0;
  std::int64_t window_violations_ = 0;

  // Last-tick node observations for symptom sampling.
  std::vector<double> last_util_;
  std::vector<double> last_degradation_;
  std::size_t events_seen_ = 0;  // for error-rate sampling

  // Distractor variables (random walks / periodic noise).
  double disk_io_ = 120.0;
  double ambient_phase_ = 0.0;
  double thread_walk_ = 0.0;

  // Per-tick scratch, hoisted out of tick() so the hot loop stays
  // allocation-free after warm-up. Values never survive a tick.
  std::vector<mon::ErrorEvent> tick_events_;
  std::vector<std::size_t> tick_alive_;
};

/// Human-readable failure cause.
std::string to_string(FailureCause cause);

}  // namespace pfm::telecom
