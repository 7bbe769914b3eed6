#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace pfm::telecom {

/// Service request classes handled by the simulated Service Control Point
/// (Sect. 3.3: Mobile Originated Calls, Short Message Service, GPRS).
enum class RequestClass : std::uint8_t { kMoc = 0, kSms = 1, kGprs = 2 };
inline constexpr std::size_t kNumRequestClasses = 3;

/// Configuration of the simulated SCP platform.
///
/// The simulator is a hybrid fluid/discrete-event model: request traffic is
/// aggregated per one-second tick (Poisson counts, analytic response-time
/// tail), while faults, error events and failures are discrete. This keeps
/// multi-week traces tractable while preserving the causal chain
/// fault -> error -> symptom -> failure that the predictors consume.
struct SimConfig {
  std::uint64_t seed = 1;

  /// Simulated duration in seconds (default: 14 days).
  double duration = 14.0 * 86400.0;

  /// Simulation tick in seconds.
  double tick = 1.0;

  /// Number of replicated service containers.
  std::size_t num_nodes = 4;

  // --- workload -----------------------------------------------------------
  /// Mean total arrival rate over all classes, requests/second.
  double arrival_rate = 60.0;
  /// Relative diurnal modulation amplitude in [0,1).
  double diurnal_amplitude = 0.4;
  /// Mean time between load-spike onsets, seconds.
  double spike_mtbf = 86400.0 * 1.25;
  /// Spike magnitude (multiplier on arrival rate), drawn in [2, 4].
  double spike_min_factor = 2.0;
  double spike_max_factor = 4.0;
  /// Spike duration bounds, seconds.
  double spike_min_duration = 600.0;
  double spike_max_duration = 1800.0;
  /// Seconds over which a spike ramps up to full magnitude (gives
  /// symptom-based predictors a precursor signal).
  double spike_ramp = 900.0;

  // --- node resource model -------------------------------------------------
  /// Physical memory per node, MB.
  double node_memory_mb = 4096.0;
  /// Baseline (non-leaked) memory usage fraction.
  double base_memory_fraction = 0.45;
  /// Requests/second one node can serve at nominal service time.
  double node_capacity = 30.0;
  /// Nominal mean response time per class, milliseconds.
  double base_response_ms[kNumRequestClasses] = {35.0, 15.0, 25.0};
  /// Lognormal sigma of the response-time distribution.
  double response_sigma = 0.25;

  // --- fault injection ------------------------------------------------------
  /// Mean time between memory-leak episode onsets per node, seconds.
  double leak_mtbf = 86400.0 * 2.0;
  /// Leak rate bounds, MB/second (slow software aging).
  double leak_min_rate = 0.08;
  double leak_max_rate = 0.35;
  /// Mean time between error-cascade onsets per node, seconds.
  double cascade_mtbf = 86400.0 * 1.5;
  /// Mean duration of one cascade stage, seconds (3 stages to failure).
  /// Chosen so that two consecutive stage bursts fit into one 600 s data
  /// window — the inter-stage timing is then observable, which is what the
  /// HSMM's duration modeling exploits.
  double cascade_stage_mean = 240.0;
  /// Rate of benign noise error events per node, events/second.
  double noise_event_rate = 1.0 / 900.0;
  /// Rate of benign lookalike events (cascade ids out of context).
  double lookalike_event_rate = 1.0 / 2400.0;

  // --- failure definition (Eq. 2) -------------------------------------------
  /// Response-time limit, milliseconds.
  double response_limit_ms = 250.0;
  /// Interval-availability window, seconds.
  double availability_window = 300.0;
  /// Maximum tolerated fraction of slow calls per window (1e-4 = 99.99%).
  double max_violation_fraction = 1e-4;

  // --- repair model (Fig. 8) -------------------------------------------------
  /// Reconfiguration time after an unanticipated failure (cold spare boot
  /// plus fault isolation), seconds.
  double reconfig_cold = 360.0;
  /// Reconfiguration time when repair was prepared by a failure warning
  /// (spare pre-booted), seconds.
  double reconfig_warm = 90.0;
  /// Recomputation/state-resync cost: seconds of repair per second since
  /// the last checkpoint.
  double recompute_factor = 0.02;
  /// Upper bound on recomputation time, seconds.
  double recompute_max = 600.0;
  /// Interval of periodic (non-prediction-driven) checkpoints, seconds.
  double checkpoint_interval = 3600.0;
  /// Duration of a preventive node restart (rejuvenation), seconds.
  double restart_duration = 60.0;

  // --- monitoring -------------------------------------------------------------
  /// SAR sampling interval, seconds.
  double sample_interval = 30.0;

  /// Throws std::invalid_argument when any parameter is out of range.
  void validate() const {
    auto require = [](bool ok, const char* m) {
      if (!ok) throw std::invalid_argument(m);
    };
    // Every condition is stated positively, so a NaN fails it.
    auto positive = [](double x) { return x > 0.0 && std::isfinite(x); };
    auto bounds = [&](double lo, double hi) {
      return positive(lo) && positive(hi) && lo <= hi;
    };
    require(duration > 0.0, "SimConfig: duration must be positive");
    require(tick > 0.0 && tick <= availability_window,
            "SimConfig: tick must be in (0, availability_window]");
    require(num_nodes >= 1, "SimConfig: need at least one node");
    require(positive(arrival_rate),
            "SimConfig: arrival_rate must be finite and positive");
    require(diurnal_amplitude >= 0.0 && diurnal_amplitude < 1.0,
            "SimConfig: diurnal_amplitude in [0,1)");
    require(node_capacity > 0.0, "SimConfig: node_capacity must be positive");
    require(node_memory_mb > 0.0, "SimConfig: node_memory_mb positive");
    require(base_memory_fraction > 0.0 && base_memory_fraction < 1.0,
            "SimConfig: base_memory_fraction in (0,1)");
    require(max_violation_fraction > 0.0 && max_violation_fraction < 1.0,
            "SimConfig: max_violation_fraction in (0,1)");
    require(sample_interval > 0.0, "SimConfig: sample_interval positive");
    require(response_limit_ms > 0.0, "SimConfig: response limit positive");
    require(availability_window > 0.0, "SimConfig: window positive");
    // Everything below parameterises a random draw.
    require(positive(spike_mtbf), "SimConfig: spike_mtbf finite and positive");
    require(bounds(spike_min_factor, spike_max_factor),
            "SimConfig: spike factors finite, positive, min <= max");
    require(bounds(spike_min_duration, spike_max_duration),
            "SimConfig: spike durations finite, positive, min <= max");
    require(positive(leak_mtbf), "SimConfig: leak_mtbf finite and positive");
    require(bounds(leak_min_rate, leak_max_rate),
            "SimConfig: leak rates finite, positive, min <= max");
    require(positive(cascade_mtbf),
            "SimConfig: cascade_mtbf finite and positive");
    require(positive(cascade_stage_mean),
            "SimConfig: cascade_stage_mean finite and positive");
    require(positive(noise_event_rate),
            "SimConfig: noise_event_rate finite and positive");
    require(positive(lookalike_event_rate),
            "SimConfig: lookalike_event_rate finite and positive");
    // The slow-call model: a lognormal response per class.
    require(positive(response_sigma),
            "SimConfig: response_sigma finite and positive");
    for (const double base : base_response_ms) {
      require(positive(base),
              "SimConfig: base_response_ms finite and positive");
    }
  }
};

/// Well-known error event ids emitted by the simulator. Predictors treat
/// these as opaque categorical ids; the names exist for documentation and
/// debugging.
namespace event_id {
// Memory-pressure symptoms of a leak.
inline constexpr std::int32_t kMemLow = 101;
inline constexpr std::int32_t kAllocSlow = 102;
inline constexpr std::int32_t kGcThrash = 103;
// Error-cascade stages.
inline constexpr std::int32_t kCascadeStage1 = 201;
inline constexpr std::int32_t kCascadeStage2 = 202;
inline constexpr std::int32_t kCascadeStage2b = 203;
inline constexpr std::int32_t kCascadeStage3 = 204;
// Overload.
inline constexpr std::int32_t kQueueHigh = 301;
inline constexpr std::int32_t kTimeout = 302;
// Benign noise ids occupy [401, 420].
inline constexpr std::int32_t kNoiseBase = 401;
inline constexpr std::int32_t kNoiseCount = 20;
}  // namespace event_id

}  // namespace pfm::telecom
