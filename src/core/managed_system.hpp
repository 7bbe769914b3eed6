#pragma once

#include <cstdint>
#include <string>

#include "monitoring/dataset.hpp"
#include "prediction/predictor.hpp"

namespace pfm::core {

/// Health snapshot of one replicated unit (node, container, VM, ...) of a
/// managed system, as the Evaluate/Act components see it. Concrete backends
/// map their internal state onto these fields; everything above the
/// ManagedSystem boundary reasons only in these terms.
struct UnitHealth {
  /// Unit currently serves traffic (not down for restart/repair).
  bool available = true;
  /// Used-memory fraction in [0,1] (software-aging indicator).
  double memory_pressure = 0.0;
  /// Escalation stage of an active error cascade; 0 = none.
  int cascade_stage = 0;
  /// A resource-exhaustion fault (e.g. memory leak) is active.
  bool leak_active = false;
};

/// Backend-neutral downtime/dependability statistics of one managed
/// system. Mirrors what dependable-service backends track (cf. the SCP
/// simulator's per-run accounting) without naming any backend type.
struct SystemStats {
  std::int64_t total_requests = 0;
  std::int64_t violations = 0;  ///< requests slower than the service limit
  std::int64_t failures = 0;
  double downtime = 0.0;  ///< seconds of service downtime
  std::int64_t shed_requests = 0;
  std::int64_t preventive_restarts = 0;
  std::int64_t prepared_repairs = 0;
  std::int64_t unprepared_repairs = 0;
  double simulated = 0.0;  ///< seconds of operation covered so far

  /// Steady-state availability estimate: uptime / covered time.
  double availability() const noexcept {
    return simulated > 0.0 ? 1.0 - downtime / simulated : 1.0;
  }

  /// Fleet aggregation: counters add up, downtime/coverage accumulate.
  SystemStats& operator+=(const SystemStats& other) noexcept {
    total_requests += other.total_requests;
    violations += other.violations;
    failures += other.failures;
    downtime += other.downtime;
    shed_requests += other.shed_requests;
    preventive_restarts += other.preventive_restarts;
    prepared_repairs += other.prepared_repairs;
    unprepared_repairs += other.unprepared_repairs;
    simulated += other.simulated;
    return *this;
  }
};

/// Hint a managed system gives the adaptive monitoring scheduler (the
/// Fig. 11 blueprint's variable-rate monitoring): how urgently the system
/// wants its next Monitor/Evaluate visit. The scheduler keeps urgent
/// nodes on a dense per-tick cadence and backs quiet nodes off
/// exponentially; the hint only stretches or shrinks sampling gaps, so a
/// wrong hint costs detection latency, never correctness.
struct SchedulingHint {
  /// In [0, 1]; 1 = keep the node dense (the safe default for backends
  /// that do not model urgency), 0 = fully quiet.
  double urgency = 1.0;
};

/// The system under proactive fault management (the paper's "system" box
/// of Fig. 1): everything the Monitor-Evaluate-Act loop needs from the
/// managed platform, and nothing else.
///
/// The interface spans the four MEA contact points:
///  - *time stepping*: the controller advances the system in evaluation
///    intervals (now/step_to/finished/horizon);
///  - *monitoring*: the accumulated trace plus convenience accessors that
///    cut the predictors' symptom context and error sequence out of it;
///  - *unit health*: per-unit snapshots and offered-load figures for the
///    Act component's applicability checks and for diagnosis;
///  - *countermeasure hooks*: the Fig. 7 action families execute through
///    restart/shed/checkpoint/prepare.
///
/// Implementations live below core (e.g. runtime::ScpManagedSystem adapts
/// telecom::ScpSimulator); core itself depends on no concrete backend.
class ManagedSystem {
 public:
  virtual ~ManagedSystem() = default;

  virtual std::string name() const = 0;

  // --- time stepping --------------------------------------------------------

  /// Current time of the managed system, seconds.
  virtual double now() const = 0;
  /// End of the configured operation period (run() horizon).
  virtual double horizon() const = 0;
  virtual bool finished() const = 0;
  /// Advances the system up to time `t` (clamped to horizon()); must be
  /// idempotent for t <= now().
  virtual void step_to(double t) = 0;

  // --- monitoring (the Monitor phase's output) ------------------------------

  /// The monitoring trace accumulated so far: symptom samples, error
  /// events and failure log. A reader that only needs a trailing window
  /// releases the rest through the returned object
  /// (MonitoringDataset::release); the fleet runtime does, so a fleet
  /// node's trace holds just the fleet's windows. Decorators forward
  /// trace() and thereby the release, with no further hook to implement.
  virtual const mon::MonitoringDataset& trace() const = 0;

  /// Trailing window of at most `max_samples` symptom samples plus the
  /// failure history — the input of symptom-based predictors.
  pred::SymptomContext symptom_context(std::size_t max_samples) const {
    const auto samples = trace().samples();
    const std::size_t n = samples.size();
    const std::size_t first = n >= max_samples ? n - max_samples : 0;
    pred::SymptomContext ctx;
    ctx.history = samples.subspan(first, n - first);
    ctx.past_failures = trace().failures();
    return ctx;
  }

  /// Error events of the trailing data window — the input of event-based
  /// predictors.
  mon::ErrorSequence error_sequence(double data_window) const {
    mon::ErrorSequence seq;
    seq.end_time = now();
    seq.events = trace().events_in(seq.end_time - data_window, seq.end_time);
    return seq;
  }

  /// Adaptive-monitoring urgency of the next visit. Must not throw and
  /// must be cheap (called once per evaluation). The default keeps the
  /// system dense — correct for any backend that does not model urgency.
  virtual SchedulingHint scheduling_hint() const { return SchedulingHint{}; }

  // --- unit health / load ---------------------------------------------------

  virtual std::size_t num_units() const = 0;
  /// Snapshot of one unit at now(). Throws std::out_of_range for a bad
  /// index.
  virtual UnitHealth unit_health(std::size_t unit) const = 0;
  /// Mean offered arrival rate at now(), requests/second.
  virtual double offered_load() const = 0;
  /// Requests/second one unit can serve at nominal service time.
  virtual double unit_capacity() const = 0;
  /// True while the service as a whole is down (failure being repaired).
  virtual bool service_down() const = 0;

  // --- countermeasure hooks (the Act phase operates through these) ----------

  /// Preventive restart / rejuvenation of one unit (downtime avoidance:
  /// state clean-up). Throws std::out_of_range for a bad index.
  virtual void restart_unit(std::size_t unit) = 0;
  /// Lowers offered load by `fraction` for `duration` seconds.
  virtual void shed_load(double fraction, double duration) = 0;
  /// Saves a checkpoint now (bounds later recomputation).
  virtual void checkpoint() = 0;
  /// Prepares repair for an anticipated failure within `window` seconds
  /// (downtime minimization: warm spare + fresh checkpoint).
  virtual void prepare_for_failure(double window) = 0;
  /// Graceful-removal hook: the fleet runtime calls this once before a
  /// planned drain (elastic membership, preventive failover) so the
  /// system can persist state. The default takes a checkpoint.
  virtual void prepare_for_drain() { checkpoint(); }

  // --- downtime stats -------------------------------------------------------

  virtual SystemStats system_stats() const = 0;
};

}  // namespace pfm::core
