#pragma once

#include <memory>
#include <vector>

#include "core/managed_system.hpp"
#include "injection/fault_plan.hpp"
#include "obs/observability.hpp"

namespace pfm::inj {

/// Decorator applying a NodeFaultSpec to a core::ManagedSystem:
///
///  - *crash*: once the node's time reaches `crash_at`, step_to and every
///    countermeasure hook throw NodeCrashError. Read accessors (trace,
///    stats, health) keep answering with the last known state, the way a
///    monitoring store outlives the process it watched.
///  - *hang*: starting at `hang_at`, the next `hang_steps` step_to calls
///    return without advancing time (a liveness fault, not a crash).
///  - *dropped / corrupted samples*: the decorator maintains a shadow
///    trace into which freshly monitored symptom samples are copied,
///    dropped, or rewritten to quiet NaN per the decision stream; error
///    events and failures pass through unmodified. After each copy the
///    decorator releases what it copied from the inner trace, so only the
///    shadow keeps it; a reader's release on trace() bounds the shadow.
///
/// With a zero spec the decorator forwards everything and exposes the
/// inner trace object itself — the wrapped node is bit-identical to the
/// bare one. Faults draw from a DecisionStream keyed by the node index,
/// so a fixed (seed, plan) yields the same fault sequence regardless of
/// which pool thread steps the node.
class FaultyManagedSystem final : public core::ManagedSystem {
 public:
  /// `hub`, when given, receives cause-side fault counters and — for the
  /// sim-timed crash/hang faults — kInjectedFault spans on the node's
  /// trace lane. `counters` is the block the wrapper tallies into (a
  /// fresh one when null).
  FaultyManagedSystem(std::unique_ptr<core::ManagedSystem> inner,
                      std::size_t node_index, const FaultPlan& plan,
                      obs::Observability* hub = nullptr,
                      std::shared_ptr<InjectionCounters> counters = nullptr);

  std::string name() const override { return inner_->name(); }

  double now() const override { return inner_->now(); }
  double horizon() const override { return inner_->horizon(); }
  bool finished() const override { return inner_->finished(); }
  void step_to(double t) override;

  const mon::MonitoringDataset& trace() const override {
    return filtering_ ? shadow_ : inner_->trace();
  }

  std::size_t num_units() const override { return inner_->num_units(); }
  core::UnitHealth unit_health(std::size_t unit) const override {
    return inner_->unit_health(unit);
  }
  double offered_load() const override { return inner_->offered_load(); }
  double unit_capacity() const override { return inner_->unit_capacity(); }
  bool service_down() const override { return inner_->service_down(); }
  // Read-only like trace(): keeps answering from the inner system even
  // after a crash (the node is quarantined at its next step anyway).
  core::SchedulingHint scheduling_hint() const override {
    return inner_->scheduling_hint();
  }

  void restart_unit(std::size_t unit) override;
  void shed_load(double fraction, double duration) override;
  void checkpoint() override;
  void prepare_for_failure(double window) override;

  core::SystemStats system_stats() const override {
    return inner_->system_stats();
  }

  bool crashed() const noexcept { return crashed_; }
  InjectionStats injection_stats() const noexcept {
    return counters_->snapshot();
  }

 private:
  void throw_if_crashed() const;
  void sync_shadow();

  std::unique_ptr<core::ManagedSystem> inner_;
  NodeFaultSpec spec_;
  DecisionStream stream_;
  std::shared_ptr<InjectionCounters> counters_;

  obs::TraceRecorder* tracer_ = nullptr;
  std::uint32_t track_ = 0;
  obs::FlightRecorder* flight_ = nullptr;
  std::size_t node_index_ = 0;
  obs::Counter* crash_counter_ = nullptr;
  obs::Counter* hang_counter_ = nullptr;
  obs::Counter* drop_counter_ = nullptr;
  obs::Counter* corrupt_counter_ = nullptr;

  bool crashed_ = false;
  std::size_t hang_steps_served_ = 0;

  // Shadow trace (only maintained when the spec drops/corrupts samples).
  // The cursors count the inner trace's appends copied so far.
  bool filtering_ = false;
  mon::MonitoringDataset shadow_;
  std::vector<double> corrupt_row_;  // all-NaN values of a corrupt sample
  std::size_t samples_seen_ = 0;
  std::size_t events_seen_ = 0;
  std::size_t failures_seen_ = 0;
};

}  // namespace pfm::inj
