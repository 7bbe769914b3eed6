#pragma once

#include <cstdint>
#include <string>

#include "core/managed_system.hpp"

namespace pfm::act {

/// The two principal goals of prediction-triggered actions (Fig. 7).
enum class ActionGoal : std::uint8_t {
  kDowntimeAvoidance = 0,
  kDowntimeMinimization = 1
};

/// The five action classes of the Fig. 7 classification.
enum class ActionKind : std::uint8_t {
  kStateCleanup = 0,       ///< garbage collection, clearing queues, ...
  kPreventiveFailover = 1, ///< switch/migrate away from the failure-prone unit
  kLoadLowering = 2,       ///< reject/shed load to prevent overload
  kPreparedRepair = 3,     ///< warm spare + checkpoint before the failure
  kPreventiveRestart = 4   ///< rejuvenation: forced restart
};
inline constexpr std::size_t kNumActionKinds = 5;

/// Fig. 7 mapping from action class to principal goal.
ActionGoal goal_of(ActionKind kind) noexcept;

std::string to_string(ActionKind kind);
std::string to_string(ActionGoal goal);

/// Objective-function inputs of an action (Sect. 2: effectiveness is
/// evaluated from "cost of actions, confidence in the prediction,
/// probability of success and complexity of actions").
struct ActionProperties {
  double cost = 1.0;                 ///< abstract execution cost, >= 0
  double success_probability = 0.5; ///< P(action removes the threat), [0,1]
  double complexity = 1.0;          ///< >= 1; divides the net benefit

  void validate() const;
};

/// A prediction-triggered countermeasure executable against any managed
/// system. Concrete actions operate through the ManagedSystem
/// countermeasure hooks.
class Action {
 public:
  virtual ~Action() = default;

  virtual std::string name() const = 0;
  virtual ActionKind kind() const = 0;
  ActionGoal goal() const noexcept { return goal_of(kind()); }

  virtual const ActionProperties& properties() const = 0;

  /// True when the action is worth attempting in the system's current
  /// state (e.g., restarting is pointless when no unit is degraded).
  virtual bool applicable(const core::ManagedSystem& system) const = 0;

  /// Executes against the system. `confidence` is the failure warning's
  /// score in (0,1); actions may scale their aggressiveness with it.
  ///
  /// Fault model: execute may throw (an actuator can fail like anything
  /// else). The Act engine retries it (core::ActEngine::kMaxAttempts) and
  /// backs the action kind off exponentially when every attempt fails, so
  /// implementations should tolerate being re-executed after a partial
  /// completion (all hooks on ManagedSystem are safe to repeat).
  virtual void execute(core::ManagedSystem& system, double confidence) = 0;
};

/// State clean-up (downtime avoidance): restart of the unit with the
/// highest memory pressure, clearing leaked state.
class StateCleanupAction final : public Action {
 public:
  explicit StateCleanupAction(double pressure_trigger = 0.70);

  std::string name() const override { return "state-cleanup"; }
  ActionKind kind() const override { return ActionKind::kStateCleanup; }
  const ActionProperties& properties() const override { return props_; }
  bool applicable(const core::ManagedSystem& system) const override;
  void execute(core::ManagedSystem& system, double confidence) override;

 private:
  double pressure_trigger_;
  ActionProperties props_{0.8, 0.9, 1.0};
};

/// Preventive failover (downtime avoidance): take the unit with an active
/// error cascade out of service so the replicas carry its traffic.
class PreventiveFailoverAction final : public Action {
 public:
  std::string name() const override { return "preventive-failover"; }
  ActionKind kind() const override { return ActionKind::kPreventiveFailover; }
  const ActionProperties& properties() const override { return props_; }
  bool applicable(const core::ManagedSystem& system) const override;
  void execute(core::ManagedSystem& system, double confidence) override;

 private:
  ActionProperties props_{1.2, 0.85, 1.5};
};

/// Load lowering (downtime avoidance): shed a confidence-scaled fraction
/// of the offered load for a fixed relief period.
class LoadLoweringAction final : public Action {
 public:
  explicit LoadLoweringAction(double utilization_trigger = 0.75,
                              double relief_duration = 600.0);

  std::string name() const override { return "load-lowering"; }
  ActionKind kind() const override { return ActionKind::kLoadLowering; }
  const ActionProperties& properties() const override { return props_; }
  bool applicable(const core::ManagedSystem& system) const override;
  void execute(core::ManagedSystem& system, double confidence) override;

 private:
  double utilization_trigger_;
  double relief_duration_;
  ActionProperties props_{2.0, 0.8, 1.2};
};

/// Prepared repair (downtime minimization): pre-boot the spare and
/// checkpoint now, so an anticipated failure repairs fast (Fig. 8(b)).
class PreparedRepairAction final : public Action {
 public:
  explicit PreparedRepairAction(double preparation_window = 900.0);

  std::string name() const override { return "prepared-repair"; }
  ActionKind kind() const override { return ActionKind::kPreparedRepair; }
  const ActionProperties& properties() const override { return props_; }
  bool applicable(const core::ManagedSystem& system) const override;
  void execute(core::ManagedSystem& system, double confidence) override;

 private:
  double preparation_window_;
  ActionProperties props_{0.5, 0.95, 1.0};
};

/// Preventive restart / rejuvenation (downtime minimization): forced
/// restart of the most degraded unit, trading a short planned outage
/// against a longer unplanned one.
class PreventiveRestartAction final : public Action {
 public:
  std::string name() const override { return "preventive-restart"; }
  ActionKind kind() const override { return ActionKind::kPreventiveRestart; }
  const ActionProperties& properties() const override { return props_; }
  bool applicable(const core::ManagedSystem& system) const override;
  void execute(core::ManagedSystem& system, double confidence) override;

 private:
  ActionProperties props_{1.5, 0.9, 1.3};
};

}  // namespace pfm::act
