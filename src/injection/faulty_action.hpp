#pragma once

#include <memory>

#include "actions/action.hpp"
#include "injection/fault_plan.hpp"
#include "obs/observability.hpp"

namespace pfm::inj {

/// Decorator applying an ActionFaultSpec to a countermeasure:
///
///  - *outright failure*: execute throws ActionFaultError before touching
///    the system (the actuator was unreachable);
///  - *partial completion*: the inner action executes, then the decorator
///    throws anyway (the work happened but the acknowledgement was lost)
///    — exercising the retry path's tolerance of re-executed actions.
///
/// Each attempt re-rolls the decision stream, so a retried action can
/// succeed; the stream is keyed by (action id, instance) so every node's
/// copy of an action fails independently but deterministically.
class FaultyAction final : public act::Action {
 public:
  /// `hub`, when given, counts injected failures and records
  /// kInjectedFault spans. `instance` doubles as the trace lane: the
  /// fleet controller creates one instance per node in node order, so
  /// instance i maps to node_track(i). `counters` is the block the
  /// wrapper tallies into (a fresh one when null).
  FaultyAction(std::unique_ptr<act::Action> inner, std::size_t action_id,
               std::size_t instance, const FaultPlan& plan,
               obs::Observability* hub = nullptr,
               std::shared_ptr<InjectionCounters> counters = nullptr);

  std::string name() const override { return inner_->name() + "+faults"; }
  act::ActionKind kind() const override { return inner_->kind(); }
  const act::ActionProperties& properties() const override {
    return inner_->properties();
  }
  bool applicable(const core::ManagedSystem& system) const override {
    return inner_->applicable(system);
  }
  void execute(core::ManagedSystem& system, double confidence) override;

  InjectionStats injection_stats() const noexcept {
    return counters_->snapshot();
  }

 private:
  std::unique_ptr<act::Action> inner_;
  ActionFaultSpec spec_;
  DecisionStream stream_;
  std::shared_ptr<InjectionCounters> counters_;
  obs::TraceRecorder* tracer_ = nullptr;
  std::uint32_t track_ = 0;
  obs::Counter* failure_counter_ = nullptr;
};

}  // namespace pfm::inj
