#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "injection/fault_plan.hpp"
#include "injection/faulty_action.hpp"
#include "injection/faulty_predictor.hpp"
#include "injection/faulty_system.hpp"
#include "obs/observability.hpp"

namespace pfm::inj {

/// Applies one FaultPlan to the components of a fleet by wrapping them in
/// the decorator types of this subsystem. The injector hands the wrappers
/// to the caller (typically a runtime::FleetController) and shares each
/// wrapper's counter block, so stats() aggregates what was actually
/// injected — including by wrappers that are gone, such as the node and
/// action wrappers of an incarnation a membership restart replaced. Call
/// stats() only while no run is in flight.
///
/// Everything is deterministic: wrapper decision streams are pure
/// functions of (plan seed, component identity), and components consult
/// them in an order fixed by the round structure — so a fixed (seed,
/// plan) produces the same faults at any thread count, and an empty plan
/// produces none at all (wrappers forward bit-identically).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const noexcept { return plan_; }

  /// Attaches an observability hub: wrappers created *after* this call
  /// count every injected fault into pfm_injected_faults_total{kind=...}
  /// and record kInjectedFault spans for the sim-timed families (node
  /// crashes/hangs, action failures). Call before wrapping; the cause
  /// side of a fault scenario then lands in the same registry as the
  /// runtime's effect-side counters. Null detaches.
  void set_observability(obs::Observability* hub) noexcept { obs_ = hub; }

  /// Wraps node `index` of the fleet.
  std::unique_ptr<core::ManagedSystem> wrap_node(
      std::size_t index, std::unique_ptr<core::ManagedSystem> inner);

  /// Wraps every node of a fleet, preserving order (node i gets spec i).
  std::vector<std::unique_ptr<core::ManagedSystem>> wrap_fleet(
      std::vector<std::unique_ptr<core::ManagedSystem>> nodes);

  /// Wraps an already-trained symptom predictor under plan id `id`.
  std::shared_ptr<const pred::SymptomPredictor> wrap_symptom_predictor(
      std::size_t id, std::shared_ptr<const pred::SymptomPredictor> inner);

  /// Wraps an already-trained event predictor under plan id `id`.
  std::shared_ptr<const pred::EventPredictor> wrap_event_predictor(
      std::size_t id, std::shared_ptr<const pred::EventPredictor> inner);

  /// Wraps an action factory under plan id `id`: every action the factory
  /// produces (one per node, in FleetController::add_action) becomes a
  /// FaultyAction with its own decision stream, numbered in creation
  /// order.
  std::function<std::unique_ptr<act::Action>()> wrap_action_factory(
      std::size_t id, std::function<std::unique_ptr<act::Action>()> factory);

  /// Sum of the injected-fault counters over every wrapper created so
  /// far, destroyed ones included.
  InjectionStats stats() const;

 private:
  /// A fresh counter block, registered for stats().
  std::shared_ptr<InjectionCounters> new_counters();

  FaultPlan plan_;
  obs::Observability* obs_ = nullptr;
  // One block per wrapper, shared with it. Wrapped action factories call
  // back into the injector, so it must outlive the factories it made.
  std::vector<std::shared_ptr<const InjectionCounters>> counters_;
  std::size_t action_instances_ = 0;
};

}  // namespace pfm::inj
