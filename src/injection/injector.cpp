#include "injection/injector.hpp"

#include <stdexcept>
#include <utility>

namespace pfm::inj {

std::shared_ptr<InjectionCounters> FaultInjector::new_counters() {
  auto counters = std::make_shared<InjectionCounters>();
  counters_.push_back(counters);
  return counters;
}

std::unique_ptr<core::ManagedSystem> FaultInjector::wrap_node(
    std::size_t index, std::unique_ptr<core::ManagedSystem> inner) {
  return std::make_unique<FaultyManagedSystem>(std::move(inner), index, plan_,
                                               obs_, new_counters());
}

std::vector<std::unique_ptr<core::ManagedSystem>> FaultInjector::wrap_fleet(
    std::vector<std::unique_ptr<core::ManagedSystem>> nodes) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i] = wrap_node(i, std::move(nodes[i]));
  }
  return nodes;
}

std::shared_ptr<const pred::SymptomPredictor>
FaultInjector::wrap_symptom_predictor(
    std::size_t id, std::shared_ptr<const pred::SymptomPredictor> inner) {
  return std::make_shared<FaultySymptomPredictor>(std::move(inner), id, plan_,
                                                  obs_, new_counters());
}

std::shared_ptr<const pred::EventPredictor>
FaultInjector::wrap_event_predictor(
    std::size_t id, std::shared_ptr<const pred::EventPredictor> inner) {
  return std::make_shared<FaultyEventPredictor>(std::move(inner), id, plan_,
                                                obs_, new_counters());
}

std::function<std::unique_ptr<act::Action>()>
FaultInjector::wrap_action_factory(
    std::size_t id, std::function<std::unique_ptr<act::Action>()> factory) {
  if (!factory) {
    throw std::invalid_argument("FaultInjector: null action factory");
  }
  // Instances are numbered in creation order — FleetController invokes
  // the factory once per node, in node order, on the caller thread.
  return [this, id, factory = std::move(factory)]() {
    return std::unique_ptr<act::Action>(std::make_unique<FaultyAction>(
        factory(), id, action_instances_++, plan_, obs_, new_counters()));
  };
}

InjectionStats FaultInjector::stats() const {
  InjectionStats out;
  for (const auto& counters : counters_) out += counters->snapshot();
  return out;
}

}  // namespace pfm::inj
