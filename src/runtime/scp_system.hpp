#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/managed_system.hpp"
#include "telecom/config.hpp"
#include "telecom/simulator.hpp"

namespace pfm::runtime {

/// Adapts telecom::ScpSimulator to the core::ManagedSystem interface, so
/// the MEA core drives the simulated SCP without seeing any telecom type.
/// Either borrows an externally owned simulator (the caller keeps direct
/// access for assertions and trace extraction) or owns one constructed
/// from a SimConfig (the fleet case).
class ScpManagedSystem final : public core::ManagedSystem {
 public:
  /// Borrows `sim`; the simulator must outlive the adapter.
  explicit ScpManagedSystem(telecom::ScpSimulator& sim) : sim_(&sim) {}

  /// Owns a fresh simulator built from `config`.
  explicit ScpManagedSystem(const telecom::SimConfig& config)
      : owned_(std::make_unique<telecom::ScpSimulator>(config)),
        sim_(owned_.get()) {}

  telecom::ScpSimulator& simulator() noexcept { return *sim_; }
  const telecom::ScpSimulator& simulator() const noexcept { return *sim_; }

  std::string name() const override {
    return "scp-" + std::to_string(sim_->config().seed);
  }

  double now() const override { return sim_->now(); }
  double horizon() const override { return sim_->config().duration; }
  bool finished() const override { return sim_->finished(); }
  void step_to(double t) override { sim_->step_to(t); }

  const mon::MonitoringDataset& trace() const override {
    return sim_->trace();
  }

  std::size_t num_units() const override { return sim_->num_nodes(); }

  core::UnitHealth unit_health(std::size_t unit) const override {
    const auto& node = sim_->node(unit);
    core::UnitHealth h;
    h.available = node.available(sim_->now());
    h.memory_pressure = node.memory_pressure();
    h.cascade_stage = node.cascade_stage();
    h.leak_active = node.leak_active();
    return h;
  }

  double offered_load() const override { return sim_->current_arrival_rate(); }
  double unit_capacity() const override {
    return sim_->config().node_capacity;
  }
  bool service_down() const override { return sim_->service_down(); }

  /// Symptom-delta trigger for the adaptive scheduler: any active fault
  /// (leak, cascade, down unit, service failure) pins the node dense;
  /// otherwise urgency tracks the worst unit's memory pressure, so aging
  /// nodes drift back toward dense sampling as they approach trouble.
  core::SchedulingHint scheduling_hint() const override {
    core::SchedulingHint hint;  // urgency 1.0: the dense-safe default
    if (sim_->service_down()) return hint;
    double urgency = 0.0;
    for (std::size_t u = 0; u < sim_->num_nodes(); ++u) {
      const auto& node = sim_->node(u);
      if (node.leak_active() || node.cascade_stage() > 0 ||
          !node.available(sim_->now())) {
        return hint;
      }
      urgency = std::max(urgency, node.memory_pressure());
    }
    hint.urgency = urgency;
    return hint;
  }

  void restart_unit(std::size_t unit) override {
    sim_->preventive_restart(unit);
  }
  void shed_load(double fraction, double duration) override {
    sim_->shed_load(fraction, duration);
  }
  void checkpoint() override { sim_->checkpoint(); }
  void prepare_for_failure(double window) override {
    sim_->prepare_for_failure(window);
  }

  core::SystemStats system_stats() const override {
    const auto& s = sim_->stats();
    core::SystemStats out;
    out.total_requests = s.total_requests;
    out.violations = s.violations;
    out.failures = s.failures;
    out.downtime = s.downtime;
    out.shed_requests = s.shed_requests;
    out.preventive_restarts = s.preventive_restarts;
    out.prepared_repairs = s.prepared_repairs;
    out.unprepared_repairs = s.unprepared_repairs;
    out.simulated = s.simulated;
    return out;
  }

 private:
  std::unique_ptr<telecom::ScpSimulator> owned_;  // null when borrowing
  telecom::ScpSimulator* sim_;
};

/// Statistically independent per-node RNG stream: core::mix64(base_seed,
/// node_index - 1), so neighboring node indices land far apart in seed
/// space. Node 0 keeps base_seed — a 1-node fleet is bit-identical to a
/// standalone simulator with the same config.
std::uint64_t derive_node_seed(std::uint64_t base_seed,
                               std::size_t node_index) noexcept;

/// Builds `count` owned SCP systems from `base`, one deterministic RNG
/// stream per node (see derive_node_seed).
std::vector<std::unique_ptr<core::ManagedSystem>> make_scp_fleet(
    const telecom::SimConfig& base, std::size_t count);

}  // namespace pfm::runtime
