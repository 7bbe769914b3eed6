#include "membership/membership_plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/sharding.hpp"

namespace pfm::membership {

const char* to_string(ChurnKind kind) {
  switch (kind) {
    case ChurnKind::kJoin:
      return "join";
    case ChurnKind::kLeave:
      return "leave";
    case ChurnKind::kDrain:
      return "drain";
    case ChurnKind::kRestart:
      return "restart";
  }
  return "unknown";
}

namespace {

MembershipPlan& push(MembershipPlan& plan, ChurnEvent ev) {
  plan.events.push_back(ev);
  return plan;
}

}  // namespace

MembershipPlan& MembershipPlan::scale_out(double at_time, std::size_t count,
                                          double stagger) {
  return push(*this, {at_time, ChurnKind::kJoin, 0, count, stagger});
}

MembershipPlan& MembershipPlan::node_leave(double at_time, std::size_t node) {
  return push(*this, {at_time, ChurnKind::kLeave, node, 1, 0.0});
}

MembershipPlan& MembershipPlan::zone_loss(double at_time,
                                          std::size_t first_node,
                                          std::size_t count) {
  return push(*this, {at_time, ChurnKind::kLeave, first_node, count, 0.0});
}

MembershipPlan& MembershipPlan::drain_node(double at_time, std::size_t node) {
  return push(*this, {at_time, ChurnKind::kDrain, node, 1, 0.0});
}

MembershipPlan& MembershipPlan::restart_node(double at_time,
                                             std::size_t node) {
  return push(*this, {at_time, ChurnKind::kRestart, node, 1, 0.0});
}

MembershipPlan& MembershipPlan::rolling_restart(double at_time,
                                                std::size_t first_node,
                                                std::size_t count,
                                                double stagger) {
  return push(*this, {at_time, ChurnKind::kRestart, first_node, count,
                      stagger});
}

void MembershipPlan::validate() const {
  for (const auto& ev : events) {
    if (!std::isfinite(ev.at_time) || ev.at_time < 0.0) {
      throw std::invalid_argument(
          "MembershipPlan: event at_time must be finite and >= 0");
    }
    if (ev.count == 0) {
      throw std::invalid_argument("MembershipPlan: event count must be >= 1");
    }
    if (!std::isfinite(ev.stagger) || ev.stagger < 0.0) {
      throw std::invalid_argument(
          "MembershipPlan: event stagger must be finite and >= 0");
    }
  }
}

std::vector<MemberChange> MembershipPlan::resolve() const {
  validate();
  std::vector<MemberChange> changes;
  for (std::size_t e = 0; e < events.size(); ++e) {
    const auto& ev = events[e];
    for (std::size_t i = 0; i < ev.count; ++i) {
      MemberChange c;
      c.at_time = ev.at_time + static_cast<double>(i) * ev.stagger;
      c.kind = ev.kind;
      // Joins get their slot assigned by the runtime at apply time; bursts
      // over existing slots (zone loss, rolling restart) walk consecutive
      // slots starting at ev.node.
      c.node = ev.kind == ChurnKind::kJoin ? 0 : ev.node + i;
      c.source = e;
      changes.push_back(c);
    }
  }
  std::stable_sort(changes.begin(), changes.end(),
                   [](const MemberChange& a, const MemberChange& b) {
                     return a.at_time < b.at_time;
                   });
  return changes;
}

void ElasticityPolicy::validate() const {
  if (!enabled) return;
  if (std::isnan(scale_up_mass) || std::isnan(drain_score)) {
    throw std::invalid_argument(
        "ElasticityPolicy: thresholds must not be NaN");
  }
  if (scale_up_mass >= 0.0 && scale_up_nodes == 0) {
    throw std::invalid_argument(
        "ElasticityPolicy: scale_up_nodes must be >= 1 when scale-up armed");
  }
}

bool MembershipConfig::needs_factory() const {
  if (policy.enabled) return true;
  for (const auto& ev : plan.events) {
    if (ev.kind == ChurnKind::kJoin || ev.kind == ChurnKind::kRestart) {
      return true;
    }
  }
  return false;
}

void MembershipConfig::validate() const {
  plan.validate();
  policy.validate();
  if (needs_factory() && !factory) {
    throw std::invalid_argument(
        "MembershipConfig: plan joins/restarts or an enabled policy require "
        "a node factory");
  }
}

std::uint64_t derive_member_seed(std::uint64_t plan_seed, std::size_t node,
                                 std::size_t incarnation) {
  // Mixes in slot then incarnation, the derive(id, origin) stream
  // discipline of the fault injector.
  return core::mix64(core::mix64(plan_seed, static_cast<std::uint64_t>(node)),
                     static_cast<std::uint64_t>(incarnation));
}

}  // namespace pfm::membership
