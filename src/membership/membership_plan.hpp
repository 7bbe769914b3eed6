#pragma once

// Deterministic fleet-membership plans: a sibling of injection::FaultPlan
// that declares *churn* instead of faults.  A MembershipPlan is a list of
// timed churn events (scale-out bursts, rolling restarts, zone loss, node
// drain) resolved into a flat, sim-time-ordered change list that the fleet
// runtime applies at epoch barriers.  Everything here is a pure function of
// the plan contents: resolving a plan twice, or on different machines,
// yields the same change sequence, so any (seed, membership plan, fault
// plan) triple replays bit-identically.
//
// Layering: membership sits beside injection and may depend only on core
// (for the ManagedSystem factory signature) and numerics.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/managed_system.hpp"

namespace pfm::membership {

// ---------------------------------------------------------------------------
// Churn vocabulary

enum class ChurnKind : std::uint8_t {
  kJoin = 0,     // add a brand-new node slot to the fleet
  kLeave = 1,    // remove a node immediately (zone loss, decommission)
  kDrain = 2,    // graceful removal: prepare_for_drain() runs first
  kRestart = 3,  // replace the managed system in-place; fresh incarnation
};

const char* to_string(ChurnKind kind);

// A declarative churn event.  `node` targets an existing slot for
// leave/drain/restart; joins ignore it (the runtime assigns the next free
// slot).  `count > 1` expands the event into a burst (joins) or a rolling
// window over consecutive slots (restarts, zone loss), with `stagger`
// seconds of sim time between consecutive members of the burst.
struct ChurnEvent {
  double at_time = 0.0;
  ChurnKind kind = ChurnKind::kJoin;
  std::size_t node = 0;
  std::size_t count = 1;
  double stagger = 0.0;
};

// One resolved change.  `source` is the index of the originating ChurnEvent,
// kept as a deterministic tie-break and for tracing.
struct MemberChange {
  double at_time = 0.0;
  ChurnKind kind = ChurnKind::kJoin;
  std::size_t node = 0;
  std::size_t source = 0;
};

// ---------------------------------------------------------------------------
// MembershipPlan

struct MembershipPlan {
  // Seed for the membership stream: joiner seeds are derived from it via
  // derive_member_seed(seed, slot, incarnation), independent of the fault
  // plan's and the fleet's own seed streams.
  std::uint64_t seed = 0;
  std::vector<ChurnEvent> events;

  bool empty() const { return events.empty(); }

  // Builders (return *this for chaining).
  MembershipPlan& scale_out(double at_time, std::size_t count,
                            double stagger = 0.0);
  MembershipPlan& node_leave(double at_time, std::size_t node);
  MembershipPlan& zone_loss(double at_time, std::size_t first_node,
                            std::size_t count);
  MembershipPlan& drain_node(double at_time, std::size_t node);
  MembershipPlan& restart_node(double at_time, std::size_t node);
  MembershipPlan& rolling_restart(double at_time, std::size_t first_node,
                                  std::size_t count, double stagger);

  // Throws std::invalid_argument on non-finite/negative times, zero counts,
  // or negative stagger.
  void validate() const;

  // Expand bursts and stable-sort by at_time.  Ties keep declaration order
  // (stable sort over the expansion, which is itself in event order).
  std::vector<MemberChange> resolve() const;
};

// ---------------------------------------------------------------------------
// Closed-loop elasticity

// Evaluated by the fleet controller at every membership barrier using the
// latest combined failure-probability scores.  Thresholds < 0 disable the
// corresponding trigger.  All decisions are functions of sim-time state, so
// policy-driven churn replays exactly like planned churn.
struct ElasticityPolicy {
  bool enabled = false;
  // Preventive scale-up: when the summed combined score ("failure mass")
  // across live nodes crosses this, add scale_up_nodes new nodes.
  double scale_up_mass = -1.0;
  std::size_t scale_up_nodes = 1;
  // Barriers to wait after any policy action before acting again.
  std::size_t cooldown_epochs = 16;
  // Drain-and-failover: a live node whose last combined score crosses this
  // is drained; if failover_replace, a fresh replacement joins at once.
  double drain_score = -1.0;
  bool failover_replace = true;
  // Hard cap on policy-driven joins per run (keeps runaway feedback bounded
  // and the run length deterministic).
  std::size_t max_policy_joins = 64;

  void validate() const;
};

// ---------------------------------------------------------------------------
// Node factories

// Everything a factory needs to build a deterministic joiner: the assigned
// slot, the incarnation number (0 for the initial population, +1 per
// restart), the sim time of the join, and a seed drawn from the membership
// plan's stream discipline.
struct JoinContext {
  std::size_t node = 0;
  std::size_t incarnation = 0;
  double at_time = 0.0;
  std::uint64_t seed = 0;
  bool policy_driven = false;
};

using NodeFactory =
    std::function<std::unique_ptr<core::ManagedSystem>(const JoinContext&)>;

// ---------------------------------------------------------------------------
// Config + stats

struct MembershipConfig {
  MembershipPlan plan;
  ElasticityPolicy policy;
  // Required whenever the plan contains joins/restarts or the policy is
  // enabled (policy actions may spawn replacements).
  NodeFactory factory;

  // True when membership machinery should be armed at all.  Inactive
  // configs are guaranteed zero-overhead and byte-identical to a build
  // without the subsystem.
  bool active() const { return !plan.empty() || policy.enabled; }

  bool needs_factory() const;
  void validate() const;
};

struct MembershipStats {
  std::uint64_t nodes_joined = 0;
  std::uint64_t nodes_left = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t scale_ups = 0;
  std::uint64_t drains = 0;
};

// core::mix64 over (plan seed, slot, incarnation) — the mixer behind the
// runtime's per-node streams and the injector's decision streams too.
std::uint64_t derive_member_seed(std::uint64_t plan_seed, std::size_t node,
                                 std::size_t incarnation);

}  // namespace pfm::membership
