#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "core/sharding.hpp"

namespace pfm::inj {

/// Exception thrown by a FaultyManagedSystem once its scripted crash time
/// has passed: every subsequent interaction with the node fails with it,
/// the way a dead remote endpoint fails every RPC.
class NodeCrashError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Exception thrown by FaultySymptomPredictor / FaultyEventPredictor when
/// a scoring call is scripted to fail.
class PredictorFaultError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Exception thrown by FaultyAction when a countermeasure execution is
/// scripted to fail (outright or after partial completion).
class ActionFaultError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Scripted faults of one managed system. Times are in the node's own
/// simulated seconds; probabilities are per interaction and drawn from
/// the injector's deterministic decision stream.
struct NodeFaultSpec {
  /// Node crashes (throws NodeCrashError from every method) once its time
  /// reaches this instant. <0 disables.
  double crash_at = -1.0;
  /// Node hangs (step_to makes no progress) for `hang_steps` Monitor
  /// steps starting at the first step at or after this instant. <0
  /// disables.
  double hang_at = -1.0;
  std::size_t hang_steps = 0;
  /// Probability that a freshly monitored symptom sample is silently
  /// dropped from the trace (sensor outage).
  double drop_sample_p = 0.0;
  /// Probability that a freshly monitored symptom sample is corrupted:
  /// every value replaced by quiet NaN (sensor garbage).
  double corrupt_sample_p = 0.0;
};

/// Scripted faults of one predictor (identified by the id given at wrap
/// time). Probabilities are per scored item.
struct PredictorFaultSpec {
  double throw_p = 0.0;  ///< scoring throws PredictorFaultError
  double nan_p = 0.0;    ///< score comes back as quiet NaN
  double inf_p = 0.0;    ///< score comes back as +infinity
};

/// Scripted faults of one action wrapper. Probabilities are per execution
/// attempt, so retries re-roll the dice — a retried action can succeed.
struct ActionFaultSpec {
  double fail_p = 0.0;     ///< throws before touching the system
  double partial_p = 0.0;  ///< executes, then throws (work done, ack lost)
};

/// A declarative, fully deterministic fault scenario: which nodes,
/// predictors and actions misbehave and how. Applied by FaultInjector via
/// decorator wrappers; an empty (default) plan injects nothing and leaves
/// every wrapped component bit-identical to the bare one.
struct FaultPlan {
  std::uint64_t seed = 0;

  /// Per-node specs keyed by node index; absent nodes are fault-free.
  std::unordered_map<std::size_t, NodeFaultSpec> nodes;
  /// Spec applied to every node in addition to its own entry-free default
  /// (a node with an explicit entry uses that entry instead).
  NodeFaultSpec default_node;

  /// Per-predictor specs keyed by the id passed to wrap_*_predictor.
  std::unordered_map<std::size_t, PredictorFaultSpec> predictors;
  PredictorFaultSpec default_predictor;

  /// Per-action specs keyed by the action wrapper's stream id (assigned
  /// in wrap order).
  std::unordered_map<std::size_t, ActionFaultSpec> actions;
  ActionFaultSpec default_action;

  const NodeFaultSpec& node_spec(std::size_t index) const {
    auto it = nodes.find(index);
    return it != nodes.end() ? it->second : default_node;
  }

  /// Writable spec slot for the node addressed as (shard, local) under
  /// `layout` — the sharded runtime's native addressing. The plan still
  /// stores specs by global index, so the same plan replays bit-exactly
  /// under any resharding: re-addressing through a different layout
  /// reaches the same global slot or a different node, never a shifted
  /// stream.
  NodeFaultSpec& node_at(const core::ShardLayout& layout, std::size_t shard,
                         std::size_t local) {
    return nodes[layout.global_index(shard, local)];
  }
  const NodeFaultSpec& node_spec(const core::ShardLayout& layout,
                                 std::size_t shard, std::size_t local) const {
    return node_spec(layout.global_index(shard, local));
  }
  const PredictorFaultSpec& predictor_spec(std::size_t id) const {
    auto it = predictors.find(id);
    return it != predictors.end() ? it->second : default_predictor;
  }
  const ActionFaultSpec& action_spec(std::size_t id) const {
    auto it = actions.find(id);
    return it != actions.end() ? it->second : default_action;
  }
};

/// One deterministic decision stream of the injector: a counted sequence
/// of uniform draws that is a pure function of (plan seed, stream kind,
/// stream id). Wrappers own one stream each and consult it in their own
/// deterministic call order, so injected runs are bit-identical for a
/// fixed (seed, plan) at any thread count — no shared RNG state exists.
class DecisionStream {
 public:
  DecisionStream() = default;
  DecisionStream(std::uint64_t seed, std::uint64_t kind, std::uint64_t id)
      : key_(core::mix64(core::mix64(seed ^ 0x9e3779b97f4a7c15ULL, kind),
                         id)) {}

  /// Next uniform draw in [0, 1).
  double uniform() {
    return static_cast<double>(core::mix64(key_, counter_++) >> 11) *
           0x1.0p-53;
  }

  /// Next Bernoulli draw; p <= 0 never fires (and burns no draw), so a
  /// zero-probability plan leaves the stream untouched.
  bool fire(double p) { return p > 0.0 && uniform() < p; }

  /// Derives a sub-stream id from two components with core::mix64, the
  /// mixer the stream key uses. Wrappers that roll *per item* rather
  /// than per call chain this over the item's identity — e.g.
  /// derive(derive(id, origin), ordinal) — so each item owns a stream
  /// that is a pure function of what it is, not of when or where it was
  /// scored; that is what keeps injected rolls bit-exact under
  /// resharding and concurrent scoring.
  static std::uint64_t derive(std::uint64_t a, std::uint64_t b) noexcept {
    return core::mix64(a, b);
  }

 private:
  std::uint64_t key_ = 0;
  std::uint64_t counter_ = 0;
};

/// Cause-side fault kinds, carried in the `arg` payload of kInjectedFault
/// trace spans and as the {kind="..."} label of the
/// pfm_injected_faults_total metrics family.
enum class FaultCode : int {
  kNodeCrash = 0,
  kNodeHang = 1,
  kSampleDrop = 2,
  kSampleCorrupt = 3,
  kPredictorThrow = 4,
  kPredictorNan = 5,
  kActionFail = 6,
  kActionPartial = 7,
};

/// Injection-side counters: how many faults each wrapper family actually
/// injected. The runtime's FleetTelemetry reports the *observed* side
/// (quarantines, trips, retries); these report the *cause* side.
struct InjectionStats {
  std::size_t node_crashes = 0;
  std::size_t node_hangs = 0;        ///< stalled Monitor steps served
  std::size_t samples_dropped = 0;
  std::size_t samples_corrupted = 0;
  std::size_t predictor_throws = 0;
  std::size_t predictor_nans = 0;    ///< NaN and inf scores
  std::size_t action_failures = 0;   ///< outright and partial

  std::size_t total() const noexcept {
    return node_crashes + node_hangs + samples_dropped + samples_corrupted +
           predictor_throws + predictor_nans + action_failures;
  }

  InjectionStats& operator+=(const InjectionStats& other) noexcept {
    node_crashes += other.node_crashes;
    node_hangs += other.node_hangs;
    samples_dropped += other.samples_dropped;
    samples_corrupted += other.samples_corrupted;
    predictor_throws += other.predictor_throws;
    predictor_nans += other.predictor_nans;
    action_failures += other.action_failures;
    return *this;
  }
};

/// One wrapper's injected-fault tallies. Shared between the wrapper and
/// the FaultInjector that created it, so the counts outlive the wrapper:
/// a membership restart destroys an incarnation's node and action
/// wrappers, and FaultInjector::stats() still sums what they injected.
/// Relaxed atomics — predictor wrappers are scored from several shard
/// threads at once; readers snapshot between runs.
struct InjectionCounters {
  std::atomic<std::size_t> node_crashes{0};
  std::atomic<std::size_t> node_hangs{0};
  std::atomic<std::size_t> samples_dropped{0};
  std::atomic<std::size_t> samples_corrupted{0};
  std::atomic<std::size_t> predictor_throws{0};
  std::atomic<std::size_t> predictor_nans{0};
  std::atomic<std::size_t> action_failures{0};

  static void bump(std::atomic<std::size_t>& counter) noexcept {
    counter.fetch_add(1, std::memory_order_relaxed);
  }

  InjectionStats snapshot() const noexcept {
    constexpr auto relaxed = std::memory_order_relaxed;
    InjectionStats out;
    out.node_crashes = node_crashes.load(relaxed);
    out.node_hangs = node_hangs.load(relaxed);
    out.samples_dropped = samples_dropped.load(relaxed);
    out.samples_corrupted = samples_corrupted.load(relaxed);
    out.predictor_throws = predictor_throws.load(relaxed);
    out.predictor_nans = predictor_nans.load(relaxed);
    out.action_failures = action_failures.load(relaxed);
    return out;
  }
};

}  // namespace pfm::inj
