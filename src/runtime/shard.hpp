#pragma once

// Per-shard controller of the fleet runtime (DESIGN.md §9): the one
// implementation of the hardened Monitor-Evaluate-Act round. A
// ShardController owns one contiguous block of the fleet and everything
// stateful about running it: the block's calendar queue and sampling
// state, its quarantine records, its own bank of predictor circuit
// breakers, and its own BatchScratch arenas. During an epoch a shard is
// driven by exactly one thread and touches only shard-local state plus
// sharded metric instruments (and the shared read-only predictors), so
// shards compose without locks: the cross-shard epoch barrier in
// FleetController::run_until is the only synchronization. A lone shard
// fans its per-node and per-predictor loops out over the fleet's pool;
// inside a multi-shard fleet they run inline.

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/fleet.hpp"
#include "runtime/schedule.hpp"

namespace pfm::runtime {

/// What a shard borrows from its owning FleetController: the fleet-wide
/// component vectors (the shard only ever touches indices inside its
/// block) and the shared observability handles. All pointers outlive the
/// shard — the controller owns both sides.
struct ShardEnv {
  const FleetConfig* config = nullptr;
  std::vector<std::unique_ptr<core::ManagedSystem>>* nodes = nullptr;
  std::vector<core::ActEngine>* engines = nullptr;
  std::vector<core::MeaStats>* stats = nullptr;
  const std::vector<std::shared_ptr<const pred::SymptomPredictor>>* symptom =
      nullptr;
  const std::vector<std::shared_ptr<const pred::EventPredictor>>* event =
      nullptr;
  obs::Observability* obs = nullptr;
  FleetInstruments inst;
  /// The fleet's pool, set for a one-shard fleet: the shard then runs its
  /// Monitor, per-predictor Evaluate and Act loops on it. Null: the loops
  /// run inline on the thread driving the shard.
  ThreadPool* pool = nullptr;
};

/// Per-node adaptive sampling state. Public (namespace scope) because it
/// is also the warm-handoff payload of elastic membership: when a
/// reshard moves a node between shards, its sampling/backoff state
/// travels with it so the surviving node's schedule — and therefore its
/// results — are bit-identical to an uninterrupted run.
struct NodeSchedule {
  bool scheduled = false;
  std::uint32_t pending_gap = 1;   ///< ticks the due visit will cover
  std::uint32_t prev_gap = 1;      ///< adaptive backoff memory
  std::uint64_t seen_events = 0;   ///< trace append counts at the last
  std::uint64_t seen_failures = 0; ///< visit, for symptom-delta triggers
  std::uint64_t due_tick = 0;      ///< calendar tick of the pending visit
  double last_score = 0.0;         ///< combined score at the last visit
};

/// Warm-handoff payload of one node slot: everything shard-owned that
/// must survive an online reshard (quarantine record + sampling state).
/// Exported at an epoch barrier — when every shard's calendar cursor
/// sits on the same shared tick — and re-imported into the new owner.
struct NodeHandoff {
  FleetNodeState state;
  NodeSchedule sched;
};

/// One shard of the fleet: a Monitor-Evaluate-Act engine over the due set
/// of each calendar tick. A dense schedule steps every node each tick
/// (the lockstep preset is one such shard); adaptive schedules visit each
/// node per its own sampling gap.
class ShardController {
 public:
  /// `base`/`count` delimit the shard's block of global node indices;
  /// `stage_track` is the trace lane of the shard's stage spans
  /// (obs::kFleetTrack for a single-shard fleet, obs::shard_track(i)
  /// otherwise).
  ShardController(ShardEnv env, std::size_t shard_index, std::size_t base,
                  std::size_t count, std::uint32_t stage_track);

  /// Optional per-shard throughput counters (registered by the owning
  /// controller only when the fleet has more than one shard).
  void set_shard_metrics(obs::Counter* ticks, obs::Counter* node_steps);

  /// Sizes the per-predictor state (breakers, score columns, arenas);
  /// called before every run — predictors may have been registered since.
  void resize_predictors(std::size_t num_predictors);

  /// Attaches the fleet's online quality tracker and flight recorder
  /// (either may be null = off). `lane_base` is this shard's first flight
  /// predictor lane (shard_index * num_predictors — per-shard breakers
  /// get per-shard lane banks). Called by the owning controller before
  /// every run, after resize_predictors.
  void set_quality(obs::QualityTracker* quality, obs::FlightRecorder* flight,
                   std::size_t lane_base);

  /// (Re)schedules every runnable, currently unscheduled node of the
  /// block at the calendar cursor with a fresh dense gap. Called at the
  /// start of every run_until.
  void activate(double t);

  /// Nothing scheduled: the shard has no work before its calendar's
  /// cursor reaches the next activation.
  bool idle() const noexcept { return calendar_.empty(); }

  /// Drains every calendar tick before `end_tick` (the epoch barrier),
  /// stepping due nodes toward sim-time `t`. Component faults are
  /// absorbed shard-locally (quarantine, breakers, sanitization).
  void run_epoch(std::uint64_t end_tick, double t);

  std::size_t shard_index() const noexcept { return shard_index_; }
  std::size_t base() const noexcept { return base_; }
  std::size_t size() const noexcept { return count_; }

  const FleetNodeState& node_state(std::size_t local) const {
    return node_state_.at(local);
  }
  /// Mutable slot state, for the owning controller's membership barrier
  /// (restart resets, departed marks). Controller-thread only — shards
  /// are quiescent at barriers.
  FleetNodeState& node_state_mut(std::size_t local) {
    return node_state_.at(local);
  }
  const NodeSchedule& node_sched(std::size_t local) const {
    return sched_.at(local);
  }
  NodeSchedule& node_sched_mut(std::size_t local) { return sched_.at(local); }

  /// Elastic membership (controller-thread, epoch barriers only):
  /// export_node captures one slot's warm-handoff payload; reshape moves
  /// the shard to a new contiguous block (clearing the calendar but
  /// keeping its cursor on the shared epoch grid, plus the per-predictor
  /// breakers/arenas, which stay with the shard); import_node restores a
  /// payload into the new block, re-inserting pending calendar entries
  /// at their original due ticks.
  NodeHandoff export_node(std::size_t local) const;
  void reshape(std::size_t base, std::size_t count);
  void import_node(std::size_t local, const NodeHandoff& handoff);

  /// Summed last combined score over live (non-quarantined, non-departed)
  /// nodes — the shard's contribution to the elasticity policy's
  /// fleet-level failure-probability mass.
  double score_mass() const noexcept;

  bool breaker_open(std::size_t p) const {
    return p < breakers_.size() && breakers_[p].open;
  }
  std::size_t open_breakers() const noexcept;
  std::size_t quarantined_nodes() const noexcept;

  std::size_t scratch_capacity_bytes() const noexcept;
  std::size_t scratch_grow_events() const noexcept {
    return scratch_grow_events_;
  }

 private:
  void process_tick(std::uint64_t tick, double t);
  /// Runs fn(0) ... fn(n-1) — on the pool when the shard has one, inline
  /// otherwise — capturing each index's exception into errors_[index].
  void run_captured(std::size_t n, const std::function<void(std::size_t)>& fn);
  void quarantine_local(std::size_t local, const std::string& reason);
  /// Adaptive hot test of one surviving node: score near the warning
  /// threshold, an urgent SchedulingHint, or a symptom delta (new error
  /// events / failures since the last visit) snaps the node dense.
  bool node_is_hot(std::size_t local, double combined_score);

  ShardEnv env_;
  std::size_t shard_index_ = 0;
  std::size_t base_ = 0;
  std::size_t count_ = 0;
  std::uint32_t stage_track_ = 0;
  obs::TraceRecorder* tracer_ = nullptr;
  obs::Counter* shard_ticks_total_ = nullptr;       // null when 1 shard
  obs::Counter* shard_node_steps_total_ = nullptr;  // null when 1 shard
  obs::QualityTracker* quality_ = nullptr;          // null = quality off
  obs::FlightRecorder* flight_ = nullptr;           // null = recorder off
  std::size_t flight_lane_base_ = 0;

  CalendarQueue calendar_;
  std::vector<NodeSchedule> sched_;
  std::vector<FleetNodeState> node_state_;
  std::vector<PredictorBreaker> breakers_;
  /// Shard-local round ordinal: the `sub` of this shard's stage spans.
  std::uint32_t local_rounds_ = 0;

  // Tick-scratch, reused across ticks so the hot loop stays
  // allocation-free after warm-up. Pooled loops write disjoint slots.
  std::vector<std::uint32_t> due_;
  std::vector<std::size_t> active_;           // local index per due node
  std::vector<double> pre_step_time_;
  std::vector<std::exception_ptr> errors_;
  std::vector<pred::SymptomContext> contexts_;
  std::vector<std::size_t> context_owner_;    // active-list position
  std::vector<mon::ErrorSequence> sequences_;
  std::vector<double> combined_;
  std::vector<std::vector<double>> columns_;  // per-predictor columns
  std::vector<std::size_t> live_;             // predictors scored this tick
  std::vector<pred::BatchScratch> batch_scratch_;  // one arena per predictor
  std::vector<double> quality_row_;           // lane scores, combined last
  std::vector<std::ptrdiff_t> ctx_of_active_; // active pos -> context index
  std::vector<std::uint8_t> scored_;          // predictor produced a column
  std::size_t scratch_grow_events_ = 0;
  std::size_t scratch_bytes_seen_ = 0;
};

}  // namespace pfm::runtime
