#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/managed_system.hpp"
#include "core/mea.hpp"
#include "core/sharding.hpp"
#include "membership/membership_plan.hpp"
#include "obs/observability.hpp"
#include "obs/quality.hpp"
#include "prediction/predictor.hpp"
#include "runtime/annotations.hpp"
#include "runtime/schedule.hpp"
#include "runtime/thread_pool.hpp"

namespace pfm::runtime {

class ShardController;

/// Loop structure of the fleet runtime. Both schedulers run on the shard
/// engine (runtime/shard.hpp): per-shard controllers that drain a
/// calendar queue of node due-times between cross-shard epoch barriers.
enum class FleetScheduler : std::uint8_t {
  /// Preset: one shard, a dense schedule and epoch_ticks == 1 — every
  /// live node steps, the fleet is scored and warned nodes act once per
  /// evaluation interval, in lockstep. Ignores num_shards, epoch_ticks
  /// and schedule.
  kLockstep = 0,
  /// The configurable engine: num_shards contiguous shards, barriers
  /// every epoch_ticks calendar ticks, and nodes visited per the sampling
  /// policy in `schedule` (adaptive backoff for quiet nodes, if enabled).
  kEventDriven = 1
};

/// FleetController configuration: the per-node MEA parameters plus the
/// degree of parallelism.
struct FleetConfig {
  core::MeaConfig mea;
  /// Threads applied to the fleet loop (caller included). The thread
  /// count never affects results — only wall time.
  std::size_t num_threads = 1;
  /// Loop structure (see FleetScheduler). Defaults to the lockstep
  /// preset; sharding and adaptive sampling are opt-in.
  FleetScheduler scheduler = FleetScheduler::kLockstep;
  /// Shards of the event-driven engine (the lockstep preset uses one).
  /// Nodes are partitioned into contiguous blocks (core::ShardLayout).
  /// Results depend on the shard count (per-shard breakers and batches)
  /// but never on the thread count.
  std::size_t num_shards = 1;
  /// Calendar ticks each shard advances between cross-shard epoch
  /// barriers (event-driven only; the preset uses 1). Larger values
  /// amortize the barrier; 1 keeps shards in per-tick sync (and
  /// epochs == rounds).
  std::size_t epoch_ticks = 8;
  /// Sampling policy of the event-driven engine (the preset is dense).
  SchedulePolicy schedule;
  /// Elastic membership: a deterministic churn plan (scale-out bursts,
  /// rolling restarts, zone loss, drain) plus the closed-loop elasticity
  /// policy, applied at epoch barriers. Inactive (the default) costs
  /// nothing: no membership metrics are registered and every export
  /// stays byte-identical to a membership-free build. Note that an active
  /// config quantizes churn to epoch boundaries, so epoch_ticks becomes
  /// semantic for churn timing (results stay thread-count invariant).
  membership::MembershipConfig membership;
  /// Online prediction-quality scoreboard + live Eq. 8 availability
  /// estimate (DESIGN.md §10), scored with `mea`'s window geometry and
  /// warning threshold so the online counts reproduce the offline
  /// evaluation exactly. Off (the default) registers nothing and leaves
  /// every export byte-identical to a quality-free build.
  bool quality = false;
  /// External observability hub (metrics + tracing + exporters). Must be
  /// sized with shards >= num_threads and not shared between concurrently
  /// running controllers. nullptr = the controller keeps a private
  /// metrics-only hub, so telemetry() always has a registry to read —
  /// the loop's bookkeeping cost is the same either way, and tracing
  /// stays completely off.
  obs::Observability* obs = nullptr;
};

/// Wall time spent in each MEA stage, summed over rounds (seconds).
struct StageLatency {
  double monitor_seconds = 0.0;   ///< advancing the managed systems
  double evaluate_seconds = 0.0;  ///< batched predictor scoring + reduce
  double act_seconds = 0.0;       ///< countermeasure selection/execution
};

/// Observed-fault counters of one fleet run: what the hardening actually
/// absorbed. All zero on a healthy fleet. (The injection subsystem's
/// InjectionStats counts the cause side; these count the effect side.)
struct ResilienceStats {
  std::size_t node_faults = 0;         ///< exceptions caught in Monitor/Act
  std::size_t nodes_quarantined = 0;   ///< currently quarantined nodes
  std::size_t stall_detections = 0;    ///< no-progress Monitor node-rounds
  std::size_t predictor_faults = 0;    ///< faulty predictor-rounds
  std::size_t breaker_trips = 0;       ///< closed/half-open -> open events
  std::size_t breakers_open = 0;       ///< currently open breakers
  std::size_t scores_sanitized = 0;    ///< non-finite scores excluded
};

/// Fleet-level telemetry snapshot: aggregated MEA and downtime statistics
/// plus per-stage latency and fault counters. Since the observability
/// rework this is a *view over the metrics registry* — every counter
/// below is read back from the controller's obs hub, so a Prometheus
/// scrape and a telemetry() call can never disagree.
struct FleetTelemetry {
  /// Live (non-departed) nodes; equals the fleet size while membership
  /// is inactive.
  std::size_t nodes = 0;
  /// Evaluation rounds: calendar ticks that stepped at least one node,
  /// summed over shards (under the lockstep preset, one per evaluation
  /// interval). Round-based thresholds are defined in the two fields
  /// below.
  std::size_t rounds = 0;
  /// Cross-fleet synchronization points: epoch barriers that ran work.
  /// epochs == rounds under the lockstep preset (one shard, epoch_ticks
  /// == 1).
  std::size_t epochs = 0;
  /// Individual node Monitor steps. This is the unit the stall
  /// quarantine threshold counts in: node-local steps, not global rounds
  /// — identical under a dense schedule, but an adaptively backed-off
  /// node steps far fewer times than the fleet runs rounds.
  std::size_t node_steps = 0;
  std::size_t scores_computed = 0;  ///< individual predictor scores
  std::size_t warnings_raised = 0;  ///< across the whole fleet
  StageLatency latency;
  ResilienceStats resilience;
  /// Membership churn counters (views over pfm_fleet_membership_*; all
  /// zero while membership is inactive).
  membership::MembershipStats membership;
  core::MeaStats mea;         ///< sum of the per-node MeaStats (includes
                              ///< action retry/abandon counters)
  core::SystemStats system;   ///< sum of the per-node SystemStats, plus
                              ///< the retired stats of replaced systems
};

/// Per-node hardening and membership state beyond the MEA counters.
struct FleetNodeState {
  bool quarantined = false;
  std::string reason;
  double quarantine_time = 0.0;
  std::size_t stall_streak = 0;  ///< consecutive no-progress node steps
  /// Node left the fleet (membership leave/drain). The slot stays — so
  /// global indices, seed streams and fault-plan targets remain stable —
  /// but the node is excluded from every stage from depart_time on.
  bool departed = false;
  double depart_time = 0.0;
};

/// Per-node sampling state of the calendar (runtime/schedule.hpp).
struct NodeSchedule {
  bool scheduled = false;
  std::uint32_t pending_gap = 1;   ///< ticks the due visit will cover
  std::uint32_t prev_gap = 1;      ///< adaptive backoff memory
  std::uint64_t seen_events = 0;   ///< trace append counts at the last
  std::uint64_t seen_failures = 0; ///< visit, for symptom-delta triggers
  std::uint64_t due_tick = 0;      ///< calendar tick of the pending visit
  double last_score = 0.0;         ///< combined score at the last visit
};

/// One fleet node: the managed system and everything its MEA loop keeps
/// about it. The controller owns one record per slot, indexed by global
/// node index; a shard reads and writes the records of its block, so a
/// reshard only re-partitions the index range and rebuilds calendars.
struct FleetNode {
  std::unique_ptr<core::ManagedSystem> system;
  core::ActEngine engine;
  core::MeaStats stats;
  FleetNodeState state;
  NodeSchedule sched;
  /// 0 for the initial population, +1 per membership restart.
  std::size_t incarnation = 0;
};

/// Per-predictor circuit breaker (closed -> open -> half-open probe).
/// Each shard keeps its own bank: a predictor that only misbehaves for
/// one shard's batches trips only there. The open/probe cooldown counts
/// the owning shard's evaluation rounds (its calendar ticks).
struct PredictorBreaker {
  std::size_t failure_streak = 0;    ///< consecutive faulty rounds
  bool open = false;
  std::size_t open_rounds_left = 0;  ///< rounds until the half-open probe
};

/// Prebuilt metric handles shared by the shard controllers. All sharded
/// instruments — safe to bump from worker threads by construction (each
/// thread owns its registry shard).
struct FleetInstruments {
  obs::Counter* rounds_total = nullptr;
  obs::Counter* epochs_total = nullptr;
  obs::Counter* node_steps_total = nullptr;
  obs::Counter* scores_total = nullptr;
  obs::Counter* warnings_total = nullptr;
  obs::Counter* node_faults_total = nullptr;
  obs::Counter* stall_detections_total = nullptr;
  obs::Counter* quarantines_total = nullptr;
  obs::Counter* predictor_faults_total = nullptr;
  obs::Counter* breaker_trips_total = nullptr;
  obs::Counter* scores_sanitized_total = nullptr;
  obs::Histogram* monitor_latency = nullptr;
  obs::Histogram* evaluate_latency = nullptr;
  obs::Histogram* act_latency = nullptr;
  obs::Histogram* batch_size_hist = nullptr;
};

/// Runs the Monitor-Evaluate-Act loop over a fleet of managed systems on
/// a fixed thread pool — the runtime shape of the Fig. 11 blueprint at
/// production scale: shared, immutable predictors; one Act engine and
/// one deterministic RNG stream per node.
///
/// The controller keeps one FleetNode record per slot. The records are
/// partitioned into contiguous blocks (core::ShardLayout), each run by a
/// ShardController that drains its own calendar queue of node due-times
/// (runtime/schedule.hpp): per calendar tick, the due
/// nodes step (Monitor), each predictor scores the due set in one
/// arena-backed score_batch call (Evaluate), and warned nodes run their
/// countermeasures (Act). Shards meet at cross-shard epoch barriers,
/// where membership changes apply. The pool rule: a one-shard fleet —
/// the lockstep preset included — runs its shard's Monitor, per-predictor
/// Evaluate and Act loops on the pool; with several shards the pool runs
/// the shards and each shard runs its loops inline. Nodes never share
/// mutable state, every output lands in its own slot, and per-node
/// randomness lives inside the node, so results are bit-identical for
/// any thread count.
///
/// The loop is itself proactively fault-managed (DESIGN.md §3
/// "Hardening"; the thresholds are constants in runtime/shard.cpp):
///  - a node whose Monitor/Act stage throws, or that stops making time
///    progress, is *quarantined* — recorded with its reason and excluded
///    from further rounds while the rest of the fleet keeps running;
///  - a predictor that throws or emits non-finite scores repeatedly is
///    tripped out of the ensemble by a per-predictor *circuit breaker*
///    and periodically re-probed (half-open); the remaining predictors
///    carry the Evaluate stage in degraded mode;
///  - non-finite scores never reach the warning decision (sanitized and
///    counted);
///  - failing countermeasures get bounded retries and exponential
///    backoff (core::ActEngine).
/// On a healthy fleet none of it engages. All of it is deterministic:
/// quarantine and breaker transitions depend only on per-round outcomes,
/// which are themselves thread-count invariant.
///
/// Fleet memory follows the window (DESIGN.md §9): each time a shard
/// evaluates a node, it releases the front of that node's trace up to
/// what later rounds read, i.e. the newest MeaConfig::context_samples
/// samples and the events of the trailing windows.data_window; failures
/// stay. A node's trace() therefore holds only those windows, while its
/// sample_count()/event_count() still count every append.
class FleetController {
 public:
  FleetController(std::vector<std::unique_ptr<core::ManagedSystem>> nodes,
                  FleetConfig config);
  ~FleetController();  // out-of-line: ShardController is incomplete here

  /// Registers a trained symptom predictor, shared (read-only) by all
  /// nodes.
  void add_symptom_predictor(std::shared_ptr<const pred::SymptomPredictor> p);

  /// Registers a trained event predictor, shared (read-only) by all nodes.
  void add_event_predictor(std::shared_ptr<const pred::EventPredictor> p);

  /// Registers a countermeasure with every node's Act engine: the factory
  /// is invoked once per node, so actions never see another node's
  /// system.
  void add_action(
      const std::function<std::unique_ptr<act::Action>()>& factory);

  /// Runs every node to its horizon. Never throws on component faults:
  /// failing nodes are quarantined and the run completes with whatever
  /// remains of the fleet.
  void run();

  /// Runs every node until time `t` (or its horizon, whichever is first).
  void run_until(double t);

  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  /// Node `i`. Its trace() holds the fleet's windows only (see above): a
  /// reader needing a longer history, such as a core::Diagnoser with a
  /// longer evidence window than the data window, sees just the retained
  /// tail.
  const core::ManagedSystem& node(std::size_t i) const {
    return *nodes_.at(i).system;
  }
  const core::MeaStats& node_mea_stats(std::size_t i) const {
    return nodes_.at(i).stats;
  }

  bool node_quarantined(std::size_t i) const {
    return nodes_.at(i).state.quarantined;
  }
  /// Human-readable cause ("" while not quarantined).
  const std::string& node_quarantine_reason(std::size_t i) const {
    return nodes_.at(i).state.reason;
  }
  /// True once membership removed node `i` (leave or drain). The slot —
  /// and the ManagedSystem behind it, frozen at depart time — remains
  /// addressable.
  bool node_departed(std::size_t i) const {
    return nodes_.at(i).state.departed;
  }
  /// Current incarnation of slot `i`: 0 for the initial population,
  /// +1 per membership restart. Always 0 while membership is inactive.
  std::size_t node_incarnation(std::size_t i) const {
    return nodes_.at(i).incarnation;
  }

  /// True when predictor `p`'s breaker is currently open in any shard
  /// (predictors are numbered symptom first, then event, in registration
  /// order; breakers are per-shard).
  bool predictor_tripped(std::size_t p) const;

  /// Aggregates the current per-node statistics and latency counters.
  /// Counter-valued fields are read back from the metrics registry.
  FleetTelemetry telemetry() const;

  /// Total reserved bytes across the shards' per-predictor scoring
  /// arenas. Also exported as the wall-clock gauge
  /// `pfm_fleet_scratch_bytes`.
  std::size_t scratch_capacity_bytes() const noexcept;

  /// Number of rounds that grew the arena footprint, summed over shards.
  /// Stabilizes after warm-up — the stress suite asserts no growth once
  /// the fleet reached steady state.
  std::size_t scratch_grow_events() const noexcept;

  /// The hub the controller records into: the external one from
  /// FleetConfig::obs, else the private metrics-only fallback.
  const obs::Observability& observability() const noexcept { return *obs_; }
  obs::Observability& observability() noexcept { return *obs_; }

  /// The online quality tracker, or nullptr while FleetConfig::quality is
  /// off (or before the first run built it). Read between runs only.
  const obs::QualityTracker* quality_tracker() const noexcept {
    return quality_.get();
  }

 private:
  // --- elastic membership (controller thread, barrier-time only) -----------
  /// A membership change with at_time <= `t` is still waiting to apply.
  bool membership_pending(double t) const;
  /// Applies every due planned change at `member_now` (the barrier's
  /// position on the membership clock), evaluates the elasticity policy,
  /// and — when the structure changed — reshards and reactivates.
  void membership_barrier(double member_now, double t)
      PFM_REQUIRES(controller_);
  void apply_member_change(const membership::MemberChange& change,
                           double member_now) PFM_REQUIRES(controller_);
  /// Appends a fresh slot (seeded via derive_member_seed); returns it.
  std::size_t member_join(double at_time, bool policy_driven)
      PFM_REQUIRES(controller_);
  /// A fresh record for slot `i` at `incarnation`: the membership
  /// factory's system and an Act engine armed with every registered
  /// countermeasure, the hub and the flight recorder.
  FleetNode spawn_member(std::size_t i, std::size_t incarnation,
                         double at_time, bool policy_driven)
      PFM_REQUIRES(controller_);
  /// `leave_arg` is the kMemberLeave span payload: 0 leave, 1 drain.
  void member_depart(std::size_t i, double at_time, bool drain,
                     std::int64_t leave_arg) PFM_REQUIRES(controller_);
  void member_restart(std::size_t i, double at_time)
      PFM_REQUIRES(controller_);
  void evaluate_policy(double member_now) PFM_REQUIRES(controller_);
  /// Re-partitions the grown fleet into shard blocks; each shard rebuilds
  /// its calendar from the records of its new block.
  void reshard(double member_now) PFM_REQUIRES(controller_);
  std::size_t quarantined_nodes() const noexcept;

  /// Arms the quality tracker and flight recorder for a run: builds the
  /// tracker on first use (FleetConfig::quality on), re-declares the
  /// predictor lanes (predictors may have been registered since the last
  /// run), sizes per-node scopes and attaches the Act engines to the
  /// flight recorder. Controller thread, before any parallel section.
  void ensure_observers_ready();
  /// Recomputes the scoreboard gauges and the Eq. 8 / Eq. 2 availability
  /// pair (model, measured, drift; per-shard model estimates under a
  /// multi-shard fleet) when a run settles.
  void refresh_quality_gauges();

  std::vector<FleetNode> nodes_;  // one record per slot
  FleetConfig config_;
  std::vector<std::shared_ptr<const pred::SymptomPredictor>> symptom_;
  std::vector<std::shared_ptr<const pred::EventPredictor>> event_;
  ThreadPool pool_;

  // Observability. The handles in inst_ are sharded instruments — safe
  // to bump from worker threads by construction (each thread owns its
  // shard). The batch-size histogram is sim-clock: batch sizes are pure
  // functions of sim state. The gauges are controller-thread
  // instruments; the scratch gauge is wall-clock — arena footprint is
  // allocator-dependent, so it must stay out of the include_wall=false
  // exports the conformance suite compares.
  std::unique_ptr<obs::Observability> owned_obs_;  // fallback when none given
  obs::Observability* obs_ = nullptr;              // never null after ctor
  FleetInstruments inst_;
  obs::Gauge* nodes_gauge_ = nullptr;
  obs::Gauge* quarantined_gauge_ = nullptr;
  obs::Gauge* breakers_open_gauge_ = nullptr;
  obs::Gauge* scratch_bytes_gauge_ = nullptr;

  // Online quality scoreboard + flight recorder (both off by default:
  // quality_ stays null unless FleetConfig::quality, flight_
  // stays null unless the hub was built with flight_capacity > 0 — so a
  // disabled config registers nothing and exports stay byte-identical).
  // The tracker's hot entry points are owning-thread operations like
  // SystemStats; everything else is controller-thread barrier-time.
  std::unique_ptr<obs::QualityTracker> quality_;
  obs::FlightRecorder* flight_ = nullptr;
  obs::Gauge* model_availability_gauge_ = nullptr;
  obs::Gauge* measured_availability_gauge_ = nullptr;
  obs::Gauge* availability_drift_gauge_ = nullptr;

  // The shard partition and one controller per block, built with the
  // fleet. During an epoch each shard is driven by exactly one thread and
  // writes only the node records of its block plus its own calendar,
  // breakers and arenas; the epoch barrier (the pool handshake) publishes
  // everything back to this thread. epoch_end_tick_ doubles as the
  // membership clock: before the k-th epoch it reads k * epoch_ticks
  // intervals.
  core::ShardLayout layout_;
  std::vector<std::unique_ptr<ShardController>> shards_;
  std::uint64_t epoch_end_tick_ = 0;

  // Elastic membership. All of it is controller-thread barrier-time
  // state; the hot loops only ever read the records' departed flags.
  // member_active_ gates every membership code path — inactive configs
  // register nothing and change nothing, preserving byte-identity with
  // membership-free builds.
  bool member_active_ = false;
  std::vector<membership::MemberChange> member_timeline_;
  std::size_t next_member_change_ = 0;
  std::size_t live_nodes_ = 0;
  bool layout_dirty_ = false;  // joins/restarts await reshard
  std::size_t policy_cooldown_left_ = 0;
  std::size_t policy_joins_ = 0;
  /// SystemStats of systems replaced by restarts (their successors start
  /// from zero; telemetry keeps the fleet totals monotone).
  core::SystemStats retired_system_stats_;
  /// Action factories replayed onto joiner/restart engines (stored only
  /// while membership is active).
  std::vector<std::function<std::unique_ptr<act::Action>()>>
      action_factories_;
  obs::Counter* member_joined_total_ = nullptr;
  obs::Counter* member_left_total_ = nullptr;
  obs::Counter* member_handoffs_total_ = nullptr;
  obs::Counter* member_scale_ups_total_ = nullptr;
  obs::Counter* member_drains_total_ = nullptr;
  /// Per-shard membership attribution (multi-shard fleets only), pinned
  /// to sum to the fleet totals like the pfm_shard_* throughput counters.
  struct ShardMemberCounters {
    obs::Counter* joined = nullptr;
    obs::Counter* left = nullptr;
    obs::Counter* handoffs = nullptr;
  };
  std::vector<ShardMemberCounters> shard_member_counters_;

  // The controller role: membership barriers mutate node records, shard
  // calendars and the fleet layout, which is only legal between parallel
  // sections.
  // Functions that do so require the capability, which only the
  // controller thread acquires (RoleGuard) — so calling them from a
  // worker lambda breaks the Clang -Wthread-safety build.
  ThreadRole controller_;
};

}  // namespace pfm::runtime
