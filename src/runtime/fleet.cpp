#include "runtime/fleet.hpp"

#include <algorithm>
#include <stdexcept>

#include "ctmc/pfm_model.hpp"
#include "prediction/frozen.hpp"
#include "prediction/ubf.hpp"
#include "runtime/shard.hpp"

namespace pfm::runtime {

FleetController::FleetController(
    std::vector<std::unique_ptr<core::ManagedSystem>> nodes,
    FleetConfig config)
    : nodes_(std::move(nodes)),
      config_(std::move(config)),
      engines_(nodes_.size()),
      stats_(nodes_.size()),
      pool_(config_.num_threads) {
  if (nodes_.empty()) {
    throw std::invalid_argument("FleetController: empty fleet");
  }
  for (const auto& n : nodes_) {
    if (!n) throw std::invalid_argument("FleetController: null node");
  }
  config_.mea.validate();
  if (config_.num_shards == 0) {
    throw std::invalid_argument("FleetController: num_shards must be >= 1");
  }
  if (config_.epoch_ticks == 0) {
    throw std::invalid_argument("FleetController: epoch_ticks must be >= 1");
  }
  config_.schedule.validate();
  if (config_.scheduler == FleetScheduler::kEventDriven &&
      config_.num_shards > nodes_.size()) {
    throw std::invalid_argument(
        "FleetController: more shards than nodes (need at least one node "
        "per shard)");
  }
  if (config_.scheduler == FleetScheduler::kLockstep) {
    // The lockstep preset: one dense shard in per-tick sync. (Not one
    // shard per thread: breakers are per shard, so results would then
    // depend on the thread count.)
    config_.num_shards = 1;
    config_.epoch_ticks = 1;
    config_.schedule = SchedulePolicy{};
  }
  config_.membership.validate();
  member_active_ = config_.membership.active();
  live_nodes_ = nodes_.size();
  if (member_active_) {
    member_timeline_ = config_.membership.plan.resolve();
    incarnations_.assign(nodes_.size(), 0);
  }

  // Observability: use the caller's hub when given (it must have a shard
  // for every pool thread, or two workers would share a slot and race);
  // otherwise keep a private metrics-only hub so telemetry() always has
  // a registry behind it. Handle registration happens here, once, on the
  // controller thread — the hot loop only bumps prebuilt handles.
  if (config_.obs != nullptr) {
    if (config_.obs->shards() < pool_.num_threads()) {
      throw std::invalid_argument(
          "FleetController: observability hub has fewer shards than the "
          "pool has threads");
    }
    obs_ = config_.obs;
  } else {
    obs::ObservabilityConfig fallback;
    fallback.shards = pool_.num_threads();
    fallback.trace_capacity = 0;
    owned_obs_ = std::make_unique<obs::Observability>(fallback);
    obs_ = owned_obs_.get();
  }
  auto& metrics = obs_->metrics();
  inst_.rounds_total = &metrics.counter("pfm_fleet_rounds_total");
  inst_.epochs_total = &metrics.counter("pfm_fleet_epochs_total");
  inst_.node_steps_total = &metrics.counter("pfm_fleet_node_steps_total");
  inst_.scores_total = &metrics.counter("pfm_fleet_scores_total");
  inst_.warnings_total = &metrics.counter("pfm_fleet_warnings_total");
  inst_.node_faults_total = &metrics.counter("pfm_fleet_node_faults_total");
  inst_.stall_detections_total =
      &metrics.counter("pfm_fleet_stall_detections_total");
  inst_.quarantines_total = &metrics.counter("pfm_fleet_quarantines_total");
  inst_.predictor_faults_total =
      &metrics.counter("pfm_fleet_predictor_faults_total");
  inst_.breaker_trips_total =
      &metrics.counter("pfm_fleet_breaker_trips_total");
  inst_.scores_sanitized_total =
      &metrics.counter("pfm_fleet_scores_sanitized_total");
  const obs::HistogramSpec latency_spec;  // 1µs..~17s log-scale, 1ns ticks
  inst_.monitor_latency = &metrics.histogram(
      "pfm_stage_latency_seconds{stage=\"monitor\"}", latency_spec);
  inst_.evaluate_latency = &metrics.histogram(
      "pfm_stage_latency_seconds{stage=\"evaluate\"}", latency_spec);
  inst_.act_latency = &metrics.histogram(
      "pfm_stage_latency_seconds{stage=\"act\"}", latency_spec);
  nodes_gauge_ = &metrics.gauge("pfm_fleet_nodes");
  nodes_gauge_->set(static_cast<double>(nodes_.size()));
  quarantined_gauge_ = &metrics.gauge("pfm_fleet_quarantined_nodes");
  breakers_open_gauge_ = &metrics.gauge("pfm_fleet_open_breakers");
  // Evaluate batch sizes are pure functions of sim state (identical at
  // every thread count), so the histogram lives on the sim clock and
  // participates in the deterministic exports.
  obs::HistogramSpec batch_spec;
  batch_spec.first_bound = 1.0;
  batch_spec.factor = 2.0;
  batch_spec.num_buckets = 12;
  batch_spec.resolution = 1.0;
  inst_.batch_size_hist = &metrics.histogram("pfm_fleet_batch_size",
                                             batch_spec, obs::Clock::kSim);
  // Arena footprint is allocator-dependent — wall clock keeps it out of
  // the include_wall=false exports the conformance suite pins.
  scratch_bytes_gauge_ =
      &metrics.gauge("pfm_fleet_scratch_bytes", obs::Clock::kWall);
  // Membership counters exist only while membership is active, so an
  // inactive config's exports stay byte-identical to a membership-free
  // build (the satellite determinism contract).
  if (member_active_) {
    member_joined_total_ =
        &metrics.counter("pfm_fleet_membership_nodes_joined_total");
    member_left_total_ =
        &metrics.counter("pfm_fleet_membership_nodes_left_total");
    member_handoffs_total_ =
        &metrics.counter("pfm_fleet_membership_handoffs_total");
    member_scale_ups_total_ =
        &metrics.counter("pfm_fleet_membership_scale_ups_total");
    member_drains_total_ =
        &metrics.counter("pfm_fleet_membership_drains_total");
  }
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    engines_[i].set_observability(obs_, obs::node_track(i));
  }

  // The shards are built with the fleet, so every node's loop state has
  // one home from the start.
  layout_ = core::ShardLayout(nodes_.size(), config_.num_shards);
  const bool multi = config_.num_shards > 1;
  shards_.reserve(config_.num_shards);
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    ShardEnv env;
    env.config = &config_;
    env.nodes = &nodes_;
    env.engines = &engines_;
    env.stats = &stats_;
    env.symptom = &symptom_;
    env.event = &event_;
    env.obs = obs_;
    env.inst = inst_;
    // The pool rule: a lone shard runs its stage loops on the pool;
    // several shards run on the pool themselves, their loops inline.
    env.pool = multi ? nullptr : &pool_;
    // A single-shard fleet records its stage spans on the fleet track and
    // registers no shard-labelled metrics.
    const std::uint32_t track =
        multi ? obs::shard_track(s) : obs::kFleetTrack;
    auto shard = std::make_unique<ShardController>(
        env, s, layout_.begin(s), layout_.size(s), track);
    if (multi) {
      const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
      shard->set_shard_metrics(
          &metrics.counter("pfm_shard_ticks_total" + label),
          &metrics.counter("pfm_shard_node_steps_total" + label));
      metrics.gauge("pfm_shard_nodes" + label)
          .set(static_cast<double>(layout_.size(s)));
      if (member_active_) {
        ShardMemberCounters counters;
        counters.joined =
            &metrics.counter("pfm_shard_membership_joined_total" + label);
        counters.left =
            &metrics.counter("pfm_shard_membership_left_total" + label);
        counters.handoffs =
            &metrics.counter("pfm_shard_membership_handoffs_total" + label);
        shard_member_counters_.push_back(counters);
      }
    }
    shards_.push_back(std::move(shard));
  }
}

FleetController::~FleetController() = default;

void FleetController::add_symptom_predictor(
    std::shared_ptr<const pred::SymptomPredictor> p) {
  if (!p) throw std::invalid_argument("FleetController: null predictor");
  symptom_.push_back(std::move(p));
}

void FleetController::add_event_predictor(
    std::shared_ptr<const pred::EventPredictor> p) {
  if (!p) throw std::invalid_argument("FleetController: null predictor");
  event_.push_back(std::move(p));
}

std::vector<std::string> FleetController::freeze_symptom_predictors(
    const std::string& dir) const {
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < symptom_.size(); ++i) {
    const auto* ubf = dynamic_cast<const pred::UbfPredictor*>(symptom_[i].get());
    if (ubf == nullptr) continue;  // no freeze path for this predictor type
    const auto model = ubf->export_model();
    std::string path = dir + "/" + model.name + "_" + std::to_string(i) +
                       ".pfmfrozen";
    const pred::FrozenError err = pred::freeze(model, path);
    if (err != pred::FrozenError::kOk) {
      throw std::runtime_error("FleetController: freeze failed for " + path +
                               ": " + pred::to_string(err));
    }
    paths.push_back(std::move(path));
  }
  return paths;
}

void FleetController::add_action(
    const std::function<std::unique_ptr<act::Action>()>& factory) {
  if (!factory) throw std::invalid_argument("FleetController: null factory");
  for (auto& engine : engines_) engine.add_action(factory());
  // Joiners and restarted nodes get the same countermeasure set: the
  // factory is replayed onto their fresh engines at the barrier.
  if (member_active_) action_factories_.push_back(factory);
}

void FleetController::run() {
  double horizon = 0.0;
  for (const auto& n : nodes_) horizon = std::max(horizon, n->horizon());
  run_until(horizon);
}

void FleetController::ensure_observers_ready() {
  const std::size_t num_predictors = symptom_.size() + event_.size();
  flight_ = obs_->flight();
  if (flight_ != nullptr) {
    flight_->ensure_nodes(nodes_.size());
    // One predictor lane bank per shard (per-shard breakers trip
    // independently).
    flight_->ensure_lanes(shards_.size() * num_predictors, num_predictors);
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      engines_[i].set_flight(flight_, i);
    }
  }
  if (!config_.quality) return;
  if (!quality_) {
    obs::QualityConfig qc;
    qc.lead_time = config_.mea.windows.lead_time;
    qc.prediction_window = config_.mea.windows.prediction_window;
    qc.warning_threshold = config_.mea.warning_threshold;
    quality_ = std::make_unique<obs::QualityTracker>(qc, &obs_->metrics());
    auto& metrics = obs_->metrics();
    model_availability_gauge_ =
        &metrics.gauge("pfm_quality_model_availability");
    measured_availability_gauge_ =
        &metrics.gauge("pfm_quality_measured_availability");
    availability_drift_gauge_ =
        &metrics.gauge("pfm_quality_availability_drift");
  }
  // Predictors may have been registered since the last run; a lane-set
  // change resets per-node tracker state, a matching one is a no-op.
  std::vector<std::string> labels;
  labels.reserve(num_predictors);
  for (const auto& p : symptom_) labels.push_back(p->name());
  for (const auto& p : event_) labels.push_back(p->name());
  quality_->set_predictors(labels);
  quality_->ensure_nodes(nodes_.size());
}

void FleetController::refresh_quality_gauges() {
  if (quality_ == nullptr) return;
  quality_->refresh_gauges();
  // Eq. 2 measured interval availability over the whole fleet (current
  // systems plus the retired incarnations of restarted slots).
  core::SystemStats sys = retired_system_stats_;
  for (const auto& node : nodes_) sys += node->system_stats();
  const double measured = sys.availability();
  // Eq. 8 model availability, driven by the live windowed quality of the
  // combined lane — the self-assessed counterpart of `measured`: the
  // default CTMC parameters take the windowed (precision, recall, fpr),
  // clamped off the degenerate boundaries.
  const std::size_t lane = quality_->combined_lane();
  auto model_of = [&](const obs::ConfusionCounts& counts) {
    ctmc::PfmModelParams params;
    params.quality = ctmc::clamped_quality(
        counts.precision(), counts.recall(), counts.false_positive_rate());
    return ctmc::PfmAvailabilityModel(params).availability_closed_form();
  };
  const double model = model_of(quality_->windowed(lane));
  model_availability_gauge_->set(model);
  measured_availability_gauge_->set(measured);
  availability_drift_gauge_->set(model - measured);
  if (shards_.size() > 1) {
    auto& metrics = obs_->metrics();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      metrics
          .gauge("pfm_quality_model_availability{shard=\"" +
                 std::to_string(s) + "\"}")
          .set(model_of(quality_->windowed_nodes(lane, layout_.begin(s),
                                                 layout_.size(s))));
    }
  }
}

void FleetController::run_until(double t) {
  // This thread is the controller between the parallel epoch sections:
  // membership barriers touch shard-owned node state and the layout.
  RoleGuard controller_guard(controller_);
  ensure_observers_ready();
  const double interval = config_.mea.evaluation_interval;
  const std::size_t num_predictors = symptom_.size() + event_.size();
  for (auto& shard : shards_) {
    // Predictors may have been registered since the last run.
    shard->resize_predictors(num_predictors);
    // Each shard records breaker incidents into its own flight lane bank
    // (per-shard breakers trip independently).
    shard->set_quality(quality_.get(), flight_,
                       shard->shard_index() * num_predictors);
    shard->activate(t);
  }
  for (;;) {
    // Membership barrier on the epoch grid: before the k-th epoch the
    // clock reads epoch_end_tick_ (= k * epoch_ticks) intervals. Every
    // shard's calendar cursor sits on this shared tick here, which is
    // what makes the reshard handoff's calendar rebuild exact.
    if (member_active_) {
      membership_barrier(
          static_cast<double>(epoch_end_tick_) * interval, t);
    }
    const bool all_idle =
        std::all_of(shards_.begin(), shards_.end(),
                    [](const auto& shard) { return shard->idle(); });
    if (all_idle) {
      if (!member_active_ || !membership_pending(t)) break;
      // Idle epoch while churn is still due: advance only the membership
      // clock (no work ran, so the epochs counter — a count of
      // synchronization points that did work — stays put).
      epoch_end_tick_ += config_.epoch_ticks;
      continue;
    }
    // One cross-shard epoch: every shard drains its calendar up to the
    // shared barrier tick. All state a shard touches is shard-local, so
    // the pool handshake is the only synchronization. Shards absorb
    // component faults internally and never throw.
    inst_.epochs_total->inc();
    epoch_end_tick_ += config_.epoch_ticks;
    const std::uint64_t end_tick = epoch_end_tick_;
    if (shards_.size() == 1) {
      shards_[0]->run_epoch(end_tick, t);  // its stage loops use the pool
    } else {
      pool_.parallel_for(shards_.size(), [&](std::size_t s) {
        shards_[s]->run_epoch(end_tick, t);
      });
    }
  }

  // Scrape-facing level gauges, refreshed when the loop settles (gauges
  // are controller-thread instruments).
  std::size_t quarantined = 0;
  std::size_t open = 0;
  for (const auto& shard : shards_) {
    quarantined += shard->quarantined_nodes();
    open += shard->open_breakers();
  }
  quarantined_gauge_->set(static_cast<double>(quarantined));
  breakers_open_gauge_->set(static_cast<double>(open));
  scratch_bytes_gauge_->set(static_cast<double>(scratch_capacity_bytes()));
  refresh_quality_gauges();
}

bool FleetController::membership_pending(double t) const {
  return next_member_change_ < member_timeline_.size() &&
         member_timeline_[next_member_change_].at_time <= t;
}

void FleetController::membership_barrier(double member_now, double t) {
  // Planned churn first (the declared scenario), then the closed loop's
  // own decisions, then — if the structure changed — one reshard with
  // warm handoff and a reactivation pass that schedules fresh slots.
  while (next_member_change_ < member_timeline_.size()) {
    const auto& change = member_timeline_[next_member_change_];
    if (change.at_time > member_now || change.at_time > t) break;
    apply_member_change(change, member_now);
    ++next_member_change_;
  }
  evaluate_policy(member_now);
  if (layout_dirty_) {
    reshard(member_now);
    for (auto& shard : shards_) shard->activate(t);
    layout_dirty_ = false;
  }
  nodes_gauge_->set(static_cast<double>(live_nodes_));
}

void FleetController::apply_member_change(
    const membership::MemberChange& change, double member_now) {
  using membership::ChurnKind;
  if (change.kind == ChurnKind::kJoin) {
    member_join(member_now, /*policy_driven=*/false);
    return;
  }
  if (change.node >= nodes_.size()) {
    throw std::out_of_range("MembershipPlan: change targets unknown node " +
                            std::to_string(change.node));
  }
  if (change.node >= layout_.num_nodes) {
    // The target joined earlier in this same barrier; give it a shard
    // slot before touching its state.
    reshard(member_now);
  }
  switch (change.kind) {
    case ChurnKind::kLeave:
      member_depart(change.node, member_now, /*drain=*/false, 0);
      break;
    case ChurnKind::kDrain:
      member_depart(change.node, member_now, /*drain=*/true, 1);
      break;
    case ChurnKind::kRestart:
      member_restart(change.node, member_now);
      break;
    case ChurnKind::kJoin:
      break;  // handled above
  }
}

std::size_t FleetController::member_join(double at_time, bool policy_driven) {
  const std::size_t slot = nodes_.size();
  membership::JoinContext ctx;
  ctx.node = slot;
  ctx.incarnation = 0;
  ctx.at_time = at_time;
  ctx.seed =
      membership::derive_member_seed(config_.membership.plan.seed, slot, 0);
  ctx.policy_driven = policy_driven;
  auto node = config_.membership.factory(ctx);
  if (!node) {
    throw std::invalid_argument(
        "FleetController: membership factory returned a null node");
  }
  nodes_.push_back(std::move(node));
  engines_.emplace_back();
  auto& engine = engines_.back();
  for (const auto& f : action_factories_) engine.add_action(f());
  engine.set_observability(obs_, obs::node_track(slot));
  if (quality_ != nullptr) quality_->ensure_nodes(slot + 1);
  if (flight_ != nullptr) {
    flight_->ensure_nodes(slot + 1);
    engine.set_flight(flight_, slot);
    flight_->record_node(
        slot, obs::FlightEvent{at_time, obs::FlightEventKind::kMemberJoin, 0,
                               policy_driven ? 1 : 0, 0.0});
  }
  stats_.emplace_back();
  incarnations_.push_back(0);
  ++live_nodes_;
  layout_dirty_ = true;
  member_joined_total_->inc();
  obs::record_instant(obs_->tracer(), obs::SpanKind::kMemberJoin,
                      obs::node_track(slot), at_time, 0,
                      policy_driven ? 1 : 0);
  return slot;
}

void FleetController::member_depart(std::size_t i, double at_time, bool drain,
                                    std::int64_t leave_arg) {
  FleetNodeState& state = member_state(i);
  if (state.departed) {
    throw std::invalid_argument("FleetController: node " + std::to_string(i) +
                                " already departed");
  }
  if (drain) {
    member_drains_total_->inc();
    // Graceful removal: let the system persist state first — unless it
    // is quarantined (crashed/hung systems get no goodbye call).
    if (!state.quarantined && !nodes_[i]->finished()) {
      try {
        nodes_[i]->prepare_for_drain();
      } catch (...) {  // pfm-lint: allow(concurrency) — barrier-time
                       // capture; the node is leaving either way, a
                       // failing goodbye only counts as a node fault
        inst_.node_faults_total->inc();
      }
    }
  }
  state.departed = true;
  state.depart_time = at_time;
  --live_nodes_;
  member_left_total_->inc();
  if (!shard_member_counters_.empty()) {
    shard_member_counters_[layout_.shard_of(i)].left->inc();
  }
  obs::record_instant(obs_->tracer(), obs::SpanKind::kMemberLeave,
                      obs::node_track(i), at_time,
                      static_cast<std::uint32_t>(incarnations_[i]),
                      leave_arg);
  if (flight_ != nullptr) {
    flight_->record_node(
        i, obs::FlightEvent{at_time,
                            drain ? obs::FlightEventKind::kMemberDrain
                                  : obs::FlightEventKind::kMemberLeave,
                            static_cast<std::uint32_t>(incarnations_[i]),
                            leave_arg, 0.0});
    // A drain is a farewell worth keeping: dump the departing node's
    // recent history as its post-mortem.
    if (drain) flight_->dump_node(i, "drain", at_time);
  }
}

void FleetController::member_restart(std::size_t i, double at_time) {
  FleetNodeState& state = member_state(i);
  if (state.departed) {
    throw std::invalid_argument(
        "FleetController: restart of departed node " + std::to_string(i));
  }
  retired_system_stats_ += nodes_[i]->system_stats();
  const std::size_t incarnation = ++incarnations_[i];
  membership::JoinContext ctx;
  ctx.node = i;
  ctx.incarnation = incarnation;
  ctx.at_time = at_time;
  ctx.seed = membership::derive_member_seed(config_.membership.plan.seed, i,
                                            incarnation);
  ctx.policy_driven = false;
  auto fresh = config_.membership.factory(ctx);
  if (!fresh) {
    throw std::invalid_argument(
        "FleetController: membership factory returned a null node");
  }
  nodes_[i] = std::move(fresh);
  engines_[i] = core::ActEngine{};
  for (const auto& f : action_factories_) engines_[i].add_action(f());
  engines_[i].set_observability(obs_, obs::node_track(i));
  // The fresh incarnation starts with a clean quality window (cumulative
  // tallies persist, like the retired-stats ledger) and a flight ring
  // that keeps recording across the restart boundary.
  if (quality_ != nullptr) quality_->reset_node(i);
  if (flight_ != nullptr) {
    engines_[i].set_flight(flight_, i);
    flight_->record_node(
        i, obs::FlightEvent{at_time, obs::FlightEventKind::kMemberRestart,
                            static_cast<std::uint32_t>(incarnation), 0, 0.0});
  }
  // Explicit reset semantics (churn-vs-fault composition): a crashed or
  // hung incarnation's quarantine record, stall streak and sampling/
  // backoff state die with it — the fresh incarnation starts clean and
  // dense. Only MeaStats stays cumulative, so injection decision-stream
  // ordinals keep rising and never replay.
  state = FleetNodeState{};
  const std::size_t s = layout_.shard_of(i);
  shards_[s]->node_sched_mut(i - layout_.begin(s)) = NodeSchedule{};
  // Its stale calendar entry is dropped by the barrier's reshard rebuild
  // (layout_dirty_ forces one).
  layout_dirty_ = true;
  member_left_total_->inc();
  member_joined_total_->inc();
  if (!shard_member_counters_.empty()) {
    const auto& counters = shard_member_counters_[layout_.shard_of(i)];
    counters.left->inc();
    counters.joined->inc();
  }
  obs::record_instant(obs_->tracer(), obs::SpanKind::kMemberLeave,
                      obs::node_track(i), at_time,
                      static_cast<std::uint32_t>(incarnation - 1), 2);
  obs::record_instant(obs_->tracer(), obs::SpanKind::kMemberJoin,
                      obs::node_track(i), at_time,
                      static_cast<std::uint32_t>(incarnation), 0);
}

void FleetController::evaluate_policy(double member_now) {
  const membership::ElasticityPolicy& policy = config_.membership.policy;
  if (!policy.enabled) return;
  if (policy_cooldown_left_ > 0) {
    --policy_cooldown_left_;
    return;
  }
  bool acted = false;
  // Slots joined earlier in this barrier have no scores yet; they are
  // excluded until the reshard gives them shard state.
  const std::size_t limit = layout_.num_nodes;

  // Drain-and-failover: nodes whose failure probability crossed the
  // drain threshold leave gracefully; a fresh replacement joins at once.
  if (policy.drain_score >= 0.0) {
    for (std::size_t i = 0; i < limit; ++i) {
      const FleetNodeState& state = member_state(i);
      if (state.quarantined || state.departed) continue;
      const double score = member_score(i);
      if (score < policy.drain_score) continue;
      obs::record_instant(obs_->tracer(), obs::SpanKind::kDrainNode,
                          obs::node_track(i), member_now, 0,
                          static_cast<std::int64_t>(score * 1e6));
      member_depart(i, member_now, /*drain=*/true, 1);
      if (policy.failover_replace && policy_joins_ < policy.max_policy_joins) {
        ++policy_joins_;
        member_join(member_now, /*policy_driven=*/true);
      }
      acted = true;
    }
  }

  // Preventive scale-up: the Eq. 8 machinery as a capacity actuator —
  // when the fleet's summed failure-probability mass crosses the
  // threshold, add headroom before the failures land.
  if (policy.scale_up_mass >= 0.0 && policy_joins_ < policy.max_policy_joins) {
    double mass = 0.0;
    for (const auto& shard : shards_) mass += shard->score_mass();
    if (mass >= policy.scale_up_mass) {
      const std::size_t count = std::min(
          policy.scale_up_nodes, policy.max_policy_joins - policy_joins_);
      member_scale_ups_total_->inc();
      obs::record_instant(obs_->tracer(), obs::SpanKind::kScaleUp,
                          obs::kFleetTrack, member_now,
                          static_cast<std::uint32_t>(count),
                          static_cast<std::int64_t>(mass * 1e6));
      for (std::size_t k = 0; k < count; ++k) {
        ++policy_joins_;
        member_join(member_now, /*policy_driven=*/true);
      }
      acted = true;
    }
  }
  if (acted) policy_cooldown_left_ = policy.cooldown_epochs;
}

void FleetController::reshard(double member_now) {
  const core::ShardLayout old_layout = layout_;
  const core::ShardLayout new_layout(nodes_.size(), config_.num_shards);
  // Export every slot's shard-owned state while all calendar cursors sit
  // on the shared barrier tick (run_epoch leaves each cursor at the
  // epoch end, so pending due ticks are all >= every shard's cursor).
  std::vector<NodeHandoff> handoff(old_layout.num_nodes);
  for (std::size_t i = 0; i < old_layout.num_nodes; ++i) {
    const std::size_t s = old_layout.shard_of(i);
    handoff[i] = shards_[s]->export_node(i - old_layout.begin(s));
  }
  auto& metrics = obs_->metrics();
  const bool multi = config_.num_shards > 1;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->reshape(new_layout.begin(s), new_layout.size(s));
    if (multi) {
      metrics.gauge("pfm_shard_nodes{shard=\"" + std::to_string(s) + "\"}")
          .set(static_cast<double>(new_layout.size(s)));
    }
  }
  obs::TraceRecorder* tracer = obs_->tracer();
  for (std::size_t i = 0; i < old_layout.num_nodes; ++i) {
    const std::size_t s = new_layout.shard_of(i);
    shards_[s]->import_node(i - new_layout.begin(s), handoff[i]);
    if (s != old_layout.shard_of(i) && !handoff[i].state.departed) {
      member_handoffs_total_->inc();
      if (!shard_member_counters_.empty()) {
        shard_member_counters_[s].handoffs->inc();
      }
      obs::record_instant(tracer, obs::SpanKind::kMemberHandoff,
                          obs::node_track(i), member_now, 0,
                          static_cast<std::int64_t>(s));
    }
  }
  // Joined slots enter their shard with fresh state; the barrier's
  // activate() pass schedules them at the shared cursor.
  for (std::size_t i = old_layout.num_nodes; i < new_layout.num_nodes; ++i) {
    if (!shard_member_counters_.empty()) {
      shard_member_counters_[new_layout.shard_of(i)].joined->inc();
    }
  }
  layout_ = new_layout;
}

const FleetNodeState& FleetController::node_state(std::size_t i) const {
  const std::size_t s = layout_.shard_of(i);
  return shards_[s]->node_state(i - layout_.begin(s));
}

FleetNodeState& FleetController::member_state(std::size_t i) {
  const std::size_t s = layout_.shard_of(i);
  return shards_[s]->node_state_mut(i - layout_.begin(s));
}

double FleetController::member_score(std::size_t i) const {
  const std::size_t s = layout_.shard_of(i);
  return shards_[s]->node_sched(i - layout_.begin(s)).last_score;
}

bool FleetController::node_departed(std::size_t i) const {
  return node_state(i).departed;
}

std::size_t FleetController::node_incarnation(std::size_t i) const {
  if (i >= nodes_.size()) {
    throw std::out_of_range("FleetController: bad node index");
  }
  return i < incarnations_.size() ? incarnations_[i] : 0;
}

bool FleetController::node_quarantined(std::size_t i) const {
  return node_state(i).quarantined;
}

const std::string& FleetController::node_quarantine_reason(
    std::size_t i) const {
  return node_state(i).reason;
}

bool FleetController::predictor_tripped(std::size_t p) const {
  for (const auto& shard : shards_) {
    if (shard->breaker_open(p)) return true;
  }
  return false;
}

std::size_t FleetController::scratch_capacity_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->scratch_capacity_bytes();
  return total;
}

std::size_t FleetController::scratch_grow_events() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->scratch_grow_events();
  return total;
}

FleetTelemetry FleetController::telemetry() const {
  FleetTelemetry out;
  out.nodes = live_nodes_;
  // Counter-valued fields are views over the metrics registry — the same
  // numbers a Prometheus scrape of the hub reports.
  out.rounds = inst_.rounds_total->value();
  out.epochs = inst_.epochs_total->value();
  out.node_steps = inst_.node_steps_total->value();
  out.scores_computed = inst_.scores_total->value();
  out.warnings_raised = inst_.warnings_total->value();
  out.latency.monitor_seconds = inst_.monitor_latency->sum();
  out.latency.evaluate_seconds = inst_.evaluate_latency->sum();
  out.latency.act_seconds = inst_.act_latency->sum();
  out.resilience.node_faults = inst_.node_faults_total->value();
  out.resilience.stall_detections = inst_.stall_detections_total->value();
  out.resilience.predictor_faults = inst_.predictor_faults_total->value();
  out.resilience.breaker_trips = inst_.breaker_trips_total->value();
  out.resilience.scores_sanitized = inst_.scores_sanitized_total->value();
  // Level counts live in the shard banks.
  for (const auto& shard : shards_) {
    out.resilience.nodes_quarantined += shard->quarantined_nodes();
    out.resilience.breakers_open += shard->open_breakers();
  }
  if (member_joined_total_ != nullptr) {
    out.membership.nodes_joined = member_joined_total_->value();
    out.membership.nodes_left = member_left_total_->value();
    out.membership.handoffs = member_handoffs_total_->value();
    out.membership.scale_ups = member_scale_ups_total_->value();
    out.membership.drains = member_drains_total_->value();
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    out.mea += stats_[i];
    out.system += nodes_[i]->system_stats();
  }
  // Restarted slots: their previous incarnations' work is accumulated
  // here so fleet totals never go backwards across a restart.
  out.system += retired_system_stats_;
  return out;
}

}  // namespace pfm::runtime
