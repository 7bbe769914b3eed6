#include "runtime/shard.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "obs/trace.hpp"

namespace pfm::runtime {

namespace {

using WallClock = std::chrono::steady_clock;

// The round's hardening thresholds (DESIGN.md §3 "Hardening"). A stall
// streak counts the node's own Monitor steps, a breaker its shard's ticks.
constexpr std::size_t kStallSteps = 3;        // no-progress steps -> quarantine
constexpr std::size_t kBreakerTripTicks = 3;  // faulty ticks -> breaker opens
constexpr std::size_t kBreakerOpenTicks = 8;  // ticks out before the probe
// SchedulingHint urgency that keeps an adaptive node dense (the
// ManagedSystem default, 1.0, always does).
constexpr double kHotUrgency = 0.75;

double seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

// Fault-path helpers: quarantine descriptions are built off the tick
// hot path (pfm-analyze hotpath), so the string work lives here.
// pfm-cold
std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {  // pfm-lint: allow(concurrency) — describing an already
                   // captured exception_ptr; nothing is swallowed here
    return "unknown error";
  }
}

// pfm-cold
std::string stall_reason(std::size_t streak) {
  return "stalled: no monitor progress for " + std::to_string(streak) +
         " rounds";
}

// Fleet memory follows the window (DESIGN.md §9): from now on the round
// reads at most the newest context_samples samples and the events after
// now - data_window (now only grows), so the rest of the trace's sample
// and event streams is released. The node drops it at its next append,
// after this tick's scoring has read the spans built from it.
void release_unread(const mon::MonitoringDataset& trace, double now,
                    const core::MeaConfig& mea) noexcept {
  const auto samples = trace.samples();
  const auto events = trace.events();
  const auto window = std::upper_bound(
      events.begin(), events.end(), now - mea.windows.data_window,
      [](double t, const mon::ErrorEvent& e) { return t < e.time; });
  trace.release(
      trace.sample_count() - std::min(samples.size(), mea.context_samples),
      trace.event_count() - static_cast<std::size_t>(events.end() - window));
}

}  // namespace

ShardController::ShardController(ShardEnv env, std::size_t shard_index,
                                 std::size_t base, std::size_t count,
                                 std::uint32_t stage_track)
    : env_(env),
      shard_index_(shard_index),
      base_(base),
      count_(count),
      stage_track_(stage_track),
      tracer_(env.obs->tracer()),
      // The ring must reach every schedulable gap: [1, max_gap] adaptive,
      // exactly 1 dense.
      calendar_(env.config->schedule.adaptive ? env.config->schedule.max_gap + 1
                                              : 2) {}

void ShardController::set_shard_metrics(obs::Counter* ticks,
                                        obs::Counter* node_steps) {
  shard_ticks_total_ = ticks;
  shard_node_steps_total_ = node_steps;
}

void ShardController::resize_predictors(std::size_t num_predictors) {
  breakers_.resize(num_predictors);
  columns_.resize(num_predictors);
  batch_scratch_.resize(num_predictors);
}

void ShardController::set_quality(obs::QualityTracker* quality,
                                  obs::FlightRecorder* flight,
                                  std::size_t lane_base) {
  quality_ = quality;
  flight_ = flight;
  flight_lane_base_ = lane_base;
  // Sized here (after resize_predictors) so the tick hot loop never
  // grows it.
  quality_row_.assign(breakers_.size() + 1, 0.0);
}

void ShardController::activate(double t) {
  for (std::size_t local = 0; local < count_; ++local) {
    FleetNode& n = record(local);
    auto& ns = n.sched;
    if (ns.scheduled || n.state.quarantined || n.state.departed) continue;
    const auto& node = *n.system;
    if (node.finished() || node.now() >= t) continue;
    calendar_.schedule(calendar_.cursor(), static_cast<std::uint32_t>(local));
    ns.scheduled = true;
    ns.pending_gap = 1;
    ns.prev_gap = 1;
    ns.seen_events = node.trace().event_count();
    ns.seen_failures = node.trace().failures().size();
    ns.due_tick = calendar_.cursor();
  }
}

void ShardController::reshape(std::size_t base, std::size_t count) {
  base_ = base;
  count_ = count;
  // The calendar empties but keeps its cursor: every shard's cursor sits
  // on the shared epoch-barrier tick when a reshard runs, so pending due
  // ticks (all scheduled beyond that barrier) stay inside the ring's
  // window; the max() is defensive.
  calendar_.clear();
  for (std::size_t local = 0; local < count_; ++local) {
    auto& ns = record(local).sched;
    if (!ns.scheduled) continue;
    ns.due_tick = std::max(ns.due_tick, calendar_.cursor());
    calendar_.schedule(ns.due_tick, static_cast<std::uint32_t>(local));
  }
}

double ShardController::score_mass() const noexcept {
  double mass = 0.0;
  for (std::size_t local = 0; local < count_; ++local) {
    const FleetNode& n = record(local);
    if (n.state.quarantined || n.state.departed) continue;
    mass += n.sched.last_score;
  }
  return mass;
}

// pfm-hot
void ShardController::run_epoch(std::uint64_t end_tick, double t) {
  std::uint64_t tick = 0;
  while (calendar_.pop_due(end_tick, tick, due_)) process_tick(tick, t);
}

void ShardController::run_captured(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (env_.pool != nullptr) {
    env_.pool->parallel_for_captured(n, fn, errors_);
  } else {
    for_each_captured(n, fn, errors_);
  }
}

// pfm-cold
void ShardController::quarantine_local(std::size_t local,
                                       const std::string& reason) {
  FleetNode& n = record(local);
  auto& state = n.state;
  if (state.quarantined) return;
  state.quarantined = true;
  state.reason = reason;
  state.quarantine_time = n.system->now();
  env_.inst.quarantines_total->inc();
  obs::record_instant(tracer_, obs::SpanKind::kQuarantine,
                      obs::node_track(base_ + local), state.quarantine_time);
  if (flight_ != nullptr) {
    flight_->record_node(
        base_ + local,
        obs::FlightEvent{state.quarantine_time,
                         obs::FlightEventKind::kQuarantine, 0, 0, 0.0});
    flight_->dump_node(base_ + local, "quarantine", state.quarantine_time);
  }
}

bool ShardController::node_is_hot(std::size_t local, double combined_score) {
  const FleetConfig& config = *env_.config;
  FleetNode& n = record(local);
  const auto& node = *n.system;
  auto& ns = n.sched;
  const std::uint64_t events = node.trace().event_count();
  const std::uint64_t failures = node.trace().failures().size();
  const bool delta = events != ns.seen_events || failures != ns.seen_failures;
  ns.seen_events = events;
  ns.seen_failures = failures;
  if (combined_score >=
      config.schedule.hot_score_fraction * config.mea.warning_threshold) {
    return true;
  }
  if (delta) return true;
  return node.scheduling_hint().urgency >= kHotUrgency;
}

// pfm-hot
void ShardController::process_tick(std::uint64_t tick, double t) {
  const FleetConfig& config = *env_.config;
  const double threshold = config.mea.warning_threshold;
  auto& nodes = *env_.nodes;
  const auto& symptom = *env_.symptom;
  const auto& event = *env_.event;
  const std::size_t num_predictors = symptom.size() + event.size();
  const FleetInstruments& inst = env_.inst;

  // Due set -> active list. The reschedule step keeps unrunnable nodes
  // off the calendar, so the filter is defensive only.
  active_.clear();
  for (const std::uint32_t local : due_) {
    FleetNode& n = record(local);
    n.sched.scheduled = false;
    if (n.state.quarantined || n.state.departed || n.system->finished() ||
        n.system->now() >= t) {
      continue;
    }
    active_.push_back(local);
  }
  if (active_.empty()) return;
  inst.rounds_total->inc();
  inst.node_steps_total->inc(active_.size());
  if (shard_ticks_total_ != nullptr) {
    shard_ticks_total_->inc();
    shard_node_steps_total_->inc(active_.size());
  }
  // Stage spans of one shard tick share the shard-local round ordinal as
  // their `sub`, keeping them unique (and grouped) in the deterministic
  // sort.
  const std::uint32_t round = ++local_rounds_;

  // --- Monitor: advance every due node by its pending gap. -----------------
  const auto monitor_start = WallClock::now();
  pre_step_time_.resize(active_.size());
  double round_begin = record(active_[0]).system->now();
  for (std::size_t a = 0; a < active_.size(); ++a) {
    pre_step_time_[a] = record(active_[a]).system->now();
    round_begin = std::min(round_begin, pre_step_time_[a]);
  }
  {
    obs::ScopedSpan monitor_span(tracer_, obs::SpanKind::kMonitorStage,
                                 stage_track_, round_begin, round,
                                 static_cast<std::int64_t>(active_.size()));
    run_captured(active_.size(), [this, t](std::size_t a) {
      const std::size_t local = active_[a];
      FleetNode& n = record(local);
      auto& node = *n.system;
      const double target =
          std::min(node.now() + n.sched.pending_gap *
                                    env_.config->mea.evaluation_interval,
                   t);
      obs::ScopedSpan span(tracer_, obs::SpanKind::kNodeStep,
                           obs::node_track(base_ + local), pre_step_time_[a]);
      node.step_to(target);
      span.set_sim_end(node.now());
    });
    for (std::size_t a = 0; a < active_.size(); ++a) {
      const std::size_t local = active_[a];
      FleetNode& n = record(local);
      if (errors_[a]) {
        inst.node_faults_total->inc();
        quarantine_local(local, describe(errors_[a]));
      } else if (!n.system->finished() &&
                 n.system->now() <= pre_step_time_[a]) {
        // Returned but made no time progress: a hang, not a crash.
        inst.stall_detections_total->inc();
        if (++n.state.stall_streak >= kStallSteps) {
          quarantine_local(local, stall_reason(n.state.stall_streak));
        }
      } else {
        n.state.stall_streak = 0;
      }
    }
    // Nodes quarantined this tick drop out of Evaluate/Act.
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [this](std::size_t local) {
                                   return record(local).state.quarantined;
                                 }),
                  active_.end());
    double round_end = round_begin;
    for (const std::size_t local : active_) {
      round_end = std::max(round_end, record(local).system->now());
    }
    monitor_span.set_sim_end(round_end);
  }
  inst.monitor_latency->observe(seconds_since(monitor_start));
  if (active_.empty()) return;

  // Quality: each surviving node's clock just advanced, so pending
  // evaluation instants whose prediction window closed are resolved
  // against the node's ground-truth failure log (per-node clocks keep
  // this shard-count invariant).
  if (quality_ != nullptr) {
    for (const std::size_t local : active_) {
      const auto& node = *record(local).system;
      quality_->resolve(base_ + local, node.now(), node.trace().failures());
    }
  }

  // --- Evaluate: batch-score this tick's due set. ---------------------------
  const auto evaluate_start = WallClock::now();
  // Scoring and acting happen "at" the tick's post-Monitor instant; a
  // deterministic reduction over node clocks, so span timestamps stay
  // thread-count invariant.
  double eval_time = record(active_[0]).system->now();
  for (const std::size_t local : active_) {
    eval_time = std::max(eval_time, record(local).system->now());
  }
  {
    obs::ScopedSpan evaluate_span(tracer_, obs::SpanKind::kEvaluateStage,
                                  stage_track_, eval_time, round,
                                  static_cast<std::int64_t>(active_.size()));
    contexts_.clear();
    context_owner_.clear();
    sequences_.clear();
    for (std::size_t a = 0; a < active_.size(); ++a) {
      const std::size_t i = base_ + active_[a];
      FleetNode& n = nodes[i];
      auto& node = *n.system;
      auto& st = n.stats;
      ++st.evaluations;
      if (!symptom.empty() && !node.trace().samples().empty()) {
        contexts_.push_back(node.symptom_context(config.mea.context_samples));
        contexts_.back().origin = i;
        contexts_.back().ordinal = st.evaluations;
        context_owner_.push_back(a);
      }
      if (!event.empty()) {
        sequences_.push_back(
            node.error_sequence(config.mea.windows.data_window));
        sequences_.back().origin = i;
        sequences_.back().ordinal = st.evaluations;
      }
      release_unread(node.trace(), node.now(), config.mea);
    }
    if (!symptom.empty()) {
      inst.batch_size_hist->observe(static_cast<double>(contexts_.size()));
    }
    if (!event.empty()) {
      inst.batch_size_hist->observe(static_cast<double>(sequences_.size()));
    }

    // Breaker scheduling: open breakers sit out their cooldown, then get
    // one half-open probe tick; closed (and probing) predictors score.
    live_.clear();
    for (std::size_t p = 0; p < num_predictors; ++p) {
      if (breakers_[p].open && breakers_[p].open_rounds_left > 0) {
        --breakers_[p].open_rounds_left;
        continue;
      }
      live_.push_back(p);
    }

    run_captured(live_.size(), [this, eval_time](std::size_t lp) {
      const std::size_t p = live_[lp];
      const auto& symptom_predictors = *env_.symptom;
      auto& column = columns_[p];
      obs::ScopedSpan span(tracer_, obs::SpanKind::kScoreBatch,
                           obs::predictor_track(p), eval_time);
      if (p < symptom_predictors.size()) {
        column.resize(contexts_.size());
        symptom_predictors[p]->score_batch(contexts_, column,
                                           batch_scratch_[p]);
      } else {
        column.resize(sequences_.size());
        (*env_.event)[p - symptom_predictors.size()]->score_batch(
            sequences_, column, batch_scratch_[p]);
      }
      span.set_arg(static_cast<std::int64_t>(column.size()));
    });

    // Per-predictor outcome: a throw or any non-finite score is a faulty
    // tick feeding this shard's breaker; a clean tick closes/heals it.
    combined_.assign(active_.size(), 0.0);
    for (std::size_t lp = 0; lp < live_.size(); ++lp) {
      const std::size_t p = live_[lp];
      const bool threw = errors_[lp] != nullptr;
      bool faulty = threw;
      if (!threw) {
        const auto& column = columns_[p];
        const std::size_t n = column.size();
        inst.scores_total->inc(n);
        const bool by_context = p < symptom.size();
        for (std::size_t c = 0; c < n; ++c) {
          const double v = column[c];
          if (!std::isfinite(v)) {
            inst.scores_sanitized_total->inc();
            faulty = true;
            continue;
          }
          double& slot = combined_[by_context ? context_owner_[c] : c];
          slot = std::max(slot, v);
        }
      }
      auto& breaker = breakers_[p];
      if (faulty) {
        inst.predictor_faults_total->inc();
        bool tripped = false;
        if (breaker.open) {
          // Half-open probe failed: back to a full cooldown.
          breaker.open_rounds_left = kBreakerOpenTicks;
          tripped = true;
        } else if (++breaker.failure_streak >= kBreakerTripTicks) {
          breaker.open = true;
          breaker.open_rounds_left = kBreakerOpenTicks;
          tripped = true;
        }
        if (tripped) {
          inst.breaker_trips_total->inc();
          obs::record_instant(tracer_, obs::SpanKind::kBreakerTrip,
                              obs::predictor_track(p), eval_time, round);
        }
        if (tripped && flight_ != nullptr) {
          // A trip is an incident: the shard's lane ring (ending in the
          // trip itself) becomes a post-mortem.
          flight_->record_lane(
              flight_lane_base_ + p,
              obs::FlightEvent{eval_time, obs::FlightEventKind::kBreakerTrip,
                               round,
                               static_cast<std::int64_t>(
                                   breaker.failure_streak),
                               0.0});
          flight_->dump_lane(flight_lane_base_ + p, "breaker", eval_time);
        }
      } else {
        if (breaker.open) {
          obs::record_instant(tracer_, obs::SpanKind::kBreakerClose,
                              obs::predictor_track(p), eval_time, round);
          if (flight_ != nullptr) {
            flight_->record_lane(
                flight_lane_base_ + p,
                obs::FlightEvent{eval_time,
                                 obs::FlightEventKind::kBreakerClose, round,
                                 0, 0.0});
          }
        }
        breaker.open = false;
        breaker.failure_streak = 0;
      }
    }
    if (flight_ != nullptr) {
      for (std::size_t a = 0; a < active_.size(); ++a) {
        const std::size_t i = base_ + active_[a];
        flight_->record_node(
            i, obs::FlightEvent{nodes[i].system->now(),
                                obs::FlightEventKind::kScore, 0, 0,
                                combined_[a]});
      }
    }
    // Quality: record this tick's evaluation instants (per-predictor
    // lanes NaN when the predictor sat out; the combined lane carries
    // the thresholded max-reduce).
    if (quality_ != nullptr) {
      const double nan = std::numeric_limits<double>::quiet_NaN();
      scored_.assign(num_predictors, 0);
      for (std::size_t lp = 0; lp < live_.size(); ++lp) {
        if (errors_[lp] == nullptr) scored_[live_[lp]] = 1;
      }
      ctx_of_active_.assign(active_.size(), -1);
      for (std::size_t c = 0; c < context_owner_.size(); ++c) {
        ctx_of_active_[context_owner_[c]] = static_cast<std::ptrdiff_t>(c);
      }
      for (std::size_t a = 0; a < active_.size(); ++a) {
        const std::size_t i = base_ + active_[a];
        for (std::size_t p = 0; p < num_predictors; ++p) {
          double v = nan;
          if (scored_[p] != 0) {
            if (p < symptom.size()) {
              const std::ptrdiff_t c = ctx_of_active_[a];
              if (c >= 0) v = columns_[p][static_cast<std::size_t>(c)];
            } else {
              v = columns_[p][a];
            }
            if (!std::isfinite(v)) v = nan;
          }
          quality_row_[p] = v;
        }
        quality_row_[num_predictors] = combined_[a];
        quality_->observe(i, nodes[i].system->now(), quality_row_.data());
      }
    }
  }  // evaluate_span
  inst.evaluate_latency->observe(seconds_since(evaluate_start));
  // Footprint accounting; the owning controller reads the per-shard
  // totals after the run (the scratch gauge is a controller-thread
  // instrument).
  const std::size_t bytes = scratch_capacity_bytes();
  if (bytes > scratch_bytes_seen_) {
    ++scratch_grow_events_;
    scratch_bytes_seen_ = bytes;
  }

  // --- Act: warned nodes run their own countermeasure engines. --------------
  const auto act_start = WallClock::now();
  {
    obs::ScopedSpan act_span(tracer_, obs::SpanKind::kActStage, stage_track_,
                             eval_time, round);
    std::int64_t warned = 0;
    for (std::size_t a = 0; a < active_.size(); ++a) {
      if (combined_[a] < threshold) continue;
      ++warned;
      inst.warnings_total->inc();
      const std::size_t i = base_ + active_[a];
      const double now = nodes[i].system->now();
      obs::record_instant(tracer_, obs::SpanKind::kWarning, obs::node_track(i),
                          now, 0,
                          static_cast<std::int64_t>(combined_[a] * 1e6));
      if (flight_ != nullptr) {
        flight_->record_node(
            i, obs::FlightEvent{now, obs::FlightEventKind::kWarning, 0,
                                static_cast<std::int64_t>(combined_[a] * 1e6),
                                combined_[a]});
      }
    }
    act_span.set_arg(warned);
    run_captured(active_.size(), [this](std::size_t a) {
      if (combined_[a] < env_.config->mea.warning_threshold) return;
      FleetNode& n = record(active_[a]);
      ++n.stats.warnings;
      n.engine.act(*n.system, combined_[a], env_.config->mea, n.stats);
    });
    for (std::size_t a = 0; a < active_.size(); ++a) {
      if (!errors_[a]) continue;
      inst.node_faults_total->inc();
      quarantine_local(active_[a], describe(errors_[a]));
    }
  }
  inst.act_latency->observe(seconds_since(act_start));

  // --- Reschedule survivors per the adaptive policy. ------------------------
  const SchedulePolicy& policy = config.schedule;
  for (std::size_t a = 0; a < active_.size(); ++a) {
    const std::size_t local = active_[a];
    FleetNode& n = record(local);
    n.sched.last_score = combined_[a];
    if (n.state.quarantined) continue;
    if (n.system->finished() || n.system->now() >= t) continue;
    auto& ns = n.sched;
    const bool hot = !policy.adaptive || node_is_hot(local, combined_[a]);
    const std::size_t gap = policy.next_gap(ns.prev_gap, hot);
    ns.prev_gap = static_cast<std::uint32_t>(gap);
    ns.pending_gap = static_cast<std::uint32_t>(gap);
    calendar_.schedule(tick + gap, static_cast<std::uint32_t>(local));
    ns.scheduled = true;
    ns.due_tick = tick + gap;
  }
}

std::size_t ShardController::open_breakers() const noexcept {
  std::size_t open = 0;
  for (const auto& breaker : breakers_) {
    if (breaker.open) ++open;
  }
  return open;
}

std::size_t ShardController::scratch_capacity_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& s : batch_scratch_) total += s.capacity_bytes();
  return total;
}

}  // namespace pfm::runtime
