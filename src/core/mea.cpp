#include "core/mea.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pfm::core {

void ActEngine::add_action(std::unique_ptr<act::Action> action) {
  if (!action) throw std::invalid_argument("ActEngine: null action");
  actions_.push_back(std::move(action));
}

void ActEngine::set_observability(obs::Observability* hub,
                                  std::uint32_t track) {
  track_ = track;
  if (hub == nullptr) {
    tracer_ = nullptr;
    executed_total_ = nullptr;
    faults_total_ = nullptr;
    retries_total_ = nullptr;
    abandoned_total_ = nullptr;
    return;
  }
  tracer_ = hub->tracer();
  auto& metrics = hub->metrics();
  executed_total_ = &metrics.counter("pfm_actions_executed_total");
  faults_total_ = &metrics.counter("pfm_action_faults_total");
  retries_total_ = &metrics.counter("pfm_action_retries_total");
  abandoned_total_ = &metrics.counter("pfm_actions_abandoned_total");
}

void ActEngine::set_flight(obs::FlightRecorder* flight, std::size_t node) {
  flight_ = flight;
  flight_node_ = node;
}

bool ActEngine::try_execute(act::Action& action, ManagedSystem& system,
                            double score, MeaStats& stats) {
  const std::size_t k = static_cast<std::size_t>(action.kind());
  for (std::size_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (attempt > 0) {
      ++stats.action_retries;
      if (retries_total_ != nullptr) retries_total_->inc();
      obs::record_instant(tracer_, obs::SpanKind::kActionRetry, track_,
                          system.now(), static_cast<std::uint32_t>(attempt),
                          static_cast<std::int64_t>(k));
      if (flight_ != nullptr) {
        flight_->record_node(
            flight_node_,
            obs::FlightEvent{system.now(), obs::FlightEventKind::kActionRetry,
                             static_cast<std::uint32_t>(attempt),
                             static_cast<std::int64_t>(k), score});
      }
    }
    try {
      obs::ScopedSpan span(tracer_, obs::SpanKind::kActionExecute, track_,
                           system.now(), static_cast<std::uint32_t>(attempt),
                           static_cast<std::int64_t>(k));
      action.execute(system, score);
      span.set_sim_end(system.now());
      abandoned_streak_[k] = 0;
      backoff_until_[k] = -1e18;
      if (executed_total_ != nullptr) executed_total_->inc();
      if (flight_ != nullptr) {
        flight_->record_node(
            flight_node_,
            obs::FlightEvent{system.now(), obs::FlightEventKind::kAction,
                             static_cast<std::uint32_t>(attempt),
                             static_cast<std::int64_t>(k), score});
      }
      return true;
    } catch (const std::exception&) {
      ++stats.action_faults;
      if (faults_total_ != nullptr) faults_total_->inc();
    }
  }
  // All attempts failed: back the kind off exponentially in simulated
  // time, doubling per consecutive abandoned execution.
  ++stats.actions_abandoned;
  if (abandoned_total_ != nullptr) abandoned_total_->inc();
  if (flight_ != nullptr) {
    flight_->record_node(
        flight_node_,
        obs::FlightEvent{system.now(), obs::FlightEventKind::kActionAbandoned,
                         0, static_cast<std::int64_t>(k), score});
  }
  const double backoff =
      std::min(kBackoffInitial *
                   std::exp2(static_cast<double>(abandoned_streak_[k])),
               kBackoffMax);
  ++abandoned_streak_[k];
  backoff_until_[k] = system.now() + backoff;
  return false;
}

void ActEngine::act(ManagedSystem& system, double score,
                    const MeaConfig& config, MeaStats& stats) {
  const double now = system.now();
  auto cooled_down = [&](act::ActionKind kind) {
    const std::size_t k = static_cast<std::size_t>(kind);
    return now - last_action_time_[k] >= config.action_cooldown &&
           now >= backoff_until_[k];
  };
  auto record = [&](act::ActionKind kind) {
    last_action_time_[static_cast<std::size_t>(kind)] = now;
    ++stats.actions_by_kind[static_cast<std::size_t>(kind)];
  };

  // Downtime minimization: preparing for an anticipated failure is cheap
  // and safe, so it accompanies every warning (Table 1: "prepare repair").
  if (config.enable_minimization) {
    for (const auto& a : actions_) {
      if (a->goal() != act::ActionGoal::kDowntimeMinimization) continue;
      if (!a->applicable(system) || !cooled_down(a->kind())) continue;
      if (try_execute(*a, system, score, stats)) record(a->kind());
    }
  }

  // Downtime avoidance: pick the single most effective applicable action
  // by the objective function.
  if (config.enable_avoidance) {
    act::Action* best = nullptr;
    double best_score = 0.0;
    for (const auto& a : actions_) {
      if (a->goal() != act::ActionGoal::kDowntimeAvoidance) continue;
      if (!cooled_down(a->kind())) continue;
      if (!a->applicable(system)) continue;
      const double s = act::objective_score(*a, score, selector_.weights());
      if (s > best_score) {
        best_score = s;
        best = a.get();
      }
    }
    if (best != nullptr && try_execute(*best, system, score, stats)) {
      record(best->kind());
    }
  }
}

void MeaConfig::validate() const {
  windows.validate();
  // Each condition is stated positively so that a NaN field fails it.
  if (!(std::isfinite(evaluation_interval) && evaluation_interval > 0.0)) {
    throw std::invalid_argument(
        "MeaConfig: evaluation_interval must be finite and > 0");
  }
  if (!(warning_threshold >= 0.0 && warning_threshold <= 1.0)) {
    throw std::invalid_argument(
        "MeaConfig: warning_threshold must be in [0, 1]");
  }
  if (!(std::isfinite(action_cooldown) && action_cooldown >= 0.0)) {
    throw std::invalid_argument(
        "MeaConfig: action_cooldown must be finite and >= 0");
  }
  // An empty context scores nothing: symptom predictors throw on it, and
  // a fleet node's store would retain no sample to build one from.
  if (context_samples == 0) {
    throw std::invalid_argument("MeaConfig: context_samples must be >= 1");
  }
}

MeaController::MeaController(ManagedSystem& system, MeaConfig config)
    : system_(&system), config_(std::move(config)) {
  config_.validate();
}

void MeaController::add_symptom_predictor(
    std::shared_ptr<const pred::SymptomPredictor> p) {
  if (!p) throw std::invalid_argument("MeaController: null predictor");
  symptom_.push_back(std::move(p));
}

void MeaController::add_event_predictor(
    std::shared_ptr<const pred::EventPredictor> p) {
  if (!p) throw std::invalid_argument("MeaController: null predictor");
  event_.push_back(std::move(p));
}

void MeaController::add_action(std::unique_ptr<act::Action> action) {
  engine_.add_action(std::move(action));
}

void MeaController::set_observability(obs::Observability* hub) {
  obs_ = hub;
  engine_.set_observability(hub, obs::kFleetTrack);
  if (hub == nullptr) {
    evaluations_total_ = nullptr;
    warnings_total_ = nullptr;
    return;
  }
  evaluations_total_ = &hub->metrics().counter("pfm_evaluations_total");
  warnings_total_ = &hub->metrics().counter("pfm_warnings_total");
}

double MeaController::evaluate_now(std::size_t* sanitized) const {
  double combined = 0.0;
  // A predictor may misbehave and emit NaN/inf (e.g. a numerically
  // degenerate model); a non-finite score must neither poison the max
  // reduce (+inf would warn forever) nor silently vanish — it is excluded
  // and counted.
  auto fold = [&](double score) {
    if (!std::isfinite(score)) {
      if (sanitized != nullptr) ++*sanitized;
      return;
    }
    combined = std::max(combined, score);
  };

  if (!symptom_.empty() && !system_->trace().samples().empty()) {
    auto ctx = system_->symptom_context(config_.context_samples);
    // Evaluation identity for keyed fault-injection streams: origin 0
    // (single system), ordinal = this evaluation's count.
    ctx.ordinal = stats_.evaluations;
    for (const auto& p : symptom_) fold(p->score(ctx));
  }
  if (!event_.empty()) {
    auto seq = system_->error_sequence(config_.windows.data_window);
    seq.ordinal = stats_.evaluations;
    for (const auto& p : event_) fold(p->score(seq));
  }
  return combined;
}

void MeaController::run_until(double t) {
  obs::TraceRecorder* tracer = obs_ != nullptr ? obs_->tracer() : nullptr;
  while (!system_->finished() && system_->now() < t) {
    system_->step_to(
        std::min(system_->now() + config_.evaluation_interval, t));
    ++stats_.evaluations;
    if (evaluations_total_ != nullptr) evaluations_total_->inc();
    double score = 0.0;
    {
      obs::ScopedSpan span(tracer, obs::SpanKind::kEvaluation,
                           obs::kFleetTrack, system_->now());
      score = evaluate_now(&stats_.scores_sanitized);
      // Scores live in [0,1]; micro-units keep the span payload integral.
      span.set_arg(static_cast<std::int64_t>(score * 1e6));
    }
    if (score >= config_.warning_threshold) {
      ++stats_.warnings;
      if (warnings_total_ != nullptr) warnings_total_->inc();
      obs::record_instant(tracer, obs::SpanKind::kWarning, obs::kFleetTrack,
                          system_->now(), 0,
                          static_cast<std::int64_t>(score * 1e6));
      engine_.act(*system_, score, config_, stats_);
    }
  }
}

void MeaController::run() { run_until(system_->horizon()); }

}  // namespace pfm::core
