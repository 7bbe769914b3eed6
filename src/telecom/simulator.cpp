#include "telecom/simulator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace pfm::telecom {

namespace {

/// Standard normal upper tail probability.
double normal_tail(double z) noexcept { return 0.5 * std::erfc(z / M_SQRT2); }

}  // namespace

std::string to_string(FailureCause cause) {
  switch (cause) {
    case FailureCause::kMemoryLeak:
      return "memory-leak";
    case FailureCause::kCascade:
      return "error-cascade";
    case FailureCause::kOverload:
      return "overload";
    case FailureCause::kOther:
      return "other";
  }
  return "unknown";
}

mon::SymptomSchema ScpSimulator::make_schema() {
  return mon::SymptomSchema({
      "arrival_rate",      // offered load, requests/s
      "util_mean",         // mean node utilization
      "util_max",          // worst node utilization
      "free_mem_min_mb",   // worst node free memory
      "free_mem_mean_mb",  // mean free memory
      "mem_pressure_max",  // worst node used-memory fraction
      "resp_p95_ms",       // modeled 95th percentile response time
      "error_rate",        // error log events per second
      "sem_ops_rate",      // semaphore operations per second
      "cpu_user",          // user-mode CPU fraction
      "net_tx_mbps",       // network transmit rate
      "disk_io_iops",      // distractor: unrelated disk activity
      "paging_rate",       // page-out rate, rises under memory pressure
      "ambient_temp",      // distractor: machine-room temperature
      "thread_count",      // worker threads; runaway components spawn more
  });
}

ScpSimulator::ScpSimulator(SimConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      workload_(config_, rng_),
      trace_(make_schema()),
      window_end_(config_.availability_window),
      next_periodic_checkpoint_(config_.checkpoint_interval) {
  config_.validate();
  nodes_.reserve(config_.num_nodes);
  for (std::size_t i = 0; i < config_.num_nodes; ++i) {
    nodes_.emplace_back(config_, static_cast<std::int32_t>(i), 0.0, rng_);
  }
  last_util_.assign(config_.num_nodes, 0.0);
  last_degradation_.assign(config_.num_nodes, 1.0);

  // The mean response at which the limit sits z sigmas above mu (see
  // violation_probability); a smaller mean means a larger z.
  const double sigma = config_.response_sigma;
  auto mean_at = [&](double z) {
    return config_.response_limit_ms *
           std::exp(0.5 * sigma * sigma - z * sigma);
  };
  const double floor_ms = mean_at(kFloorZ);
  const double quiet_ms = mean_at(kQuietZ);
  if (violation_probability(quiet_ms) <= 0.5 * kQuietP &&
      violation_probability(floor_ms) > 0.0) {
    floor_ms_ = floor_ms;
    quiet_ms_ = quiet_ms;
  }
}

double ScpSimulator::queue_multiplier(double utilization) const noexcept {
  const double u = std::min(utilization, 0.98);
  return 1.0 + 0.5 * u * u / (1.0 - u);
}

double ScpSimulator::violation_probability(double mean_ms) const noexcept {
  // Response time ~ LogNormal(mu, sigma) with E[RT] = mean_ms:
  // mu = ln(mean) - sigma^2/2; P(RT > L) = Phi_c((ln L - mu)/sigma).
  const double sigma = config_.response_sigma;
  const double z =
      (std::log(config_.response_limit_ms / mean_ms) + 0.5 * sigma * sigma) /
      sigma;
  return normal_tail(z);
}

void ScpSimulator::step_to(double t) {
  const double target = std::min(t, config_.duration);
  while (now_ < target) {
    tick(now_);
    now_ += config_.tick;
    stats_.simulated = now_;
  }
}

void ScpSimulator::tick(double t) {
  const double dt = config_.tick;
  std::vector<mon::ErrorEvent>& events = tick_events_;
  events.clear();

  // Periodic checkpointing (classical, prediction-independent).
  if (t >= next_periodic_checkpoint_) {
    last_checkpoint_ = t;
    next_periodic_checkpoint_ += config_.checkpoint_interval;
  }

  const bool down = t < service_down_until_;
  if (down) stats_.downtime += dt;

  const auto arrivals = workload_.arrivals(t, dt);
  stats_.shed_requests = workload_.shed_count();
  std::int64_t total_arrivals = 0;
  for (auto a : arrivals) total_arrivals += a;

  // Traffic only reaches nodes while the service is up.
  std::vector<std::size_t>& alive = tick_alive_;
  alive.clear();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].available(t)) alive.push_back(i);
  }

  if (!down) {
    stats_.total_requests += total_arrivals;
    window_requests_ += total_arrivals;
  }

  if (!down && alive.empty()) {
    // All replicas restarting at once: every request violates.
    window_violations_ += total_arrivals;
    stats_.violations += total_arrivals;
  }

  // Utilization follows the fluid (mean) offered rate: queueing delay
  // reflects sustained load, not single-tick Poisson noise.
  const double per_node_rate =
      alive.empty() ? 0.0
                    : workload_.mean_rate(t) /
                          static_cast<double>(alive.size());

  // Healthy nodes share one modeled mean response per class (same offered
  // load, degradation 1.0), so the pure violation_probability is memoized
  // on the exact mean within the tick: an identical input reuses the
  // identical result, anything else recomputes — bit-for-bit unchanged.
  // Inside the quiet band it is computed only when the draw needs it.
  std::array<double, kNumRequestClasses> memo_mean;
  std::array<double, kNumRequestClasses> memo_p{};
  memo_mean.fill(std::numeric_limits<double>::quiet_NaN());

  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const bool serving = !down && nodes_[i].available(t) && !alive.empty();
    const double util = serving ? per_node_rate / config_.node_capacity : 0.0;
    const double degradation = nodes_[i].advance(t, dt, util, events);
    last_util_[i] = util;
    last_degradation_[i] = degradation;

    if (!serving) continue;
    const double qmult = queue_multiplier(util);
    for (std::size_t c = 0; c < kNumRequestClasses; ++c) {
      // This node's share of the class arrivals.
      const double share = static_cast<double>(arrivals[c]) /
                           static_cast<double>(alive.size());
      if (share <= 0.0) continue;
      const double mean_ms =
          config_.base_response_ms[c] * qmult * degradation;
      auto p_of = [&] {
        if (mean_ms != memo_mean[c]) {
          memo_mean[c] = mean_ms;
          memo_p[c] = violation_probability(mean_ms);
        }
        return memo_p[c];
      };
      std::int64_t v;
      if (mean_ms >= floor_ms_ && mean_ms <= quiet_ms_) {
        v = rng_.poisson_below(share * kQuietP, [&] { return share * p_of(); });
      } else {
        const double p = p_of();
        if (p <= 0.0) continue;
        v = rng_.poisson(share * p);
      }
      v = std::min<std::int64_t>(v, static_cast<std::int64_t>(share) + 1);
      window_violations_ += v;
      stats_.violations += v;
    }
  }

  // Error events into the trace, sorted by time within the tick.
  std::sort(events.begin(), events.end(),
            [](const mon::ErrorEvent& a, const mon::ErrorEvent& b) {
              return a.time < b.time;
            });
  for (auto& e : events) {
    e.time = std::clamp(e.time, t, t + dt);
    trace_.add_event(e);
  }

  // Symptom sampling.
  if (t >= next_sample_) {
    sample_symptoms(t);
    next_sample_ += config_.sample_interval;
  }

  // Interval-availability check (Eq. 2).
  if (t + dt >= window_end_) {
    end_window(window_end_);
    window_end_ += config_.availability_window;
  }
}

void ScpSimulator::end_window(double t) {
  if (window_requests_ > 0) {
    const double fraction = static_cast<double>(window_violations_) /
                            static_cast<double>(window_requests_);
    if (fraction > config_.max_violation_fraction) fail(t);
  }
  window_requests_ = 0;
  window_violations_ = 0;
}

void ScpSimulator::fail(double t) {
  trace_.add_failure(t);
  ++stats_.failures;

  // Identify the culprit: the most degraded node, if any is degraded;
  // otherwise the failure is workload-driven.
  std::size_t culprit = 0;
  double worst = 0.0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (last_degradation_[i] > worst) {
      worst = last_degradation_[i];
      culprit = i;
    }
  }
  FailureCause cause = FailureCause::kOther;
  if (worst > 1.5) {
    cause = nodes_[culprit].cascade_stage() >= 3 ? FailureCause::kCascade
                                                 : FailureCause::kMemoryLeak;
  } else if (*std::max_element(last_util_.begin(), last_util_.end()) > 0.8) {
    cause = FailureCause::kOverload;
  }

  const bool prepared = t <= prepared_until_;
  const double ttr = repair_time(prepared, t - last_checkpoint_);
  service_down_until_ = t + ttr;
  if (prepared) {
    ++stats_.prepared_repairs;
  } else {
    ++stats_.unprepared_repairs;
  }
  failure_infos_.push_back({t, cause, prepared, ttr});

  // Repair clears the culprit's faults (hardware swap / process restart /
  // state resync happens during the downtime window).
  if (worst > 1.5) {
    nodes_[culprit].repair_reset(t, service_down_until_);
  }
  // A checkpoint is taken as part of bringing the service back up.
  last_checkpoint_ = service_down_until_;
}

double ScpSimulator::repair_time(bool prepared,
                                 double time_since_checkpoint) const {
  const double reconfig =
      prepared ? config_.reconfig_warm : config_.reconfig_cold;
  const double recompute =
      std::min(config_.recompute_max,
               config_.recompute_factor * std::max(0.0, time_since_checkpoint));
  return reconfig + recompute;
}

void ScpSimulator::preventive_restart(std::size_t node) {
  nodes_.at(node).preventive_restart(now_);
  ++stats_.preventive_restarts;
}

void ScpSimulator::shed_load(double fraction, double duration) {
  workload_.shed(fraction, now_ + duration);
}

void ScpSimulator::prepare_for_failure(double window) {
  if (window < 0.0) {
    throw std::invalid_argument("prepare_for_failure: negative window");
  }
  // Warm spare stays ready for `window`; checkpoint taken immediately
  // (assumed fault-isolated per Sect. 4.3's discussion).
  prepared_until_ = std::max(prepared_until_, now_ + window);
  last_checkpoint_ = now_;
}

void ScpSimulator::sample_symptoms(double t) {
  const std::size_t n = nodes_.size();
  double util_sum = 0.0, util_max = 0.0;
  double mem_min = config_.node_memory_mb, mem_sum = 0.0;
  double pressure_max = 0.0, degradation_max = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    util_sum += last_util_[i];
    util_max = std::max(util_max, last_util_[i]);
    const double free = nodes_[i].free_memory_mb();
    mem_min = std::min(mem_min, free);
    mem_sum += free;
    pressure_max = std::max(pressure_max, nodes_[i].memory_pressure());
    degradation_max = std::max(degradation_max, last_degradation_[i]);
  }
  const double util_mean = util_sum / static_cast<double>(n);
  const double arrival = workload_.mean_rate(t);

  // Modeled p95 of the class-mix response time on the worst node.
  const double base_mix = 0.5 * config_.base_response_ms[0] +
                          0.3 * config_.base_response_ms[1] +
                          0.2 * config_.base_response_ms[2];
  const double sigma = config_.response_sigma;
  const double resp_p95 = base_mix * queue_multiplier(util_max) *
                          degradation_max *
                          std::exp(1.645 * sigma - 0.5 * sigma * sigma);

  // Error rate over the last sampling interval.
  const std::size_t total_events = trace_.event_count();
  const double err_rate =
      static_cast<double>(total_events - events_seen_) /
      config_.sample_interval;
  events_seen_ = total_events;

  // Correlated and distractor variables.
  const double throughput = service_down() ? 0.0 : arrival;
  const double sem_ops = throughput * 42.0 * rng_.uniform(0.9, 1.1);
  const double cpu_user =
      std::clamp(util_mean * rng_.uniform(0.92, 1.08) + 0.03, 0.0, 1.0);
  const double net_tx = throughput * 0.29 * rng_.uniform(0.95, 1.05);
  disk_io_ = std::clamp(disk_io_ + rng_.normal(0.0, 6.0), 40.0, 400.0);
  const double paging =
      std::max(0.0, (pressure_max - 0.72) * 900.0) * rng_.uniform(0.8, 1.2) +
      rng_.uniform(0.0, 4.0);
  ambient_phase_ = t / 86400.0 * 2.0 * M_PI;
  const double temp = 22.0 + 1.5 * std::sin(ambient_phase_) +
                      rng_.normal(0.0, 0.3);

  // Worker threads: a side-effect symptom of error cascades (the runaway
  // component spawns retry/handler threads as the cascade progresses).
  double stage_bonus = 0.0;
  for (const auto& node : nodes_) {
    static constexpr double kBonus[] = {0.0, 30.0, 75.0, 150.0, 150.0};
    const int stage = std::min(node.cascade_stage(), 4);
    stage_bonus = std::max(stage_bonus, kBonus[stage]);
  }
  // Benign thread-pool resizing adds heavy-tailed noise of its own.
  thread_walk_ = std::clamp(thread_walk_ + rng_.normal(0.0, 12.0), -90.0, 90.0);
  const double threads = 250.0 + 0.8 * workload_.mean_rate(t) + stage_bonus +
                         thread_walk_ + rng_.normal(0.0, 35.0);

  const std::array values = {arrival,   util_mean, util_max, mem_min,
                             mem_sum / static_cast<double>(n),
                             pressure_max, resp_p95, err_rate, sem_ops,
                             cpu_user,  net_tx,    disk_io_,  paging,
                             temp,      threads};
  trace_.add_sample(t, values);
}

}  // namespace pfm::telecom
