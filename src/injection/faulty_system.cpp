#include "injection/faulty_system.hpp"

#include <limits>
#include <stdexcept>

namespace pfm::inj {

namespace {
// Stream-kind tags keeping the per-family decision streams disjoint.
constexpr std::uint64_t kNodeStream = 1;
}  // namespace

FaultyManagedSystem::FaultyManagedSystem(
    std::unique_ptr<core::ManagedSystem> inner, std::size_t node_index,
    const FaultPlan& plan, obs::Observability* hub,
    std::shared_ptr<InjectionCounters> counters)
    : inner_(std::move(inner)),
      spec_(plan.node_spec(node_index)),
      stream_(plan.seed, kNodeStream, node_index),
      counters_(counters ? std::move(counters)
                         : std::make_shared<InjectionCounters>()) {
  if (!inner_) {
    throw std::invalid_argument("FaultyManagedSystem: null inner system");
  }
  node_index_ = node_index;
  if (hub != nullptr) {
    tracer_ = hub->tracer();
    flight_ = hub->flight();
    track_ = obs::node_track(node_index);
    auto& metrics = hub->metrics();
    crash_counter_ =
        &metrics.counter("pfm_injected_faults_total{kind=\"node_crash\"}");
    hang_counter_ =
        &metrics.counter("pfm_injected_faults_total{kind=\"node_hang\"}");
    drop_counter_ =
        &metrics.counter("pfm_injected_faults_total{kind=\"sample_drop\"}");
    corrupt_counter_ =
        &metrics.counter("pfm_injected_faults_total{kind=\"sample_corrupt\"}");
  }
  filtering_ = spec_.drop_sample_p > 0.0 || spec_.corrupt_sample_p > 0.0;
  if (filtering_) {
    shadow_ = mon::MonitoringDataset(inner_->trace().schema());
    corrupt_row_.assign(shadow_.schema().size(),
                        std::numeric_limits<double>::quiet_NaN());
    sync_shadow();
  }
}

void FaultyManagedSystem::throw_if_crashed() const {
  if (crashed_) {
    throw NodeCrashError(inner_->name() + ": node crashed at t=" +
                         std::to_string(spec_.crash_at));
  }
}

void FaultyManagedSystem::step_to(double t) {
  throw_if_crashed();
  if (spec_.crash_at >= 0.0 && inner_->now() >= spec_.crash_at) {
    crashed_ = true;
    InjectionCounters::bump(counters_->node_crashes);
    if (crash_counter_ != nullptr) crash_counter_->inc();
    obs::record_instant(tracer_, obs::SpanKind::kInjectedFault, track_,
                        inner_->now(), 0,
                        static_cast<std::int64_t>(FaultCode::kNodeCrash));
    if (flight_ != nullptr) {
      flight_->record_node(
          node_index_,
          obs::FlightEvent{inner_->now(), obs::FlightEventKind::kInjectedFault,
                           0, static_cast<std::int64_t>(FaultCode::kNodeCrash),
                           0.0});
    }
    throw_if_crashed();
  }
  if (spec_.hang_at >= 0.0 && inner_->now() >= spec_.hang_at &&
      hang_steps_served_ < spec_.hang_steps) {
    ++hang_steps_served_;
    InjectionCounters::bump(counters_->node_hangs);
    if (hang_counter_ != nullptr) hang_counter_->inc();
    obs::record_instant(tracer_, obs::SpanKind::kInjectedFault, track_,
                        inner_->now(), 0,
                        static_cast<std::int64_t>(FaultCode::kNodeHang));
    if (flight_ != nullptr) {
      flight_->record_node(
          node_index_,
          obs::FlightEvent{inner_->now(), obs::FlightEventKind::kInjectedFault,
                           0, static_cast<std::int64_t>(FaultCode::kNodeHang),
                           0.0});
    }
    return;  // liveness fault: the call returns but time stands still
  }
  inner_->step_to(t);
  if (filtering_) sync_shadow();
}

void FaultyManagedSystem::sync_shadow() {
  // The cursors are append counts, so they locate the unseen tail of the
  // inner store however much of its front was dropped.
  const auto& t = inner_->trace();
  const auto samples = t.samples();
  const std::size_t first_sample = t.sample_count() - samples.size();
  for (; samples_seen_ < t.sample_count(); ++samples_seen_) {
    if (stream_.fire(spec_.drop_sample_p)) {
      InjectionCounters::bump(counters_->samples_dropped);
      // High-frequency sample faults stay counter-only — a lossy sensor
      // would flood the span rings.
      if (drop_counter_ != nullptr) drop_counter_->inc();
      continue;
    }
    const auto& s = samples[samples_seen_ - first_sample];
    if (stream_.fire(spec_.corrupt_sample_p)) {
      InjectionCounters::bump(counters_->samples_corrupted);
      if (corrupt_counter_ != nullptr) corrupt_counter_->inc();
      shadow_.add_sample(s.time, corrupt_row_);
    } else {
      shadow_.add_sample(s.time, s.values);
    }
  }
  const auto events = t.events();
  const std::size_t first_event = t.event_count() - events.size();
  for (; events_seen_ < t.event_count(); ++events_seen_) {
    shadow_.add_event(events[events_seen_ - first_event]);
  }
  const auto failures = t.failures();
  for (; failures_seen_ < failures.size(); ++failures_seen_) {
    shadow_.add_failure(failures[failures_seen_]);
  }
  // Everything read so far lives on in the shadow: the inner store may
  // drop it at its next append.
  t.release(samples_seen_, events_seen_);
}

void FaultyManagedSystem::restart_unit(std::size_t unit) {
  throw_if_crashed();
  inner_->restart_unit(unit);
}

void FaultyManagedSystem::shed_load(double fraction, double duration) {
  throw_if_crashed();
  inner_->shed_load(fraction, duration);
}

void FaultyManagedSystem::checkpoint() {
  throw_if_crashed();
  inner_->checkpoint();
}

void FaultyManagedSystem::prepare_for_failure(double window) {
  throw_if_crashed();
  inner_->prepare_for_failure(window);
}

}  // namespace pfm::inj
