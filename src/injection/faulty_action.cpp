#include "injection/faulty_action.hpp"

#include <stdexcept>

namespace pfm::inj {

namespace {
constexpr std::uint64_t kActionStream = 3;

std::uint64_t action_stream_id(std::size_t action_id,
                               std::size_t instance) noexcept {
  return (static_cast<std::uint64_t>(action_id) << 32) | instance;
}
}  // namespace

FaultyAction::FaultyAction(std::unique_ptr<act::Action> inner,
                           std::size_t action_id, std::size_t instance,
                           const FaultPlan& plan, obs::Observability* hub,
                           std::shared_ptr<InjectionCounters> counters)
    : inner_(std::move(inner)),
      spec_(plan.action_spec(action_id)),
      stream_(plan.seed, kActionStream, action_stream_id(action_id, instance)),
      counters_(counters ? std::move(counters)
                         : std::make_shared<InjectionCounters>()) {
  if (!inner_) throw std::invalid_argument("FaultyAction: null inner");
  if (hub != nullptr) {
    tracer_ = hub->tracer();
    track_ = obs::node_track(instance);
    failure_counter_ = &hub->metrics().counter(
        "pfm_injected_faults_total{kind=\"action_failure\"}");
  }
}

void FaultyAction::execute(core::ManagedSystem& system, double confidence) {
  if (stream_.fire(spec_.fail_p)) {
    InjectionCounters::bump(counters_->action_failures);
    if (failure_counter_ != nullptr) failure_counter_->inc();
    obs::record_instant(tracer_, obs::SpanKind::kInjectedFault, track_,
                        system.now(), 0,
                        static_cast<std::int64_t>(FaultCode::kActionFail));
    throw ActionFaultError(inner_->name() + ": injected outright failure");
  }
  const bool partial = stream_.fire(spec_.partial_p);
  inner_->execute(system, confidence);
  if (partial) {
    InjectionCounters::bump(counters_->action_failures);
    if (failure_counter_ != nullptr) failure_counter_->inc();
    obs::record_instant(tracer_, obs::SpanKind::kInjectedFault, track_,
                        system.now(), 0,
                        static_cast<std::int64_t>(FaultCode::kActionPartial));
    throw ActionFaultError(inner_->name() + ": injected partial completion");
  }
}

}  // namespace pfm::inj
