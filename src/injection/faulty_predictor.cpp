#include "injection/faulty_predictor.hpp"

#include <limits>
#include <stdexcept>

namespace pfm::inj {

namespace detail {

namespace {
constexpr std::uint64_t kPredictorStream = 2;
}  // namespace

PredictorFaultState::PredictorFaultState(
    const FaultPlan& plan, std::size_t id, obs::Observability* hub,
    std::shared_ptr<InjectionCounters> counters)
    : spec_(plan.predictor_spec(id)),
      seed_(plan.seed),
      id_(id),
      counters_(counters ? std::move(counters)
                         : std::make_shared<InjectionCounters>()) {
  if (hub != nullptr) {
    auto& metrics = hub->metrics();
    throw_counter_ = &metrics.counter(
        "pfm_injected_faults_total{kind=\"predictor_throw\"}");
    nan_counter_ =
        &metrics.counter("pfm_injected_faults_total{kind=\"predictor_nan\"}");
  }
}

void PredictorFaultState::corrupt_one(double& value, std::uint64_t origin,
                                      std::uint64_t ordinal) const {
  if (spec_.throw_p <= 0.0 && spec_.nan_p <= 0.0 && spec_.inf_p <= 0.0) {
    return;
  }
  DecisionStream stream(
      seed_, kPredictorStream,
      DecisionStream::derive(DecisionStream::derive(id_, origin), ordinal));
  if (stream.fire(spec_.throw_p)) {
    InjectionCounters::bump(counters_->predictor_throws);
    if (throw_counter_ != nullptr) throw_counter_->inc();
    throw PredictorFaultError("injected predictor fault");
  }
  if (stream.fire(spec_.nan_p)) {
    InjectionCounters::bump(counters_->predictor_nans);
    if (nan_counter_ != nullptr) nan_counter_->inc();
    value = std::numeric_limits<double>::quiet_NaN();
  } else if (stream.fire(spec_.inf_p)) {
    InjectionCounters::bump(counters_->predictor_nans);
    if (nan_counter_ != nullptr) nan_counter_->inc();
    value = std::numeric_limits<double>::infinity();
  }
}

}  // namespace detail

FaultySymptomPredictor::FaultySymptomPredictor(
    std::shared_ptr<const pred::SymptomPredictor> inner, std::size_t id,
    const FaultPlan& plan, obs::Observability* hub,
    std::shared_ptr<InjectionCounters> counters)
    : inner_(std::move(inner)), state_(plan, id, hub, std::move(counters)) {
  if (!inner_) {
    throw std::invalid_argument("FaultySymptomPredictor: null inner");
  }
}

void FaultySymptomPredictor::train(const mon::MonitoringDataset&) {
  // Wrappers decorate already-trained predictors shared read-only across
  // the fleet; training through the wrapper is a wiring mistake.
  throw std::logic_error("FaultySymptomPredictor: wrap after training");
}

double FaultySymptomPredictor::score(
    const pred::SymptomContext& context) const {
  double value = inner_->score(context);
  state_.corrupt_one(value, context.origin, context.ordinal);
  return value;
}

void FaultySymptomPredictor::score_batch(
    std::span<const pred::SymptomContext> contexts, std::span<double> out,
    pred::BatchScratch& scratch) const {
  inner_->score_batch(contexts, out, scratch);
  for (std::size_t i = 0; i < contexts.size(); ++i) {
    state_.corrupt_one(out[i], contexts[i].origin, contexts[i].ordinal);
  }
}

FaultyEventPredictor::FaultyEventPredictor(
    std::shared_ptr<const pred::EventPredictor> inner, std::size_t id,
    const FaultPlan& plan, obs::Observability* hub,
    std::shared_ptr<InjectionCounters> counters)
    : inner_(std::move(inner)), state_(plan, id, hub, std::move(counters)) {
  if (!inner_) {
    throw std::invalid_argument("FaultyEventPredictor: null inner");
  }
}

void FaultyEventPredictor::train(std::span<const mon::ErrorSequence>,
                                 std::span<const mon::ErrorSequence>) {
  throw std::logic_error("FaultyEventPredictor: wrap after training");
}

double FaultyEventPredictor::score(const mon::ErrorSequence& sequence) const {
  double value = inner_->score(sequence);
  state_.corrupt_one(value, sequence.origin, sequence.ordinal);
  return value;
}

void FaultyEventPredictor::score_batch(
    std::span<const mon::ErrorSequence> sequences, std::span<double> out,
    pred::BatchScratch& scratch) const {
  inner_->score_batch(sequences, out, scratch);
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    state_.corrupt_one(out[i], sequences[i].origin, sequences[i].ordinal);
  }
}

}  // namespace pfm::inj
