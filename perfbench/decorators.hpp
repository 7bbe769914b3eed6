#pragma once

// Decorators that time the library's public interfaces from outside.
// Each forwards every call unchanged to the object it wraps and opens a
// Span around the calls that do a layer's work, so a traced run computes
// the same results as an untraced one. Wrap the bare component directly
// (inside any fault-injection wrapper), so the injection cost lands in
// the caller's span rather than the component's.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "actions/action.hpp"
#include "core/managed_system.hpp"
#include "prediction/predictor.hpp"
#include "spans.hpp"

namespace perfbench {

/// Times ManagedSystem::step_to (the simulator) as "telecom.step".
class TimedSystem final : public pfm::core::ManagedSystem {
 public:
  TimedSystem(std::unique_ptr<pfm::core::ManagedSystem> inner,
              std::uint64_t node)
      : inner_(std::move(inner)), node_(node) {}

  std::string name() const override { return inner_->name(); }
  double now() const override { return inner_->now(); }
  double horizon() const override { return inner_->horizon(); }
  bool finished() const override { return inner_->finished(); }
  void step_to(double t) override {
    Span span("telecom.step", ++steps_, node_);
    inner_->step_to(t);
  }
  const pfm::mon::MonitoringDataset& trace() const override {
    return inner_->trace();
  }
  pfm::core::SchedulingHint scheduling_hint() const override {
    return inner_->scheduling_hint();
  }
  std::size_t num_units() const override { return inner_->num_units(); }
  pfm::core::UnitHealth unit_health(std::size_t unit) const override {
    return inner_->unit_health(unit);
  }
  double offered_load() const override { return inner_->offered_load(); }
  double unit_capacity() const override { return inner_->unit_capacity(); }
  bool service_down() const override { return inner_->service_down(); }
  void restart_unit(std::size_t unit) override { inner_->restart_unit(unit); }
  void shed_load(double fraction, double duration) override {
    inner_->shed_load(fraction, duration);
  }
  void checkpoint() override { inner_->checkpoint(); }
  void prepare_for_failure(double window) override {
    inner_->prepare_for_failure(window);
  }
  void prepare_for_drain() override { inner_->prepare_for_drain(); }
  pfm::core::SystemStats system_stats() const override {
    return inner_->system_stats();
  }

 private:
  std::unique_ptr<pfm::core::ManagedSystem> inner_;
  std::uint64_t node_;
  std::uint64_t steps_ = 0;
};

/// Times every scoring overload of a trained symptom predictor. The
/// request id is the first context's (ordinal, origin); items = batch size.
class TimedSymptomPredictor final : public pfm::pred::SymptomPredictor {
 public:
  TimedSymptomPredictor(
      std::shared_ptr<const pfm::pred::SymptomPredictor> inner,
      const char* span_name)
      : inner_(std::move(inner)), span_name_(span_name) {}

  std::string name() const override { return inner_->name(); }
  void train(const pfm::mon::MonitoringDataset&) override {
    // Wraps an already-trained predictor, like the calibration wrappers.
  }
  double score(const pfm::pred::SymptomContext& ctx) const override {
    Span span(span_name_, ctx.ordinal, ctx.origin, 1);
    return inner_->score(ctx);
  }
  void score_batch(std::span<const pfm::pred::SymptomContext> contexts,
                   std::span<double> out) const override {
    Span span(span_name_, first_ordinal(contexts), first_origin(contexts),
              contexts.size());
    inner_->score_batch(contexts, out);
  }
  void score_batch(std::span<const pfm::pred::SymptomContext> contexts,
                   std::span<double> out,
                   pfm::pred::BatchScratch& scratch) const override {
    Span span(span_name_, first_ordinal(contexts), first_origin(contexts),
              contexts.size());
    inner_->score_batch(contexts, out, scratch);
  }

 private:
  static std::uint64_t first_ordinal(
      std::span<const pfm::pred::SymptomContext> c) {
    return c.empty() ? 0 : c.front().ordinal;
  }
  static std::uint64_t first_origin(
      std::span<const pfm::pred::SymptomContext> c) {
    return c.empty() ? 0 : c.front().origin;
  }

  std::shared_ptr<const pfm::pred::SymptomPredictor> inner_;
  const char* span_name_;
};

/// Event-predictor counterpart of TimedSymptomPredictor.
class TimedEventPredictor final : public pfm::pred::EventPredictor {
 public:
  TimedEventPredictor(std::shared_ptr<const pfm::pred::EventPredictor> inner,
                      const char* span_name)
      : inner_(std::move(inner)), span_name_(span_name) {}

  std::string name() const override { return inner_->name(); }
  void train(std::span<const pfm::mon::ErrorSequence>,
             std::span<const pfm::mon::ErrorSequence>) override {
    // Wraps an already-trained predictor, like the calibration wrappers.
  }
  double score(const pfm::mon::ErrorSequence& seq) const override {
    Span span(span_name_, seq.ordinal, seq.origin, 1);
    return inner_->score(seq);
  }
  void score_batch(std::span<const pfm::mon::ErrorSequence> sequences,
                   std::span<double> out) const override {
    Span span(span_name_, first_ordinal(sequences), first_origin(sequences),
              sequences.size());
    inner_->score_batch(sequences, out);
  }
  void score_batch(std::span<const pfm::mon::ErrorSequence> sequences,
                   std::span<double> out,
                   pfm::pred::BatchScratch& scratch) const override {
    Span span(span_name_, first_ordinal(sequences), first_origin(sequences),
              sequences.size());
    inner_->score_batch(sequences, out, scratch);
  }

 private:
  static std::uint64_t first_ordinal(
      std::span<const pfm::mon::ErrorSequence> s) {
    return s.empty() ? 0 : s.front().ordinal;
  }
  static std::uint64_t first_origin(
      std::span<const pfm::mon::ErrorSequence> s) {
    return s.empty() ? 0 : s.front().origin;
  }

  std::shared_ptr<const pfm::pred::EventPredictor> inner_;
  const char* span_name_;
};

/// Times Action::execute as "actions.execute.<kind>". The request id is
/// (sim second of the call, action instance in creation order).
class TimedAction final : public pfm::act::Action {
 public:
  TimedAction(std::unique_ptr<pfm::act::Action> inner, std::uint64_t instance)
      : inner_(std::move(inner)), instance_(instance) {}

  std::string name() const override { return inner_->name(); }
  pfm::act::ActionKind kind() const override { return inner_->kind(); }
  const pfm::act::ActionProperties& properties() const override {
    return inner_->properties();
  }
  bool applicable(const pfm::core::ManagedSystem& system) const override {
    return inner_->applicable(system);
  }
  void execute(pfm::core::ManagedSystem& system, double confidence) override {
    Span span(span_name(inner_->kind()),
              static_cast<std::uint64_t>(system.now()), instance_);
    inner_->execute(system, confidence);
  }

 private:
  static const char* span_name(pfm::act::ActionKind kind) {
    static constexpr const char* kNames[pfm::act::kNumActionKinds] = {
        "actions.execute.state_cleanup",
        "actions.execute.preventive_failover",
        "actions.execute.load_lowering",
        "actions.execute.prepared_repair",
        "actions.execute.preventive_restart"};
    return kNames[static_cast<std::size_t>(kind)];
  }

  std::unique_ptr<pfm::act::Action> inner_;
  std::uint64_t instance_;
};

using ActionFactory = std::function<std::unique_ptr<pfm::act::Action>()>;

/// Wraps every action `factory` makes in a TimedAction, numbering the
/// instances in creation order.
inline ActionFactory timed_factory(ActionFactory factory) {
  auto created = std::make_shared<std::uint64_t>(0);
  return [factory = std::move(factory), created] {
    return std::make_unique<TimedAction>(factory(), (*created)++);
  };
}

}  // namespace perfbench
