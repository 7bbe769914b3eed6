#pragma once

#include <memory>

#include "injection/fault_plan.hpp"
#include "obs/observability.hpp"
#include "prediction/predictor.hpp"

namespace pfm::inj {

namespace detail {

/// Shared fault machinery of the two predictor decorators: per-item rolls
/// of (throw, NaN, inf).
///
/// Each scored item rolls from its *own* decision stream, keyed by
/// (plan seed, predictor id, item origin, item ordinal) — the identity
/// the controller stamped into the context/sequence. The rolls are
/// therefore a pure function of what is scored, never of call order:
/// the sharded fleet runtime may score the same wrapper concurrently
/// from many shard controllers, re-batch items arbitrarily, or reshard
/// the fleet, and every item still draws the same faults. The only
/// mutable state left is the atomic fault counter block.
class PredictorFaultState {
 public:
  /// `hub`, when given, counts injected predictor faults (throws, NaN
  /// and inf scores) into the registry. Predictor faults carry no sim
  /// timestamp, so they are counter-only — no spans. `counters` is the
  /// block the faults are tallied into (a fresh one when null).
  PredictorFaultState(const FaultPlan& plan, std::size_t id,
                      obs::Observability* hub,
                      std::shared_ptr<InjectionCounters> counters);

  /// Applies the (throw, NaN, inf) rolls of item (origin, ordinal) to
  /// `value` (already scored by the inner predictor). Throws
  /// PredictorFaultError when the throw roll fires.
  void corrupt_one(double& value, std::uint64_t origin,
                   std::uint64_t ordinal) const;

  /// Snapshot of the injected-fault counters.
  InjectionStats stats() const noexcept { return counters_->snapshot(); }

 private:
  PredictorFaultSpec spec_;
  std::uint64_t seed_ = 0;
  std::uint64_t id_ = 0;
  std::shared_ptr<InjectionCounters> counters_;
  obs::Counter* throw_counter_ = nullptr;  // sharded: safe from workers
  obs::Counter* nan_counter_ = nullptr;
};

}  // namespace detail

/// Decorator applying a PredictorFaultSpec to a symptom predictor. With a
/// zero spec it forwards scoring untouched (bit-identical scores).
class FaultySymptomPredictor final : public pred::SymptomPredictor {
 public:
  FaultySymptomPredictor(std::shared_ptr<const pred::SymptomPredictor> inner,
                         std::size_t id, const FaultPlan& plan,
                         obs::Observability* hub = nullptr,
                         std::shared_ptr<InjectionCounters> counters = nullptr);

  std::string name() const override { return inner_->name() + "+faults"; }
  void train(const mon::MonitoringDataset& data) override;
  double score(const pred::SymptomContext& context) const override;
  using pred::SymptomPredictor::score_batch;
  void score_batch(std::span<const pred::SymptomContext> contexts,
                   std::span<double> out,
                   pred::BatchScratch& scratch) const override;

  InjectionStats injection_stats() const noexcept { return state_.stats(); }

 private:
  std::shared_ptr<const pred::SymptomPredictor> inner_;
  detail::PredictorFaultState state_;
};

/// Decorator applying a PredictorFaultSpec to an event predictor.
class FaultyEventPredictor final : public pred::EventPredictor {
 public:
  FaultyEventPredictor(std::shared_ptr<const pred::EventPredictor> inner,
                       std::size_t id, const FaultPlan& plan,
                       obs::Observability* hub = nullptr,
                       std::shared_ptr<InjectionCounters> counters = nullptr);

  std::string name() const override { return inner_->name() + "+faults"; }
  void train(
      std::span<const mon::ErrorSequence> failure_sequences,
      std::span<const mon::ErrorSequence> nonfailure_sequences) override;
  double score(const mon::ErrorSequence& sequence) const override;
  using pred::EventPredictor::score_batch;
  void score_batch(std::span<const mon::ErrorSequence> sequences,
                   std::span<double> out,
                   pred::BatchScratch& scratch) const override;

  InjectionStats injection_stats() const noexcept { return state_.stats(); }

 private:
  std::shared_ptr<const pred::EventPredictor> inner_;
  detail::PredictorFaultState state_;
};

}  // namespace pfm::inj
