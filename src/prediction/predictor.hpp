#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "monitoring/dataset.hpp"
#include "monitoring/types.hpp"

namespace pfm::pred {

/// Everything a symptom-based predictor may look at when judging the
/// current system state: a trailing window of symptom samples (back() is
/// the present) and the failure history up to now. Predictors use what
/// they need — UBF reads the newest sample, trend analysis regresses over
/// the window, failure tracking only needs the failure history and the
/// current time.
struct SymptomContext {
  /// Trailing samples, oldest first and time-ordered, like a trace's.
  std::span<const mon::SymptomSample> history;
  std::span<const double> past_failures;

  /// Identity of this evaluation, stamped by the controller that built
  /// the context: `origin` is the global node index (0 for single-system
  /// controllers) and `ordinal` that node's evaluation count. Predictors
  /// ignore both; fault-injection wrappers key their per-item decision
  /// streams on (origin, ordinal), so injected rolls stay bit-exact no
  /// matter how the fleet is sharded or batched.
  std::uint64_t origin = 0;
  std::uint64_t ordinal = 0;

  double now() const { return history.empty() ? 0.0 : history.back().time; }
};

/// Caller-owned scratch arena for batched scoring. The fleet runtime keeps
/// one per predictor and threads it through every round, so the hot path
/// allocates nothing once the buffers reached steady-state size — the
/// stress suite asserts capacity_bytes() stabilizes after warm-up.
///
/// `features` is used as a structure-of-arrays matrix (column f of a
/// batch of size n occupies [f * n, (f + 1) * n)): gathering each feature
/// contiguously across the batch lets a predictor sweep one kernel or one
/// projection over all contexts with unit stride. The remaining buffers
/// are generic per-context workspaces (regression inputs, activation
/// rows, event-id sets).
struct BatchScratch {
  std::vector<double> features;     ///< SoA feature columns
  std::vector<double> activations;  ///< one kernel/projection row
  std::vector<double> t_buf;        ///< regression abscissae
  std::vector<double> v_buf;        ///< regression ordinates
  std::vector<std::int32_t> ids;    ///< event-id workspace

  /// resize() that only ever grows capacity — the arena's footprint is
  /// monotone, which makes "no reallocation after warm-up" observable.
  template <typename T>
  static void resize(std::vector<T>& buf, std::size_t n) {
    if (n > buf.capacity()) buf.reserve(n);
    buf.resize(n);
  }

  /// Total reserved footprint; stable after warm-up on the hot path.
  std::size_t capacity_bytes() const noexcept {
    return (features.capacity() + activations.capacity() +
            t_buf.capacity() + v_buf.capacity()) * sizeof(double) +
           ids.capacity() * sizeof(std::int32_t);
  }
};

/// Online failure predictor over periodically monitored symptom variables
/// (the left branch of the Fig. 3 taxonomy).
///
/// Contract: train() may be called once on a training trace; score()
/// returns a real number that increases with failure-proneness. Scores are
/// thresholded by the caller (Sect. 3.3: the precision/recall trade-off is
/// controlled by a threshold), so absolute calibration is not required —
/// only ordering matters.
///
/// Fault model: callers do not trust scores blindly. The MEA/fleet
/// controllers exclude non-finite scores from the warning reduce (counted
/// as sanitized), and the fleet runtime trips a predictor that throws or
/// emits non-finite scores repeatedly out of the ensemble via a circuit
/// breaker. A predictor should still strive to return finite values —
/// degraded mode costs prediction coverage.
class SymptomPredictor {
 public:
  virtual ~SymptomPredictor() = default;

  virtual std::string name() const = 0;

  /// Learns from a recorded trace. Throws std::invalid_argument when the
  /// trace is unusable for this method (e.g., no failures at all).
  virtual void train(const mon::MonitoringDataset& data) = 0;

  /// Failure-proneness of the current state; higher = more failure-prone.
  /// Throws std::logic_error when called before train(). The oracle of
  /// the batch contract below.
  virtual double score(const SymptomContext& context) const = 0;

  /// Scores many contexts in one call — the fleet runtime's hot path
  /// (one virtual call per predictor instead of one per node×layer).
  /// `out[i]` receives score(contexts[i]) bit for bit, and every
  /// per-call buffer lives in `scratch`, reused across rounds. The
  /// default loops score(); predictors with a faster batch body override
  /// this overload. Concurrent calls must use disjoint arenas. Throws
  /// std::invalid_argument when the span sizes differ.
  virtual void score_batch(std::span<const SymptomContext> contexts,
                           std::span<double> out, BatchScratch& scratch) const;

  /// Convenience form: forwards to the arena overload with a call-local
  /// arena.
  virtual void score_batch(std::span<const SymptomContext> contexts,
                           std::span<double> out) const;
};

/// Online failure predictor over detected-error event sequences (the
/// "detected error reporting" branch of Fig. 3; input per Fig. 4).
class EventPredictor {
 public:
  virtual ~EventPredictor() = default;

  virtual std::string name() const = 0;

  /// Learns from labeled failure/non-failure sequences (Fig. 6).
  /// Throws std::invalid_argument when either class is empty.
  virtual void train(std::span<const mon::ErrorSequence> failure_sequences,
                     std::span<const mon::ErrorSequence> nonfailure_sequences) = 0;

  /// Failure-proneness of the error sequence observed in the current data
  /// window; higher = more failure-prone.
  virtual double score(const mon::ErrorSequence& sequence) const = 0;

  /// Arena-backed batched counterpart of score(); same contract as the
  /// SymptomPredictor overload. The default loops score().
  virtual void score_batch(std::span<const mon::ErrorSequence> sequences,
                           std::span<double> out, BatchScratch& scratch) const;

  /// Convenience form: forwards to the arena overload with a call-local
  /// arena.
  virtual void score_batch(std::span<const mon::ErrorSequence> sequences,
                           std::span<double> out) const;
};

/// Shared window geometry (Fig. 6): data window Delta t_d, lead time
/// Delta t_l, prediction period Delta t_p.
struct WindowGeometry {
  double data_window = 600.0;
  double lead_time = 300.0;
  double prediction_window = 300.0;

  /// Throws std::invalid_argument unless every field is finite, the data
  /// window and prediction period are > 0 and the lead time is >= 0.
  void validate() const;
};

}  // namespace pfm::pred
