#pragma once

#include <array>
#include <memory>
#include <vector>

#include "actions/selection.hpp"
#include "core/managed_system.hpp"
#include "obs/observability.hpp"
#include "prediction/predictor.hpp"

namespace pfm::core {

/// Configuration of the Monitor-Evaluate-Act loop.
struct MeaConfig {
  /// Seconds between MEA evaluations.
  double evaluation_interval = 60.0;
  /// Warning threshold on the combined failure-proneness score.
  double warning_threshold = 0.6;
  /// Window geometry shared with the predictors.
  pred::WindowGeometry windows;
  /// Trailing samples handed to symptom predictors (>= 1). A fleet node's
  /// trace retains no more samples than this.
  std::size_t context_samples = 20;
  /// Minimum seconds between two executions of the same action kind
  /// (control-loop damping: the paper warns about oscillations, Sect. 2).
  double action_cooldown = 600.0;
  /// Master switches for the two Fig. 7 action families — the Table 1 /
  /// E9 experiment toggles these.
  bool enable_avoidance = true;
  bool enable_minimization = true;

  /// Throws std::invalid_argument unless the windows validate, the
  /// interval is finite and > 0, the threshold lies in [0, 1], the
  /// cooldown is finite and >= 0 and context_samples is >= 1. NaN fails
  /// every check. MeaController and the fleet runtime both call this.
  void validate() const;
};

/// Counters of one MEA run. The fault counters stay zero unless a
/// component actually misbehaves.
struct MeaStats {
  std::size_t evaluations = 0;
  std::size_t warnings = 0;
  std::array<std::size_t, act::kNumActionKinds> actions_by_kind{};
  std::size_t scores_sanitized = 0;   ///< non-finite scores excluded
  std::size_t action_faults = 0;      ///< execution attempts that threw
  std::size_t action_retries = 0;     ///< re-attempts after a failed try
  std::size_t actions_abandoned = 0;  ///< executions that exhausted retries

  std::size_t total_actions() const noexcept {
    std::size_t s = 0;
    for (auto a : actions_by_kind) s += a;
    return s;
  }

  MeaStats& operator+=(const MeaStats& other) noexcept {
    evaluations += other.evaluations;
    warnings += other.warnings;
    for (std::size_t k = 0; k < actions_by_kind.size(); ++k) {
      actions_by_kind[k] += other.actions_by_kind[k];
    }
    scores_sanitized += other.scores_sanitized;
    action_faults += other.action_faults;
    action_retries += other.action_retries;
    actions_abandoned += other.actions_abandoned;
    return *this;
  }
};

/// The Act component (Fig. 1): owns the registered countermeasures, the
/// per-kind cooldown clocks and the objective-function selection policy.
/// Extracted from MeaController so a fleet controller can keep one engine
/// per managed node while sharing predictors across the fleet.
class ActEngine {
 public:
  /// Bounded retry with exponential backoff: a throwing action gets
  /// kMaxAttempts tries within one warning. When all of them fail, the
  /// failure is absorbed into the stats and the action's kind is backed
  /// off in *simulated* time — kBackoffInitial seconds, doubling per
  /// consecutive abandoned execution, capped at kBackoffMax — before it
  /// may run again. Actions that never throw see none of this.
  static constexpr std::size_t kMaxAttempts = 3;
  static constexpr double kBackoffInitial = 120.0;
  static constexpr double kBackoffMax = 3600.0;

  ActEngine() {
    last_action_time_.fill(-1e18);
    backoff_until_.fill(-1e18);
  }

  /// Registers a countermeasure. Throws on nullptr.
  void add_action(std::unique_ptr<act::Action> action);

  bool empty() const noexcept { return actions_.empty(); }

  /// Responds to one failure warning of confidence `score`:
  ///  - downtime minimization: every applicable, cooled-down action runs
  ///    (preparing for a failure is cheap and safe);
  ///  - downtime avoidance: the objective function picks the single most
  ///    effective applicable action.
  /// Executed actions are counted into `stats` and stamp their cooldown.
  /// Throwing actions are retried and backed off (kMaxAttempts above);
  /// their failures land in `stats`, never in the caller.
  void act(ManagedSystem& system, double score, const MeaConfig& config,
           MeaStats& stats);

  /// Simulated-time instant before which `kind` is backed off (-inf when
  /// it never failed); exposed for the retry-schedule tests.
  double backoff_until(act::ActionKind kind) const noexcept {
    return backoff_until_[static_cast<std::size_t>(kind)];
  }

  /// Attaches the engine to an observability hub: executions, retries
  /// and abandonments are counted fleet-wide, and Act spans are recorded
  /// on `track` (the owning node's trace lane). Must be called before
  /// the engine runs on a pool worker — counter registration is not a
  /// hot-path operation. Null detaches.
  void set_observability(obs::Observability* hub, std::uint32_t track);

  /// Attaches the engine to the flight recorder's scope of `node`:
  /// executions, retries and abandonments land in the node's ring so a
  /// post-mortem shows what the Act stage did right before an incident.
  /// Null detaches.
  void set_flight(obs::FlightRecorder* flight, std::size_t node);

 private:
  /// Runs one action under the retry policy; true on success.
  bool try_execute(act::Action& action, ManagedSystem& system, double score,
                   MeaStats& stats);

  obs::TraceRecorder* tracer_ = nullptr;
  std::uint32_t track_ = 0;
  obs::FlightRecorder* flight_ = nullptr;
  std::size_t flight_node_ = 0;
  obs::Counter* executed_total_ = nullptr;
  obs::Counter* faults_total_ = nullptr;
  obs::Counter* retries_total_ = nullptr;
  obs::Counter* abandoned_total_ = nullptr;

  std::vector<std::unique_ptr<act::Action>> actions_;
  act::ActionSelector selector_;
  std::array<double, act::kNumActionKinds> last_action_time_{};
  std::array<double, act::kNumActionKinds> backoff_until_{};
  std::array<std::size_t, act::kNumActionKinds> abandoned_streak_{};
};

/// The Monitor-Evaluate-Act control loop (Fig. 1) driving one managed
/// system:
///  - Monitor: the system continuously appends symptom samples and error
///    events to its trace;
///  - Evaluate: at each evaluation instant the registered (pre-trained)
///    predictors score the current context; the combined score is their
///    maximum (a warning from any layer is a warning);
///  - Act: on a warning, downtime minimization always prepares repair,
///    and the objective-function selector picks the best applicable
///    avoidance action, subject to per-kind cooldowns.
class MeaController {
 public:
  MeaController(ManagedSystem& system, MeaConfig config);

  /// Registers a trained symptom predictor (one per architecture layer).
  void add_symptom_predictor(std::shared_ptr<const pred::SymptomPredictor> p);

  /// Registers a trained event predictor.
  void add_event_predictor(std::shared_ptr<const pred::EventPredictor> p);

  /// Registers a countermeasure.
  void add_action(std::unique_ptr<act::Action> action);

  /// Runs the loop until the managed system's horizon.
  void run();

  /// Runs until time `t`.
  void run_until(double t);

  const MeaStats& stats() const noexcept { return stats_; }

  /// Combined failure-proneness at the current instant (exposed for tests
  /// and examples). Non-finite predictor scores are excluded from the max
  /// reduce; when `sanitized` is non-null it is incremented per excluded
  /// score.
  double evaluate_now(std::size_t* sanitized = nullptr) const;

  /// Attaches the loop (and its Act engine) to an observability hub:
  /// evaluations and warnings become counters, each evaluation records a
  /// kEvaluation span and each warning a kWarning span on track 0.
  void set_observability(obs::Observability* hub);

 private:
  obs::Observability* obs_ = nullptr;
  obs::Counter* evaluations_total_ = nullptr;
  obs::Counter* warnings_total_ = nullptr;
  ManagedSystem* system_;
  MeaConfig config_;
  std::vector<std::shared_ptr<const pred::SymptomPredictor>> symptom_;
  std::vector<std::shared_ptr<const pred::EventPredictor>> event_;
  ActEngine engine_;
  MeaStats stats_;
};

}  // namespace pfm::core
