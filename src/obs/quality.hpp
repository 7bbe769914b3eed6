#pragma once

// Online prediction-quality tracking (DESIGN.md §10).
//
// The offline evaluation path (`prediction/evaluate`, `eval/metrics`)
// scores a finished run; this tracker computes the same Sect. 3.3
// contingency outcomes *while the fleet is running*, so the quality
// scoreboard (precision / recall / F-measure / fpr / AUC) is live
// telemetry instead of a post-hoc report.
//
// Matching rule (Sect. 3.3, mirroring MonitoringDataset::failure_within
// and prediction::score_on_grid exactly): an evaluation at sim time t
// predicts the window
//
//     [w_begin, w_end)  with  w_end   = t + lead_time + prediction_window
//                             w_begin = t                 (early counted)
//                             w_begin = t + lead_time     (otherwise)
//
// and its ground-truth label is "failure" iff the node records a failure
// inside that half-open window. Since the window closes lead_time +
// prediction_window *after* the evaluation, an instant is held pending
// and resolved once the node's own clock passes w_end; instants whose
// window never closes before the horizon stay pending forever — exactly
// the instants score_on_grid excludes from the offline grid.
//
// Concurrency / determinism: per-(node, lane) tallies and the per-node
// pending ring are owned by whichever thread drives the node's shard —
// the same ownership discipline as SystemStats.
// Shared per-lane totals (outcome counters, score-distribution bins) go
// through the per-thread-sharded Counter, whose integer merge is exact,
// so every exported value is a pure function of (seed, fault plan,
// membership plan) — bit-identical across thread counts.
//
// Lanes: one per registered predictor plus a final "combined" lane for
// the max-reduced score the MEA loop actually thresholds. A lane score
// of NaN at an instant means "this predictor did not score here" (dead
// breaker, sanitized output) and resolves to no outcome for that lane.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace pfm::obs {

/// Geometry and sizing of the online tracker. Window fields must match
/// the MEA configuration driving the fleet or the online counts will
/// diverge from the offline report.
struct QualityConfig {
  double lead_time = 300.0;          ///< Δt_l (seconds of sim time)
  double prediction_window = 300.0;  ///< Δt_p
  /// Count a failure earlier than lead_time ahead as a true positive
  /// (EvalOptions::count_early_failures semantics).
  bool count_early_failures = true;
  /// Warning iff score >= threshold — the MEA decision rule.
  double warning_threshold = 0.6;
  /// Pending-instant ring capacity per node; the oldest unresolved
  /// instant is evicted (and counted) when a node overflows it.
  std::size_t pending_capacity = 64;
  /// Sliding window (in resolved instants per node and lane) behind the
  /// windowed() tallies that feed the gauges and the Eq. 8 estimate.
  std::size_t outcome_window = 128;
  /// Fixed score-distribution bins over [0,1] per lane and label — the
  /// streaming threshold sweep behind the online PR curve / AUC.
  std::size_t score_bins = 20;

  void validate() const;  ///< throws std::invalid_argument
};

/// 2x2 contingency tallies with the same degenerate-case conventions as
/// eval::ContingencyTable: precision is 1 with no warnings, recall is 1
/// with no failures, fpr is 0 with no negatives.
struct ConfusionCounts {
  std::uint64_t true_positives = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t true_negatives = 0;
  std::uint64_t false_negatives = 0;

  std::uint64_t total() const noexcept {
    return true_positives + false_positives + true_negatives +
           false_negatives;
  }

  double precision() const noexcept;
  double recall() const noexcept;
  double false_positive_rate() const noexcept;
  double f_measure() const noexcept;
};

/// The online confusion tracker. Registration and aggregation are
/// controller-thread operations between parallel sections; observe()
/// and resolve() are the hot path and are alloc/throw/lock-free.
class QualityTracker {
 public:
  /// `registry` receives the per-lane instruments; it must outlive the
  /// tracker. Throws std::invalid_argument on a bad config or null
  /// registry.
  QualityTracker(const QualityConfig& config, MetricsRegistry* registry);

  QualityTracker(const QualityTracker&) = delete;
  QualityTracker& operator=(const QualityTracker&) = delete;

  /// Declares the predictor lanes (one label per predictor, in scoring
  /// order) and registers their instruments; a trailing "combined" lane
  /// is always appended. Duplicate labels get a "#<index>" suffix so
  /// instrument names stay unique. Calling again with the same labels is
  /// a no-op; changing the lane set clears all per-node state (pending
  /// instants are counted as evicted).
  void set_predictors(std::span<const std::string> labels);

  /// Grows per-node state to cover nodes [0, count). Never shrinks.
  void ensure_nodes(std::size_t count);

  /// Restart semantics: drops the node's pending instants (counted as
  /// evicted) and clears its sliding window; cumulative tallies persist
  /// across incarnations like the retired-stats ledger does.
  void reset_node(std::size_t node);

  /// Lane count including the trailing combined lane (0 before
  /// set_predictors).
  std::size_t lanes() const noexcept { return labels_.size(); }
  std::size_t combined_lane() const noexcept {
    return labels_.empty() ? 0 : labels_.size() - 1;
  }
  const std::vector<std::string>& lane_labels() const noexcept {
    return labels_;
  }
  std::size_t nodes() const noexcept { return node_count_; }

  /// Hot path: records one evaluation instant of `node` at sim time
  /// `time`. `lane_scores` points at lanes() doubles — one per predictor
  /// lane plus the combined score last; NaN marks an unscored lane.
  /// Owning-thread only.
  void observe(std::size_t node, double time,
               const double* lane_scores) noexcept;

  /// Hot path: resolves every pending instant of `node` whose window
  /// closed at or before `now` against the node's failure log (ascending
  /// times, the node trace's failures() span). Owning-thread only.
  void resolve(std::size_t node, double now,
               std::span<const double> failures) noexcept;

  // --- controller-thread reads (no parallel section in flight) ---

  ConfusionCounts node_cumulative(std::size_t node, std::size_t lane) const;
  ConfusionCounts node_windowed(std::size_t node, std::size_t lane) const;
  /// Sums over nodes [begin, begin + count) — the per-shard Eq. 8 feed.
  ConfusionCounts windowed_nodes(std::size_t lane, std::size_t begin,
                                 std::size_t count) const;
  ConfusionCounts cumulative(std::size_t lane) const;
  ConfusionCounts windowed(std::size_t lane) const;

  /// Unresolved instants currently held across all nodes.
  std::uint64_t pending_total() const noexcept;

  /// Streaming AUC estimate for a lane by trapezoidal sweep over the
  /// score-distribution bins; 0.5 when either class is still empty.
  double auc_estimate(std::size_t lane) const;

  /// Recomputes the per-lane precision/recall/F/fpr/AUC gauges and the
  /// pending-instant gauge from the windowed tallies.
  void refresh_gauges();

  const QualityConfig& config() const noexcept { return config_; }

 private:
  /// Per-lane instrument handles (registered by set_predictors).
  struct LaneInstruments {
    Counter* outcomes[4] = {nullptr, nullptr, nullptr, nullptr};
    std::vector<Counter*> pos_bins;
    std::vector<Counter*> neg_bins;
    Gauge* precision = nullptr;
    Gauge* recall = nullptr;
    Gauge* f_measure = nullptr;
    Gauge* fpr = nullptr;
    Gauge* auc = nullptr;
  };

  // Outcome codes: index into cum_/win_/LaneInstruments::outcomes.
  static constexpr std::uint8_t kTp = 0;
  static constexpr std::uint8_t kFp = 1;
  static constexpr std::uint8_t kTn = 2;
  static constexpr std::uint8_t kFn = 3;

  std::size_t cell(std::size_t node, std::size_t lane) const noexcept {
    return node * labels_.size() + lane;
  }

  void tally(std::size_t node, std::size_t lane, std::uint8_t code,
             double score) noexcept;
  void drop_pending(std::size_t node) noexcept;
  ConfusionCounts from_array(const std::uint64_t* c) const noexcept;

  QualityConfig config_;
  MetricsRegistry* registry_;

  std::vector<std::string> labels_;  // predictor lanes + "combined"
  std::vector<LaneInstruments> inst_;
  Counter* observed_ = nullptr;
  Counter* resolved_ = nullptr;
  Counter* evicted_ = nullptr;
  Gauge* pending_gauge_ = nullptr;

  std::size_t node_count_ = 0;
  // Pending instants: per-node ring of (time, lane scores).
  std::vector<double> pend_time_;    // nodes x pending_capacity
  std::vector<double> pend_scores_;  // nodes x pending_capacity x lanes
  std::vector<std::size_t> pend_head_;
  std::vector<std::size_t> pend_size_;
  // Resolved outcomes: cumulative u64[4] and windowed u32[4] tallies per
  // (node, lane), plus the outcome-code ring backing the sliding window.
  std::vector<std::uint64_t> cum_;   // nodes x lanes x 4
  std::vector<std::uint32_t> win_;   // nodes x lanes x 4
  std::vector<std::uint8_t> ring_;   // nodes x lanes x outcome_window
  std::vector<std::uint64_t> ring_len_;  // nodes x lanes
};

}  // namespace pfm::obs
