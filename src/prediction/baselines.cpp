#include "prediction/baselines.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "numerics/logistic.hpp"
#include "numerics/stats.hpp"

namespace pfm::pred {

namespace {

/// Picks the variable with the strongest point-biserial correlation to the
/// failure label; returns (index, sign, mean, stddev).
struct VariablePick {
  std::size_t index = 0;
  double direction = 1.0;
  double mean = 0.0;
  double stddev = 1.0;
};

VariablePick pick_variable(const std::vector<mon::LabeledWindow>& windows,
                           std::size_t num_vars) {
  std::vector<int> labels;
  labels.reserve(windows.size());
  for (const auto& w : windows) labels.push_back(w.failure_follows ? 1 : 0);
  std::vector<double> label_d(labels.begin(), labels.end());

  VariablePick best;
  double best_abs = -1.0;
  std::vector<double> column(windows.size());
  for (std::size_t j = 0; j < num_vars; ++j) {
    for (std::size_t i = 0; i < windows.size(); ++i) {
      column[i] = windows[i].features[j];
    }
    const double corr = num::pearson(column, label_d);
    if (std::abs(corr) > best_abs) {
      best_abs = std::abs(corr);
      best.index = j;
      best.direction = corr >= 0.0 ? 1.0 : -1.0;
      best.mean = num::mean(column);
      best.stddev = std::max(num::stddev(column), 1e-9);
    }
  }
  return best;
}

std::vector<mon::LabeledWindow> require_windows(
    const mon::MonitoringDataset& data, const WindowGeometry& g,
    const char* who) {
  const auto windows = data.labeled_windows(g.lead_time, g.prediction_window);
  std::size_t positives = 0;
  for (const auto& w : windows) positives += w.failure_follows ? 1 : 0;
  if (windows.empty() || positives == 0 || positives == windows.size()) {
    throw std::invalid_argument(std::string(who) +
                                ": need both classes in training data");
  }
  return windows;
}

// Out-of-line slow paths keep the batched scorers' bodies free of throw
// statements (pfm-analyze hotpath); messages match score()'s.
// pfm-cold
[[noreturn]] void throw_contexts_size_mismatch() {
  throw std::invalid_argument("score_batch: contexts/out size mismatch");
}
// pfm-cold
[[noreturn]] void throw_sequences_size_mismatch() {
  throw std::invalid_argument("score_batch: sequences/out size mismatch");
}
// pfm-cold
[[noreturn]] void throw_trend_not_trained() {
  throw std::logic_error("TrendPredictor: not trained");
}
// pfm-cold
[[noreturn]] void throw_trend_empty_context() {
  throw std::invalid_argument("TrendPredictor: empty context");
}
// pfm-cold
[[noreturn]] void throw_eventset_not_trained() {
  throw std::logic_error("EventsetPredictor: not trained");
}

}  // namespace

// --- ThresholdPredictor ------------------------------------------------------

ThresholdPredictor::ThresholdPredictor(WindowGeometry windows)
    : windows_(windows) {
  windows_.validate();
}

void ThresholdPredictor::train(const mon::MonitoringDataset& data) {
  const auto windows = require_windows(data, windows_, "ThresholdPredictor");
  const auto pick = pick_variable(windows, data.schema().size());
  variable_ = pick.index;
  direction_ = pick.direction;
  mean_ = pick.mean;
  stddev_ = pick.stddev;
  trained_ = true;
}

double ThresholdPredictor::score(const SymptomContext& context) const {
  if (!trained_) throw std::logic_error("ThresholdPredictor: not trained");
  if (context.history.empty()) {
    throw std::invalid_argument("ThresholdPredictor: empty context");
  }
  const double v = context.history.back().values.at(variable_);
  return num::sigmoid(direction_ * (v - mean_) / stddev_);
}

// --- TrendPredictor ----------------------------------------------------------

TrendPredictor::TrendPredictor(WindowGeometry windows) : windows_(windows) {
  windows_.validate();
}

void TrendPredictor::train(const mon::MonitoringDataset& data) {
  const auto windows = require_windows(data, windows_, "TrendPredictor");
  const auto pick = pick_variable(windows, data.schema().size());
  variable_ = pick.index;
  direction_ = pick.direction;
  mean_ = pick.mean;
  stddev_ = pick.stddev;
  // Slope scale: a change of one stddev over the data window is "big".
  slope_scale_ = windows_.data_window / stddev_;
  trained_ = true;
}

double TrendPredictor::score(const SymptomContext& context) const {
  if (!trained_) throw std::logic_error("TrendPredictor: not trained");
  if (context.history.empty()) {
    throw std::invalid_argument("TrendPredictor: empty context");
  }
  const double level = context.history.back().values.at(variable_);
  const double z_level = direction_ * (level - mean_) / stddev_;

  double z_slope = 0.0;
  if (context.history.size() >= 2) {
    std::vector<double> t, v;
    t.reserve(context.history.size());
    v.reserve(context.history.size());
    for (const auto& s : context.history) {
      t.push_back(s.time);
      v.push_back(s.values.at(variable_));
    }
    const auto fit = num::fit_line(t, v);
    z_slope = direction_ * fit.slope * slope_scale_;
  }
  // Level tells where we are, the slope where we are heading (projected
  // resource exhaustion); both oriented so positive means failure-prone.
  return num::sigmoid(0.7 * z_level + 1.1 * z_slope);
}

// pfm-hot
void TrendPredictor::score_batch(std::span<const SymptomContext> contexts,
                                 std::span<double> out,
                                 BatchScratch& scratch) const {
  if (contexts.size() != out.size()) {
    throw_contexts_size_mismatch();
  }
  if (!trained_) throw_trend_not_trained();
  for (std::size_t i = 0; i < contexts.size(); ++i) {
    const auto& ctx = contexts[i];
    if (ctx.history.empty()) {
      throw_trend_empty_context();
    }
    const double level = ctx.history.back().values.at(variable_);
    const double z_level = direction_ * (level - mean_) / stddev_;
    double z_slope = 0.0;
    if (ctx.history.size() >= 2) {
      scratch.t_buf.clear();
      scratch.v_buf.clear();
      for (const auto& s : ctx.history) {
        scratch.t_buf.push_back(s.time);
        scratch.v_buf.push_back(s.values.at(variable_));
      }
      const auto fit = num::fit_line(scratch.t_buf, scratch.v_buf);
      z_slope = direction_ * fit.slope * slope_scale_;
    }
    out[i] = num::sigmoid(0.7 * z_level + 1.1 * z_slope);
  }
}

// --- FailureTrackingPredictor --------------------------------------------------

FailureTrackingPredictor::FailureTrackingPredictor(WindowGeometry windows)
    : windows_(windows) {
  windows_.validate();
}

void FailureTrackingPredictor::train(const mon::MonitoringDataset& data) {
  const auto failures = data.failures();
  if (failures.size() < 3) {
    throw std::invalid_argument(
        "FailureTrackingPredictor: need >= 3 failures to fit inter-arrivals");
  }
  std::vector<double> gaps;
  gaps.reserve(failures.size() - 1);
  for (std::size_t i = 1; i < failures.size(); ++i) {
    const double g = failures[i] - failures[i - 1];
    if (g > 0.0) gaps.push_back(g);
  }
  if (gaps.size() < 2) {
    throw std::invalid_argument(
        "FailureTrackingPredictor: degenerate failure log");
  }
  exponential_ = num::Exponential::mle(gaps);
  try {
    weibull_ = num::Weibull::mle(gaps);
    // Prefer Weibull when it meaningfully improves the fit.
    std::vector<double> g(gaps.begin(), gaps.end());
    const num::Weibull as_exp{1.0, 1.0 / exponential_.rate};
    use_weibull_ =
        weibull_.log_likelihood(g) > as_exp.log_likelihood(g) + 1.0;
  } catch (const std::exception&) {
    use_weibull_ = false;
  }
  trained_ = true;
}

double FailureTrackingPredictor::score(const SymptomContext& context) const {
  if (!trained_) {
    throw std::logic_error("FailureTrackingPredictor: not trained");
  }
  const double now = context.now();
  double since = now;  // no failure yet: age since trace start
  if (!context.past_failures.empty()) {
    since = now - context.past_failures.back();
  }
  const double horizon_start = since + windows_.lead_time;
  const double horizon_end = horizon_start + windows_.prediction_window;
  // P(failure in [t_l, t_l + t_p] | survived `since`).
  double s0, s1;
  if (use_weibull_) {
    s0 = weibull_.survival(horizon_start);
    s1 = weibull_.survival(horizon_end);
  } else {
    s0 = exponential_.survival(horizon_start);
    s1 = exponential_.survival(horizon_end);
  }
  if (s0 <= 0.0) return 1.0;
  return 1.0 - s1 / s0;
}

// --- DftPredictor -------------------------------------------------------------

DftPredictor::DftPredictor() = default;

void DftPredictor::train(
    std::span<const mon::ErrorSequence> failure_sequences,
    std::span<const mon::ErrorSequence> nonfailure_sequences) {
  if (failure_sequences.empty() || nonfailure_sequences.empty()) {
    throw std::invalid_argument("DftPredictor::train: need both classes");
  }
  // Calibrate the rate rule on the 95th percentile of non-failure windows.
  std::vector<double> counts;
  counts.reserve(nonfailure_sequences.size());
  for (const auto& s : nonfailure_sequences) {
    counts.push_back(static_cast<double>(s.events.size()));
  }
  rate_threshold_ = std::max(num::quantile(counts, 0.95), 2.0);
  trained_ = true;
}

double DftPredictor::score(const mon::ErrorSequence& seq) const {
  if (!trained_) throw std::logic_error("DftPredictor: not trained");
  const auto& ev = seq.events;
  if (ev.empty()) return 0.0;

  // The original DFT rules operate on dispersion frames: the intervals
  // between successive errors of the same problem source. We apply them to
  // the window's inter-arrival structure.
  int fired = 0;
  // 3.3 rule: two successive inter-arrival frames each at most half of the
  // one before them (errors accelerating).
  if (ev.size() >= 4) {
    const double f1 = ev[ev.size() - 1].time - ev[ev.size() - 2].time;
    const double f2 = ev[ev.size() - 2].time - ev[ev.size() - 3].time;
    const double f3 = ev[ev.size() - 3].time - ev[ev.size() - 4].time;
    if (f3 > 0.0 && f2 <= 0.5 * f3 && f2 > 0.0 && f1 <= 0.5 * f2) ++fired;
  }
  // 2-in-1 rule: two errors within a tenth of the data window.
  if (ev.size() >= 2) {
    const double window = seq.end_time - ev.front().time;
    const double last_gap = ev[ev.size() - 1].time - ev[ev.size() - 2].time;
    if (window > 0.0 && last_gap <= window / 10.0) ++fired;
  }
  // 4-in-1 rule: at least four errors in the most recent half window.
  if (ev.size() >= 4) {
    const double half_start =
        seq.end_time - 0.5 * (seq.end_time - ev.front().time);
    int recent = 0;
    for (const auto& e : ev) recent += e.time >= half_start ? 1 : 0;
    if (recent >= 4) ++fired;
  }
  // Frequency rule: more errors than the calibrated non-failure ceiling.
  if (static_cast<double>(ev.size()) > rate_threshold_) ++fired;
  // Soft score: rules dominate, a small density term breaks ties.
  const double density =
      std::min(static_cast<double>(ev.size()) / (rate_threshold_ * 4.0), 0.19);
  return static_cast<double>(fired) / 4.0 * 0.8 + density;
}

// --- EventsetPredictor ----------------------------------------------------------

EventsetPredictor::EventsetPredictor(Config config) : config_(config) {
  if (config_.min_support <= 0.0 || config_.min_support > 1.0 ||
      config_.min_confidence <= 0.0 || config_.min_confidence > 1.0 ||
      config_.max_set_size == 0) {
    throw std::invalid_argument("EventsetPredictor: bad mining parameters");
  }
}

void EventsetPredictor::train(
    std::span<const mon::ErrorSequence> failure_sequences,
    std::span<const mon::ErrorSequence> nonfailure_sequences) {
  if (failure_sequences.empty() || nonfailure_sequences.empty()) {
    throw std::invalid_argument("EventsetPredictor::train: need both classes");
  }
  // Distinct event-id sets per sequence.
  auto id_set = [](const mon::ErrorSequence& s) {
    std::set<std::int32_t> ids;
    for (const auto& e : s.events) ids.insert(e.event_id);
    return ids;
  };
  std::vector<std::set<std::int32_t>> fail_sets, ok_sets;
  for (const auto& s : failure_sequences) fail_sets.push_back(id_set(s));
  for (const auto& s : nonfailure_sequences) ok_sets.push_back(id_set(s));

  // Candidate generation: frequent singletons in failure windows, then
  // pairs (and larger, up to max_set_size) of frequent singletons.
  std::map<std::int32_t, std::size_t> singleton_count;
  for (const auto& s : fail_sets) {
    for (auto id : s) ++singleton_count[id];
  }
  const auto min_count = static_cast<std::size_t>(
      config_.min_support * static_cast<double>(fail_sets.size()));
  std::vector<std::int32_t> frequent;
  for (const auto& [id, c] : singleton_count) {
    if (c >= std::max<std::size_t>(min_count, 1)) frequent.push_back(id);
  }

  std::vector<std::vector<std::int32_t>> candidates;
  for (auto id : frequent) candidates.push_back({id});
  if (config_.max_set_size >= 2) {
    for (std::size_t i = 0; i < frequent.size(); ++i) {
      for (std::size_t j = i + 1; j < frequent.size(); ++j) {
        candidates.push_back({frequent[i], frequent[j]});
      }
    }
  }
  if (config_.max_set_size >= 3) {
    for (std::size_t i = 0; i < frequent.size(); ++i) {
      for (std::size_t j = i + 1; j < frequent.size(); ++j) {
        for (std::size_t k = j + 1; k < frequent.size(); ++k) {
          candidates.push_back({frequent[i], frequent[j], frequent[k]});
        }
      }
    }
  }

  auto contains_all = [](const std::set<std::int32_t>& have,
                         const std::vector<std::int32_t>& want) {
    for (auto id : want) {
      if (!have.contains(id)) return false;
    }
    return true;
  };

  sets_.clear();
  for (auto& cand : candidates) {
    std::size_t in_fail = 0, in_ok = 0;
    for (const auto& s : fail_sets) in_fail += contains_all(s, cand) ? 1 : 0;
    if (in_fail < std::max<std::size_t>(min_count, 1)) continue;
    for (const auto& s : ok_sets) in_ok += contains_all(s, cand) ? 1 : 0;
    const double confidence = static_cast<double>(in_fail) /
                              static_cast<double>(in_fail + in_ok);
    if (confidence >= config_.min_confidence) {
      sets_.push_back({std::move(cand), confidence});
    }
  }
  base_rate_ =
      static_cast<double>(failure_sequences.size()) /
      static_cast<double>(failure_sequences.size() + nonfailure_sequences.size());
  trained_ = true;
}

double EventsetPredictor::score(const mon::ErrorSequence& sequence) const {
  if (!trained_) throw std::logic_error("EventsetPredictor: not trained");
  std::set<std::int32_t> have;
  for (const auto& e : sequence.events) have.insert(e.event_id);
  double best = base_rate_ * 0.5;  // nothing matched: below base rate
  for (const auto& ms : sets_) {
    bool all = true;
    for (auto id : ms.ids) {
      if (!have.contains(id)) {
        all = false;
        break;
      }
    }
    if (all) best = std::max(best, ms.confidence);
  }
  return best;
}

// pfm-hot
void EventsetPredictor::score_batch(std::span<const mon::ErrorSequence> sequences,
                                    std::span<double> out,
                                    BatchScratch& scratch) const {
  if (sequences.size() != out.size()) {
    throw_sequences_size_mismatch();
  }
  if (!trained_) throw_eventset_not_trained();
  // Membership via a sorted scratch vector instead of a node-based
  // std::set: same containment answers, zero allocations after warm-up.
  std::vector<std::int32_t>& have = scratch.ids;
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    have.clear();
    for (const auto& e : sequences[i].events) have.push_back(e.event_id);
    std::sort(have.begin(), have.end());
    double best = base_rate_ * 0.5;
    for (const auto& ms : sets_) {
      bool all = true;
      for (auto id : ms.ids) {
        if (!std::binary_search(have.begin(), have.end(), id)) {
          all = false;
          break;
        }
      }
      if (all) best = std::max(best, ms.confidence);
    }
    out[i] = best;
  }
}

}  // namespace pfm::pred
