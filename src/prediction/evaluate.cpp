#include "prediction/evaluate.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace pfm::pred {

namespace {

/// Sect. 3.3 label of instant t: 1 when a failure strikes inside its
/// target window [t + lead, t + lead + prediction window), which opens at
/// t itself when early failures count; nullopt when the window runs past
/// the end of the trace (not labelable).
std::optional<int> target_label(const mon::MonitoringDataset& test,
                                const EvalOptions& options, double t) {
  const double w_end =
      t + options.windows.lead_time + options.windows.prediction_window;
  if (w_end > test.end_time()) return std::nullopt;
  const double w_begin =
      options.count_early_failures ? t : t + options.windows.lead_time;
  return test.failure_within(w_begin, w_end) ? 1 : 0;
}

}  // namespace

std::vector<ScoredInstant> score_on_grid(const SymptomPredictor& predictor,
                                         const mon::MonitoringDataset& test,
                                         const EvalOptions& options) {
  options.windows.validate();
  const auto samples = test.samples();
  const auto failures = test.failures();
  std::vector<ScoredInstant> out;
  out.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double t = samples[i].time;
    const auto label = target_label(test, options, t);
    if (!label) break;

    const std::size_t first =
        i + 1 >= options.context_samples ? i + 1 - options.context_samples : 0;
    SymptomContext ctx;
    ctx.history = samples.subspan(first, i - first + 1);
    const auto past_end =
        std::upper_bound(failures.begin(), failures.end(), t);
    ctx.past_failures = failures.first(
        static_cast<std::size_t>(past_end - failures.begin()));
    out.push_back({t, predictor.score(ctx), *label});
  }
  return out;
}

std::vector<ScoredInstant> score_on_grid(const EventPredictor& predictor,
                                         const mon::MonitoringDataset& test,
                                         const EvalOptions& options) {
  options.windows.validate();
  if (options.stride <= 0.0) {
    throw std::invalid_argument("score_on_grid: stride must be positive");
  }
  std::vector<ScoredInstant> out;
  for (double t = test.start_time() + options.windows.data_window;;
       t += options.stride) {
    const auto label = target_label(test, options, t);
    if (!label) break;
    mon::ErrorSequence seq;
    seq.events = test.events_in(t - options.windows.data_window, t);
    seq.end_time = t;
    out.push_back({t, predictor.score(seq), *label});
  }
  return out;
}

PredictorReport make_report(std::string name,
                            const std::vector<ScoredInstant>& instants) {
  if (instants.empty()) {
    throw std::invalid_argument("make_report: no instants");
  }
  std::vector<double> scores;
  std::vector<int> labels;
  scores.reserve(instants.size());
  labels.reserve(instants.size());
  for (const auto& si : instants) {
    scores.push_back(si.score);
    labels.push_back(si.label);
  }
  PredictorReport r;
  r.name = std::move(name);
  r.num_instants = instants.size();
  for (int y : labels) r.num_positive += y != 0 ? 1 : 0;
  r.auc = eval::auc(scores, labels);  // throws on single-class labels
  const auto choice = eval::max_f_measure_threshold(scores, labels);
  r.threshold = choice.threshold;
  r.table = choice.table;
  return r;
}

std::string to_string(const PredictorReport& r) {
  std::ostringstream os;
  os.precision(3);
  os << r.name << ": AUC=" << r.auc << " precision=" << r.precision()
     << " recall=" << r.recall() << " fpr=" << r.false_positive_rate()
     << " F=" << r.f_measure() << " (n=" << r.num_instants
     << ", positives=" << r.num_positive << ")";
  return os.str();
}

}  // namespace pfm::pred
