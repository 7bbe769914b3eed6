#include "eval/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>

namespace pfm::eval {

double ContingencyTable::precision() const noexcept {
  const auto denom = true_positives + false_positives;
  return denom == 0 ? 1.0
                    : static_cast<double>(true_positives) /
                          static_cast<double>(denom);
}

double ContingencyTable::recall() const noexcept {
  const auto denom = true_positives + false_negatives;
  return denom == 0 ? 1.0
                    : static_cast<double>(true_positives) /
                          static_cast<double>(denom);
}

double ContingencyTable::false_positive_rate() const noexcept {
  const auto denom = false_positives + true_negatives;
  return denom == 0 ? 0.0
                    : static_cast<double>(false_positives) /
                          static_cast<double>(denom);
}

double ContingencyTable::f_measure() const noexcept {
  const double p = precision();
  const double r = recall();
  return p + r <= 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

double ContingencyTable::accuracy() const noexcept {
  const auto n = total();
  return n == 0 ? 0.0
                : static_cast<double>(true_positives + true_negatives) /
                      static_cast<double>(n);
}

ContingencyTable score_contingency(std::span<const double> scores,
                                   std::span<const int> labels,
                                   double threshold) {
  if (scores.size() != labels.size()) {
    throw std::invalid_argument("score_contingency: length mismatch");
  }
  ContingencyTable t;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const bool warn = scores[i] >= threshold;
    const bool fail = labels[i] != 0;
    if (warn && fail) {
      ++t.true_positives;
    } else if (warn && !fail) {
      ++t.false_positives;
    } else if (!warn && fail) {
      ++t.false_negatives;
    } else {
      ++t.true_negatives;
    }
  }
  return t;
}

namespace {

/// One threshold of the sweep: warning iff score >= threshold flags `tp`
/// positives and `fp` negatives.
struct Step {
  double threshold = 0.0;
  std::size_t tp = 0;
  std::size_t fp = 0;
};

[[noreturn]] void reject(const char* who, const char* why) {
  throw std::invalid_argument(std::string(who) + ": " + why);
}

/// Every distinct score as a threshold, highest first, with the cumulative
/// counts it flags: the one sort behind the curves, AUC and the max-F
/// point. The last step flags everything, so it holds the class totals.
std::vector<Step> sweep(std::span<const double> scores,
                        std::span<const int> labels, const char* who) {
  if (scores.size() != labels.size()) reject(who, "length mismatch");
  if (scores.empty()) reject(who, "empty input");
  // NaN breaks the sort's strict weak ordering; +-inf still orders.
  if (std::any_of(scores.begin(), scores.end(),
                  [](double s) { return std::isnan(s); })) {
    reject(who, "NaN score");
  }
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] > scores[b];
  });
  std::vector<Step> steps;
  Step step;
  for (std::size_t i = 0; i < order.size();) {
    step.threshold = scores[order[i]];
    // Consume the whole tie group at this score.
    for (; i < order.size() && scores[order[i]] == step.threshold; ++i) {
      ++(labels[order[i]] != 0 ? step.tp : step.fp);
    }
    steps.push_back(step);
  }
  return steps;
}

std::vector<Step> two_class_sweep(std::span<const double> scores,
                                  std::span<const int> labels,
                                  const char* who) {
  auto steps = sweep(scores, labels, who);
  if (steps.back().tp == 0 || steps.back().fp == 0) {
    reject(who, "labels are single-class");
  }
  return steps;
}

double ratio(std::size_t num, std::size_t den) {
  return static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

std::vector<RocPoint> roc_curve(std::span<const double> scores,
                                std::span<const int> labels) {
  const auto steps = two_class_sweep(scores, labels, "roc_curve");
  const Step& all = steps.back();
  std::vector<RocPoint> roc{{steps.front().threshold + 1.0, 0.0, 0.0, 1.0}};
  for (const Step& s : steps) {
    roc.push_back({s.threshold, ratio(s.tp, all.tp), ratio(s.fp, all.fp),
                   ratio(s.tp, s.tp + s.fp)});
  }
  return roc;
}

double auc(std::span<const RocPoint> roc) {
  double area = 0.0;
  for (std::size_t i = 1; i < roc.size(); ++i) {
    const double dx =
        roc[i].false_positive_rate - roc[i - 1].false_positive_rate;
    area += dx * 0.5 *
            (roc[i].true_positive_rate + roc[i - 1].true_positive_rate);
  }
  return area;
}

double auc(std::span<const double> scores, std::span<const int> labels) {
  return auc(roc_curve(scores, labels));
}

std::vector<PrPoint> pr_curve(std::span<const double> scores,
                              std::span<const int> labels) {
  const auto steps = two_class_sweep(scores, labels, "pr_curve");
  const Step& all = steps.back();
  std::vector<PrPoint> out;
  out.reserve(steps.size());
  for (const Step& s : steps) {
    out.push_back({s.threshold, ratio(s.tp, all.tp), ratio(s.tp, s.tp + s.fp)});
  }
  return out;
}

double average_precision(std::span<const double> scores,
                         std::span<const int> labels) {
  const auto curve = pr_curve(scores, labels);
  double ap = 0.0;
  double prev_recall = 0.0;
  for (const auto& p : curve) {
    ap += (p.recall - prev_recall) * p.precision;
    prev_recall = p.recall;
  }
  return ap;
}

ThresholdChoice max_f_measure_threshold(std::span<const double> scores,
                                        std::span<const int> labels) {
  const auto steps = sweep(scores, labels, "max_f_measure_threshold");
  const Step& all = steps.back();
  // High to low threshold; `>=` keeps the lowest threshold among equal F.
  ThresholdChoice best;
  double best_f = -1.0;
  for (const Step& s : steps) {
    const ContingencyTable table{.true_positives = s.tp,
                                 .false_positives = s.fp,
                                 .true_negatives = all.fp - s.fp,
                                 .false_negatives = all.tp - s.tp};
    const double f = table.f_measure();
    if (f >= best_f) {
      best_f = f;
      best = {s.threshold, table};
    }
  }
  return best;
}

std::string summary(const ContingencyTable& t) {
  std::ostringstream os;
  os.precision(4);
  os << "precision=" << t.precision() << " recall=" << t.recall()
     << " fpr=" << t.false_positive_rate() << " F=" << t.f_measure()
     << " (tp=" << t.true_positives << " fp=" << t.false_positives
     << " tn=" << t.true_negatives << " fn=" << t.false_negatives << ")";
  return os.str();
}

}  // namespace pfm::eval
