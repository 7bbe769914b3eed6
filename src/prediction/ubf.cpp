#include "prediction/ubf.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "eval/metrics.hpp"
#include "numerics/kmeans.hpp"
#include "numerics/stats.hpp"
#include "numerics/linalg.hpp"
#include "numerics/logistic.hpp"
#include "numerics/matrix.hpp"
#include "numerics/optimize.hpp"
#include "numerics/rng.hpp"

namespace pfm::pred {

namespace {

/// A class-stratified design set: scaled feature rows (row-major, `dim`
/// columns) plus binary labels.
struct DesignSet {
  std::vector<double> x;
  std::size_t dim = 0;
  std::vector<int> y;

  std::size_t rows() const noexcept { return y.size(); }
  std::span<const double> row(std::size_t i) const {
    return {x.data() + i * dim, dim};
  }
};

/// Copies the given columns of `all` into `out`, reusing its storage.
void gather_columns(const DesignSet& all, std::span<const std::size_t> cols,
                    DesignSet& out) {
  out.dim = cols.size();
  out.y = all.y;
  out.x.resize(all.rows() * cols.size());
  double* dst = out.x.data();
  for (std::size_t i = 0; i < all.rows(); ++i) {
    const double* src = all.x.data() + i * all.dim;
    for (std::size_t c : cols) *dst++ = src[c];
  }
}

double distance(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

/// Quick reference model used inside variable selection: k-means centers,
/// fixed-width Gaussian kernels, ridge least squares. Returns validation
/// AUC (0.5 when degenerate).
double quick_fit_auc(const DesignSet& train, const DesignSet& val,
                     std::size_t num_kernels, double ridge, num::Rng& rng) {
  const std::size_t n = train.rows();
  if (n < 4 || val.rows() == 0) return 0.5;
  const std::size_t dim = train.dim;
  if (dim == 0) return 0.5;
  const std::size_t k = std::min(num_kernels, n / 2);
  if (k == 0) return 0.5;

  const auto km = num::kmeans(train.x, dim, k, rng, 30);

  // Width: mean distance between centers (or 1.0 for a single kernel).
  double width = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i + 1; j < k; ++j) {
      width += distance(km.center(i), km.center(j));
      ++pairs;
    }
  }
  width = pairs > 0 ? std::max(width / static_cast<double>(pairs), 1e-3) : 1.0;

  auto design_row = [&](std::span<const double> x, std::vector<double>& row) {
    for (std::size_t i = 0; i < k; ++i) {
      const double d = distance(x, km.center(i));
      row[i] = std::exp(-d * d / (2.0 * width * width));
    }
    row[k] = 1.0;
  };

  num::Matrix a(n, k + 1);
  std::vector<double> row(k + 1);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    design_row(train.row(i), row);
    for (std::size_t j = 0; j <= k; ++j) a(i, j) = row[j];
    b[i] = static_cast<double>(train.y[i]);
  }
  std::vector<double> w;
  try {
    w = num::least_squares(a, b, ridge);
  } catch (const std::exception&) {
    return 0.5;
  }

  std::vector<double> scores(val.rows());
  for (std::size_t i = 0; i < val.rows(); ++i) {
    design_row(val.row(i), row);
    scores[i] = num::dot(row, w);
  }
  try {
    return eval::auc(scores, val.y);
  } catch (const std::exception&) {
    return 0.5;
  }
}

}  // namespace

UbfPredictor::UbfPredictor(UbfConfig config) : config_(std::move(config)) {
  config_.windows.validate();
  if (config_.num_kernels == 0) {
    throw std::invalid_argument("UbfPredictor: num_kernels must be > 0");
  }
  if (config_.selection == VariableSelection::kExpert &&
      config_.expert_variables.empty()) {
    throw std::invalid_argument(
        "UbfPredictor: expert selection needs expert_variables");
  }
}

std::string UbfPredictor::name() const {
  return config_.mixture_kernels ? "UBF" : "RBF";
}

double UbfPredictor::evaluate_kernel(const Kernel& k,
                                     std::span<const double> x) const {
  return kernel_at(k, distance(x, k.center));
}

double UbfPredictor::kernel_at(const Kernel& k, double d) const {
  const double w = std::max(k.width, 1e-6);
  // Eq. 1: mixture of a Gaussian "peak" and a sigmoidal "step" over the
  // distance to the kernel center.
  const double gaussian = std::exp(-d * d / (2.0 * w * w));
  if (!config_.mixture_kernels) return gaussian;
  const double step = 1.0 / (1.0 + std::exp((d - w) / (0.3 * w)));
  return k.mixture * gaussian + (1.0 - k.mixture) * step;
}

std::vector<double> UbfPredictor::features_of(
    std::span<const double> raw) const {
  std::vector<double> out(selected_.size());
  for (std::size_t i = 0; i < selected_.size(); ++i) {
    const double lo = feature_lo_[i];
    const double hi = feature_hi_[i];
    const double range = hi - lo;
    double v = range > 0.0 ? (raw[selected_[i]] - lo) / range : 0.5;
    // Clamp mild extrapolation so unseen extremes stay in kernel reach.
    out[i] = std::clamp(v, -0.5, 1.5);
  }
  return out;
}

double UbfPredictor::raw_score(std::span<const double> x) const {
  double s = weights_.back();  // bias
  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    s += weights_[i] * evaluate_kernel(kernels_[i], x);
  }
  return s;
}

void UbfPredictor::train(const mon::MonitoringDataset& data) {
  num_raw_vars_ = data.schema().size();
  auto windows = data.labeled_windows(config_.windows.lead_time,
                                      config_.windows.prediction_window);
  std::size_t positives = 0;
  for (const auto& w : windows) positives += w.failure_follows ? 1 : 0;
  if (windows.empty() || positives == 0 || positives == windows.size()) {
    throw std::invalid_argument(
        "UbfPredictor::train: need both failure and non-failure windows");
  }
  const std::size_t num_vars =
      config_.include_trend_features ? 2 * num_raw_vars_ : num_raw_vars_;

  num::Rng rng(config_.seed);

  // Class-stratified subsample, then 70/30 stratified train/validation.
  std::vector<std::size_t> pos_idx, neg_idx;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    (windows[i].failure_follows ? pos_idx : neg_idx).push_back(i);
  }
  auto subsample = [&](std::vector<std::size_t>& idx, std::size_t cap) {
    if (idx.size() <= cap) return;
    const auto perm = rng.permutation(idx.size());
    std::vector<std::size_t> keep(cap);
    for (std::size_t i = 0; i < cap; ++i) keep[i] = idx[perm[i]];
    idx = std::move(keep);
  };
  // Keep all positives up to half the budget; negatives fill the rest.
  subsample(pos_idx, config_.max_train_windows / 2);
  subsample(neg_idx, config_.max_train_windows - pos_idx.size());

  auto make_split = [&](const std::vector<std::size_t>& idx,
                        std::vector<std::size_t>& train_part,
                        std::vector<std::size_t>& val_part) {
    const auto perm = rng.permutation(idx.size());
    const std::size_t cut = (idx.size() * 7) / 10;
    for (std::size_t i = 0; i < idx.size(); ++i) {
      (i < cut ? train_part : val_part).push_back(idx[perm[i]]);
    }
  };
  std::vector<std::size_t> train_idx, val_idx;
  make_split(pos_idx, train_idx, val_idx);
  make_split(neg_idx, train_idx, val_idx);

  // One row per sub-sampled window: its levels, then (with trend
  // features) the trailing slope of every variable, regressed over the
  // data window ending at the window's sample. Only these rows are ever
  // read, so the labelled windows are released once they are built.
  const auto samples = data.samples();
  std::vector<double> t_buf, v_buf;
  auto feature_rows = [&](const std::vector<std::size_t>& idx) {
    DesignSet set;
    set.dim = num_vars;
    set.x.reserve(idx.size() * num_vars);
    set.y.reserve(idx.size());
    for (std::size_t i : idx) {
      const auto& w = windows[i];
      set.x.insert(set.x.end(), w.features.begin(), w.features.end());
      set.y.push_back(w.failure_follows ? 1 : 0);
      if (!config_.include_trend_features) continue;
      // First sample inside the data window, and the sample at w.time.
      const double t = w.time;
      const auto first = std::partition_point(
          samples.begin(), samples.end(), [&](const mon::SymptomSample& s) {
            return s.time <= t - config_.windows.data_window;
          });
      const auto last = std::partition_point(
          first, samples.end(),
          [&](const mon::SymptomSample& s) { return s.time < t; });
      const auto begin = static_cast<std::size_t>(first - samples.begin());
      const auto end = static_cast<std::size_t>(last - samples.begin());
      const std::size_t count = end - begin + 1;
      for (std::size_t j = 0; j < num_raw_vars_; ++j) {
        double slope = 0.0;
        if (count >= 2 && end < samples.size()) {
          t_buf.clear();
          v_buf.clear();
          for (std::size_t s = begin; s <= end; ++s) {
            t_buf.push_back(samples[s].time);
            v_buf.push_back(samples[s].values[j]);
          }
          slope = num::fit_line(t_buf, v_buf).slope;
        }
        set.x.push_back(slope);
      }
    }
    return set;
  };
  DesignSet train_all = feature_rows(train_idx);
  DesignSet val_all = feature_rows(val_idx);
  std::vector<mon::LabeledWindow>().swap(windows);

  // Global per-variable scaling learned on the training part, applied to
  // every row once.
  std::vector<double> lo(num_vars, 1e300), hi(num_vars, -1e300);
  for (std::size_t i = 0; i < train_all.rows(); ++i) {
    const auto row = train_all.row(i);
    for (std::size_t j = 0; j < num_vars; ++j) {
      lo[j] = std::min(lo[j], row[j]);
      hi[j] = std::max(hi[j], row[j]);
    }
  }
  for (DesignSet* set : {&train_all, &val_all}) {
    for (std::size_t i = 0; i < set->rows(); ++i) {
      double* row = set->x.data() + i * num_vars;
      for (std::size_t j = 0; j < num_vars; ++j) {
        const double range = hi[j] - lo[j];
        row[j] = range > 0.0 ? (row[j] - lo[j]) / range : 0.5;
      }
    }
  }

  // Each candidate subset is gathered once; both repetitions share it.
  DesignSet subset_train, subset_val;
  auto evaluate_subset = [&](const std::vector<std::size_t>& subset) {
    if (subset.empty()) return 0.0;
    gather_columns(train_all, subset, subset_train);
    gather_columns(val_all, subset, subset_val);
    // Two repetitions with different center seeds halve the evaluation
    // noise the wrapper search must overcome.
    const double a1 =
        quick_fit_auc(subset_train, subset_val, 6, config_.ridge, rng);
    const double a2 =
        quick_fit_auc(subset_train, subset_val, 6, config_.ridge, rng);
    return 0.5 * (a1 + a2);
  };

  // ---- variable selection ---------------------------------------------------
  std::vector<std::size_t> all(num_vars);
  for (std::size_t j = 0; j < num_vars; ++j) all[j] = j;

  auto greedy_forward = [&]() {
    std::vector<std::size_t> current;
    double best_auc = 0.0;
    for (;;) {
      double round_best = best_auc + 1e-4;
      std::size_t round_var = num_vars;
      for (std::size_t j : all) {
        if (std::find(current.begin(), current.end(), j) != current.end()) {
          continue;
        }
        auto candidate = current;
        candidate.push_back(j);
        const double a = evaluate_subset(candidate);
        if (a > round_best) {
          round_best = a;
          round_var = j;
        }
      }
      if (round_var == num_vars) break;
      current.push_back(round_var);
      best_auc = round_best;
    }
    return current;
  };

  switch (config_.selection) {
    case VariableSelection::kAll:
      selected_ = all;
      break;
    case VariableSelection::kExpert:
      selected_ = config_.expert_variables;
      for (std::size_t v : selected_) {
        if (v >= num_vars) {
          throw std::invalid_argument("UbfPredictor: expert variable index");
        }
      }
      break;
    case VariableSelection::kForward: {
      auto current = greedy_forward();
      selected_ = current.empty() ? all : current;
      break;
    }
    case VariableSelection::kBackward: {
      std::vector<std::size_t> current = all;
      double best_auc = evaluate_subset(current);
      while (current.size() > 1) {
        double round_best = best_auc - 1e-4;  // tolerate tiny losses
        std::size_t drop_pos = current.size();
        for (std::size_t p = 0; p < current.size(); ++p) {
          auto candidate = current;
          candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(p));
          const double a = evaluate_subset(candidate);
          if (a >= round_best) {
            round_best = a;
            drop_pos = p;
          }
        }
        if (drop_pos == current.size()) break;
        current.erase(current.begin() + static_cast<std::ptrdiff_t>(drop_pos));
        best_auc = std::max(best_auc, round_best);
      }
      selected_ = current;
      break;
    }
    case VariableSelection::kPwa: {
      // Probabilistic wrapper ([35]): combines forward selection and
      // backward elimination in a probabilistic framework. We seed the
      // search with the greedy-forward solution, explore stochastically by
      // sampling subsets from per-variable inclusion probabilities (shifted
      // toward the elite subsets seen so far), and finish with local
      // add/remove refinement. A small parsimony bonus breaks ties in
      // favor of smaller subsets.
      const auto forward_seed = greedy_forward();
      std::vector<double> p(num_vars, 0.2);
      for (std::size_t j : forward_seed) p[j] = 0.8;
      struct Scored {
        double auc;
        std::vector<std::size_t> subset;
      };
      std::vector<Scored> seen;
      if (!forward_seed.empty()) {
        seen.push_back({evaluate_subset(forward_seed) -
                            0.002 * static_cast<double>(forward_seed.size()),
                        forward_seed});
      }
      for (std::size_t iter = 0; iter < config_.pwa_iterations; ++iter) {
        std::vector<std::size_t> subset;
        for (std::size_t j = 0; j < num_vars; ++j) {
          if (rng.bernoulli(p[j])) subset.push_back(j);
        }
        if (subset.empty()) {
          subset.push_back(static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(num_vars) - 1)));
        }
        const double parsimony =
            0.002 * static_cast<double>(subset.size());
        const double a = evaluate_subset(subset) - parsimony;
        seen.push_back({a, std::move(subset)});
        std::sort(seen.begin(), seen.end(),
                  [](const Scored& x, const Scored& y) { return x.auc > y.auc; });
        // Elite inclusion frequencies drive the sampling distribution.
        const std::size_t elite = std::max<std::size_t>(seen.size() / 4, 1);
        std::vector<double> freq(num_vars, 0.0);
        for (std::size_t e = 0; e < elite; ++e) {
          for (std::size_t j : seen[e].subset) freq[j] += 1.0;
        }
        for (std::size_t j = 0; j < num_vars; ++j) {
          const double target = freq[j] / static_cast<double>(elite);
          p[j] = std::clamp(0.5 * p[j] + 0.5 * (0.1 + 0.8 * target), 0.05,
                            0.95);
        }
      }
      std::vector<std::size_t> best =
          seen.front().subset.empty() ? all : seen.front().subset;
      double best_auc = evaluate_subset(best);
      // Local refinement, the "backward" and "forward" moves of the
      // wrapper: prune variables whose removal does not hurt, then try
      // adding each unused variable once.
      bool changed = true;
      while (changed && best.size() > 1) {
        changed = false;
        for (std::size_t pos = 0; pos < best.size(); ++pos) {
          auto candidate = best;
          candidate.erase(candidate.begin() +
                          static_cast<std::ptrdiff_t>(pos));
          const double a = evaluate_subset(candidate);
          if (a >= best_auc - 1e-4) {
            best = std::move(candidate);
            best_auc = std::max(best_auc, a);
            changed = true;
            break;
          }
        }
      }
      for (std::size_t j : all) {
        if (std::find(best.begin(), best.end(), j) != best.end()) continue;
        auto candidate = best;
        candidate.push_back(j);
        const double a = evaluate_subset(candidate);
        if (a > best_auc + 1e-3) {
          best = std::move(candidate);
          best_auc = a;
        }
      }
      // Final pick among the search's leading candidates by a repeated
      // (lower-variance) evaluation — many noisy comparisons above suffer
      // from the winner's curse, so the finalists get a cleaner contest.
      std::vector<std::vector<std::size_t>> finalists{best};
      if (!forward_seed.empty()) finalists.push_back(forward_seed);
      if (!seen.empty() && !seen.front().subset.empty()) {
        finalists.push_back(seen.front().subset);
      }
      double winner_score = -1.0;
      for (auto& candidate : finalists) {
        double acc = 0.0;
        for (int rep = 0; rep < 3; ++rep) acc += evaluate_subset(candidate);
        if (acc > winner_score) {
          winner_score = acc;
          selected_ = candidate;
        }
      }
      break;
    }
  }
  std::sort(selected_.begin(), selected_.end());

  // Freeze the scaling of the selected variables.
  feature_lo_.resize(selected_.size());
  feature_hi_.resize(selected_.size());
  for (std::size_t i = 0; i < selected_.size(); ++i) {
    feature_lo_[i] = lo[selected_[i]];
    feature_hi_[i] = hi[selected_[i]];
  }

  // ---- kernel placement ------------------------------------------------------
  DesignSet train_set, val_set;
  gather_columns(train_all, selected_, train_set);
  gather_columns(val_all, selected_, val_set);
  const std::size_t dim = selected_.size();
  const std::size_t k = std::min(config_.num_kernels, train_set.rows() / 2);

  const auto km = num::kmeans(train_set.x, dim, k, rng, 50);

  kernels_.clear();
  kernels_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    Kernel kn;
    kn.center.assign(km.center(i).begin(), km.center(i).end());
    // Initial width: RMS distance of the kernel's assigned points.
    double acc = 0.0;
    std::size_t cnt = 0;
    for (std::size_t n = 0; n < train_set.rows(); ++n) {
      if (km.assignment[n] != i) continue;
      const double d = distance(train_set.row(n), kn.center);
      acc += d * d;
      ++cnt;
    }
    kn.width = cnt > 0 ? std::max(std::sqrt(acc / static_cast<double>(cnt)), 0.05)
                       : 0.3;
    kn.mixture = 1.0;
    kernels_.push_back(std::move(kn));
  }

  // The shape search moves widths and mixtures, never centers: every
  // point-to-center distance is computed once, here.
  auto center_distances = [&](const DesignSet& set) {
    std::vector<double> d(set.rows() * k);
    for (std::size_t i = 0; i < set.rows(); ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        d[i * k + j] = distance(set.row(i), kernels_[j].center);
      }
    }
    return d;
  };
  const std::vector<double> train_dist = center_distances(train_set);
  const std::vector<double> val_dist = center_distances(val_set);

  // Solves output weights by ridge least squares for the current kernel
  // shapes and returns validation AUC.
  auto fit_weights_and_auc = [&]() {
    const std::size_t n = train_set.rows();
    num::Matrix a(n, k + 1);
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        a(i, j) = kernel_at(kernels_[j], train_dist[i * k + j]);
      }
      a(i, k) = 1.0;
      b[i] = static_cast<double>(train_set.y[i]);
    }
    weights_ = num::least_squares(a, b, config_.ridge);
    std::vector<double> scores(val_set.rows());
    for (std::size_t i = 0; i < val_set.rows(); ++i) {
      double s = weights_.back();  // bias, then kernels in order: raw_score()
      for (std::size_t j = 0; j < k; ++j) {
        s += weights_[j] * kernel_at(kernels_[j], val_dist[i * k + j]);
      }
      scores[i] = s;
    }
    try {
      return eval::auc(scores, val_set.y);
    } catch (const std::exception&) {
      return 0.5;
    }
  };

  if (config_.mixture_kernels) {
    // Tune per-kernel log-width and mixture logit on validation AUC.
    std::vector<double> theta;
    for (const auto& kn : kernels_) {
      theta.push_back(std::log(kn.width));
      theta.push_back(1.4);  // logit(m) ~ 0.8 to start near-Gaussian
    }
    auto apply_theta = [&](std::span<const double> th) {
      for (std::size_t i = 0; i < kernels_.size(); ++i) {
        kernels_[i].width = std::clamp(std::exp(th[2 * i]), 1e-3, 10.0);
        kernels_[i].mixture = num::sigmoid(th[2 * i + 1]);
      }
    };
    auto objective = [&](std::span<const double> th) {
      apply_theta(th);
      return 1.0 - fit_weights_and_auc();
    };
    num::NelderMeadOptions opts;
    opts.max_evaluations = config_.shape_evaluations;
    opts.initial_step = 0.4;
    const auto result = num::nelder_mead(objective, theta, opts);
    apply_theta(result.x);
  }
  validation_auc_ = fit_weights_and_auc();
  rebuild_score_cache();
  trained_ = true;
}

void UbfPredictor::rebuild_score_cache() {
  kernel_w_.resize(kernels_.size());
  kernel_two_w_sq_.resize(kernels_.size());
  kernel_step_scale_.resize(kernels_.size());
  kernel_mixture_.resize(kernels_.size());
  kernel_centers_.resize(kernels_.size() * selected_.size());
  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    const double w = std::max(kernels_[i].width, 1e-6);
    kernel_w_[i] = w;
    kernel_two_w_sq_[i] = 2.0 * w * w;
    kernel_step_scale_[i] = 0.3 * w;
    kernel_mixture_[i] = kernels_[i].mixture;
    std::copy(kernels_[i].center.begin(), kernels_[i].center.end(),
              kernel_centers_.begin() +
                  static_cast<std::ptrdiff_t>(i * selected_.size()));
  }
  feature_range_.resize(selected_.size());
  for (std::size_t i = 0; i < selected_.size(); ++i) {
    feature_range_[i] = feature_hi_[i] - feature_lo_[i];
  }
}

MixtureModelView UbfPredictor::score_view() const noexcept {
  MixtureModelView v;
  v.selected = selected_.data();
  v.dim = selected_.size();
  v.num_raw_vars = num_raw_vars_;
  v.lo = feature_lo_.data();
  v.range = feature_range_.data();
  v.centers = kernel_centers_.data();
  v.w = kernel_w_.data();
  v.two_w_sq = kernel_two_w_sq_.data();
  v.step_scale = kernel_step_scale_.data();
  v.mixture = kernel_mixture_.data();
  v.weights = weights_.data();
  v.num_kernels = kernels_.size();
  v.mixture_kernels = config_.mixture_kernels;
  v.data_window = config_.windows.data_window;
  return v;
}

MixtureModel UbfPredictor::export_model() const {
  if (!trained_) throw std::logic_error("UbfPredictor: not trained");
  MixtureModel m;
  m.name = name();
  m.mixture_kernels = config_.mixture_kernels;
  m.windows = config_.windows;
  m.num_raw_vars = num_raw_vars_;
  m.selected = selected_;
  m.lo = feature_lo_;
  m.range = feature_range_;
  m.centers = kernel_centers_;
  m.w = kernel_w_;
  m.two_w_sq = kernel_two_w_sq_;
  m.step_scale = kernel_step_scale_;
  m.mixture = kernel_mixture_;
  m.weights = weights_;
  return m;
}

std::vector<double> UbfPredictor::augmented_features(
    const SymptomContext& ctx) const {
  const auto& current = ctx.history.back();
  std::vector<double> raw(current.values.begin(), current.values.end());
  if (!config_.include_trend_features) return raw;
  raw.resize(2 * num_raw_vars_, 0.0);
  const auto window =
      slope_window(ctx.history, current.time - config_.windows.data_window);
  std::vector<double> t_buf, v_buf;
  for (std::size_t j = 0; j < num_raw_vars_; ++j) {
    t_buf.clear();
    v_buf.clear();
    for (const auto& s : window) {
      t_buf.push_back(s.time);
      v_buf.push_back(s.values[j]);
    }
    raw[num_raw_vars_ + j] =
        t_buf.size() >= 2 ? num::fit_line(t_buf, v_buf).slope : 0.0;
  }
  return raw;
}

std::vector<std::string> UbfPredictor::selected_feature_names(
    const mon::SymptomSchema& schema) const {
  std::vector<std::string> out;
  out.reserve(selected_.size());
  for (std::size_t idx : selected_) {
    out.push_back(idx < schema.size()
                      ? schema.name(idx)
                      : schema.name(idx - schema.size()) + ".slope");
  }
  return out;
}

double UbfPredictor::score(const SymptomContext& context) const {
  if (!trained_) throw std::logic_error("UbfPredictor: not trained");
  if (context.history.empty()) {
    throw std::invalid_argument("UbfPredictor: empty context");
  }
  const auto raw = augmented_features(context);
  const auto x = features_of(raw);
  // Bounded, order-preserving mapping of the raw function output.
  return num::sigmoid(4.0 * (raw_score(x) - 0.5));
}

namespace {

// Out-of-line slow paths keep the batched scorer's body free of throw
// statements (pfm-analyze hotpath); the messages match score()'s.
// pfm-cold
[[noreturn]] void throw_batch_size_mismatch() {
  throw std::invalid_argument("score_batch: contexts/out size mismatch");
}
// pfm-cold
[[noreturn]] void throw_not_trained() {
  throw std::logic_error("UbfPredictor: not trained");
}

}  // namespace

// pfm-hot
void UbfPredictor::score_batch(std::span<const SymptomContext> contexts,
                               std::span<double> out,
                               BatchScratch& scratch) const {
  if (contexts.size() != out.size()) {
    throw_batch_size_mismatch();
  }
  if (!trained_) throw_not_trained();
  // Gather + sweep live in kernels.cpp — the engine shared with the
  // frozen-artifact path, bit-identical to score().
  score_batch_soa(score_view(), contexts, out, scratch);
}

}  // namespace pfm::pred
