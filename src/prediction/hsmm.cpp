#include "prediction/hsmm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numerics/logistic.hpp"

namespace pfm::pred {

namespace {

constexpr double kDensityFloor = 1e-300;

}  // namespace

Hsmm::Hsmm(Config config) : config_(std::move(config)) {
  if (config_.num_states == 0 || config_.num_symbols == 0) {
    throw std::invalid_argument("Hsmm: states and symbols must be > 0");
  }
}

double Hsmm::observation_density(std::size_t state,
                                 const HsmmObservation& o) const {
  double d = emission_(state, o.symbol);
  if (o.gap > 0.0) {
    const double rate = gap_rate_[state];
    d *= rate * std::exp(-rate * o.gap);
  }
  return std::max(d, kDensityFloor);
}

void Hsmm::train(const std::vector<HsmmSequence>& sequences) {
  std::vector<const HsmmSequence*> usable;
  for (const auto& s : sequences) {
    if (!s.empty()) usable.push_back(&s);
  }
  if (usable.empty()) {
    throw std::invalid_argument("Hsmm::train: no non-empty sequences");
  }
  for (const auto* s : usable) {
    for (const auto& o : *s) {
      if (o.symbol >= config_.num_symbols) {
        throw std::invalid_argument("Hsmm::train: symbol out of range");
      }
      if (o.gap < 0.0) {
        throw std::invalid_argument("Hsmm::train: negative gap");
      }
    }
  }

  const std::size_t ns = config_.num_states;
  const std::size_t nv = config_.num_symbols;

  // EM is sensitive to its random initialization; run a few restarts and
  // keep the parameters with the best training likelihood.
  struct Params {
    std::vector<double> initial;
    num::Matrix transition;
    num::Matrix emission;
    std::vector<double> gap_rate;
  };
  Params best;
  double best_ll = -1e300;
  std::vector<double> density, alpha, beta, scale, xi(ns * ns);
  constexpr int kRestarts = 3;
  for (int restart = 0; restart < kRestarts; ++restart) {
    num::Rng rng(config_.seed + 7919ULL * static_cast<std::uint64_t>(restart));

    // Random-perturbed uniform initialization.
  auto normalize = [](std::span<double> v) {
    double s = 0.0;
    for (double x : v) s += x;
    for (double& x : v) x /= s;
  };
  initial_.assign(ns, 0.0);
  for (double& p : initial_) p = 1.0 + 0.2 * rng.uniform();
  normalize(initial_);
  transition_ = num::Matrix(ns, ns);
  emission_ = num::Matrix(ns, nv);
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t j = 0; j < ns; ++j) {
      transition_(i, j) = 1.0 + 0.2 * rng.uniform();
    }
    normalize(transition_.row(i));
    for (std::size_t v = 0; v < nv; ++v) {
      emission_(i, v) = 1.0 + 0.2 * rng.uniform();
    }
    normalize(emission_.row(i));
  }
  // Initial gap rates: spread around the empirical mean gap.
  double gap_sum = 0.0;
  std::size_t gap_count = 0;
  for (const auto* s : usable) {
    for (const auto& o : *s) {
      if (o.gap > 0.0) {
        gap_sum += o.gap;
        ++gap_count;
      }
    }
  }
  const double mean_gap =
      gap_count > 0 ? gap_sum / static_cast<double>(gap_count) : 60.0;
  gap_rate_.assign(ns, 0.0);
  for (std::size_t i = 0; i < ns; ++i) {
    gap_rate_[i] = 1.0 / (mean_gap * rng.uniform(0.4, 2.5));
  }
  trained_ = true;  // parameters exist from here on

  // Baum-Welch. Per sequence, the E-step tabulates observation_density
  // once (T x ns) and keeps alpha, beta and the scales in flat buffers
  // reused across sequences and iterations; every product below is formed
  // in the same operand order as the untabulated recursion.
  for (std::size_t iter = 0; iter < config_.em_iterations; ++iter) {
    std::vector<double> pi_acc(ns, config_.smoothing);
    num::Matrix a_acc(ns, ns, config_.smoothing);
    num::Matrix b_acc(ns, nv, config_.smoothing);
    std::vector<double> gap_weight(ns, config_.smoothing);
    std::vector<double> gap_time(ns, config_.smoothing * mean_gap);

    for (const auto* seq_ptr : usable) {
      const auto& seq = *seq_ptr;
      const std::size_t T = seq.size();
      density.resize(T * ns);
      alpha.resize(T * ns);
      beta.resize(T * ns);
      scale.assign(T, 0.0);
      for (std::size_t t = 0; t < T; ++t) {
        for (std::size_t s = 0; s < ns; ++s) {
          density[t * ns + s] = observation_density(s, seq[t]);
        }
      }

      // Scaled forward.
      for (std::size_t s = 0; s < ns; ++s) {
        alpha[s] = initial_[s] * density[s];
        scale[0] += alpha[s];
      }
      if (scale[0] <= 0.0) continue;
      for (std::size_t s = 0; s < ns; ++s) alpha[s] /= scale[0];
      for (std::size_t t = 1; t < T; ++t) {
        const double* prev = &alpha[(t - 1) * ns];
        double* cur = &alpha[t * ns];
        for (std::size_t s = 0; s < ns; ++s) {
          double acc = 0.0;
          for (std::size_t r = 0; r < ns; ++r) {
            acc += prev[r] * transition_(r, s);
          }
          cur[s] = acc * density[t * ns + s];
          scale[t] += cur[s];
        }
        if (scale[t] <= 0.0) {
          scale[t] = kDensityFloor;
        }
        for (std::size_t s = 0; s < ns; ++s) cur[s] /= scale[t];
      }

      // Scaled backward.
      std::fill(beta.begin() + static_cast<std::ptrdiff_t>((T - 1) * ns),
                beta.end(), 1.0);
      for (std::size_t t = T - 1; t-- > 0;) {
        const double* next_density = &density[(t + 1) * ns];
        const double* next_beta = &beta[(t + 1) * ns];
        for (std::size_t s = 0; s < ns; ++s) {
          double acc = 0.0;
          for (std::size_t r = 0; r < ns; ++r) {
            acc += transition_(s, r) * next_density[r] * next_beta[r];
          }
          beta[t * ns + s] = acc / scale[t + 1];
        }
      }

      // Accumulate expected counts.
      for (std::size_t t = 0; t < T; ++t) {
        const double* a_t = &alpha[t * ns];
        const double* b_t = &beta[t * ns];
        double norm = 0.0;
        for (std::size_t s = 0; s < ns; ++s) norm += a_t[s] * b_t[s];
        if (norm <= 0.0) continue;
        for (std::size_t s = 0; s < ns; ++s) {
          const double gamma = a_t[s] * b_t[s] / norm;
          if (t == 0) pi_acc[s] += gamma;
          b_acc(s, seq[t].symbol) += gamma;
          if (seq[t].gap > 0.0) {
            gap_weight[s] += gamma;
            gap_time[s] += gamma * seq[t].gap;
          }
        }
        if (t + 1 < T) {
          // Each xi product once: summed into its normaliser, then divided
          // by it.
          const double* next_density = &density[(t + 1) * ns];
          const double* next_beta = &beta[(t + 1) * ns];
          double xi_norm = 0.0;
          for (std::size_t s = 0; s < ns; ++s) {
            for (std::size_t r = 0; r < ns; ++r) {
              const double x =
                  a_t[s] * transition_(s, r) * next_density[r] * next_beta[r];
              xi[s * ns + r] = x;
              xi_norm += x;
            }
          }
          if (xi_norm <= 0.0) continue;
          for (std::size_t s = 0; s < ns; ++s) {
            for (std::size_t r = 0; r < ns; ++r) {
              a_acc(s, r) += xi[s * ns + r] / xi_norm;
            }
          }
        }
      }
    }

    // M-step.
    initial_ = pi_acc;
    normalize(initial_);
    for (std::size_t s = 0; s < ns; ++s) {
      for (std::size_t r = 0; r < ns; ++r) transition_(s, r) = a_acc(s, r);
      normalize(transition_.row(s));
      for (std::size_t v = 0; v < nv; ++v) emission_(s, v) = b_acc(s, v);
      normalize(emission_.row(s));
      gap_rate_[s] = gap_weight[s] / gap_time[s];
      gap_rate_[s] = std::clamp(gap_rate_[s], 1e-8, 1e6);
    }
  }

    double total_ll = 0.0;
    for (const auto* s : usable) total_ll += log_likelihood(*s);
    if (total_ll > best_ll) {
      best_ll = total_ll;
      best = Params{initial_, transition_, emission_, gap_rate_};
    }
  }
  initial_ = std::move(best.initial);
  transition_ = std::move(best.transition);
  emission_ = std::move(best.emission);
  gap_rate_ = std::move(best.gap_rate);
}

double Hsmm::log_likelihood(const HsmmSequence& seq) const {
  if (!trained_) throw std::logic_error("Hsmm: not trained");
  if (seq.empty()) return 0.0;
  const std::size_t ns = config_.num_states;
  std::vector<double> alpha(ns), next(ns);
  double ll = 0.0;
  for (std::size_t s = 0; s < ns; ++s) {
    const HsmmObservation o{std::min(seq[0].symbol, config_.num_symbols - 1),
                            seq[0].gap};
    alpha[s] = initial_[s] * observation_density(s, o);
  }
  double scale = 0.0;
  for (double v : alpha) scale += v;
  scale = std::max(scale, kDensityFloor);
  for (double& v : alpha) v /= scale;
  ll += std::log(scale);
  for (std::size_t t = 1; t < seq.size(); ++t) {
    const HsmmObservation o{std::min(seq[t].symbol, config_.num_symbols - 1),
                            seq[t].gap};
    scale = 0.0;
    for (std::size_t s = 0; s < ns; ++s) {
      double acc = 0.0;
      for (std::size_t r = 0; r < ns; ++r) acc += alpha[r] * transition_(r, s);
      next[s] = acc * observation_density(s, o);
      scale += next[s];
    }
    scale = std::max(scale, kDensityFloor);
    for (std::size_t s = 0; s < ns; ++s) alpha[s] = next[s] / scale;
    ll += std::log(scale);
  }
  return ll;
}

// ---------------------------------------------------------------------------

HsmmPredictor::HsmmPredictor(HsmmPredictorConfig config)
    : config_(std::move(config)) {
  config_.windows.validate();
  if (config_.num_states == 0) {
    throw std::invalid_argument("HsmmPredictor: num_states must be > 0");
  }
}

std::string HsmmPredictor::name() const {
  return config_.model_durations ? "HSMM" : "HMM";
}

HsmmSequence HsmmPredictor::encode(const mon::ErrorSequence& sequence) const {
  HsmmSequence out;
  out.reserve(sequence.events.size());
  double prev = -1.0;
  for (const auto& e : sequence.events) {
    HsmmObservation o;
    const auto it = vocab_.find(e.event_id);
    o.symbol = it != vocab_.end() ? it->second : unknown_symbol_;
    o.gap = (prev >= 0.0 && config_.model_durations)
                ? std::max(e.time - prev, 0.0)
                : 0.0;
    prev = e.time;
    out.push_back(o);
  }
  return out;
}

void HsmmPredictor::train(
    std::span<const mon::ErrorSequence> failure_sequences,
    std::span<const mon::ErrorSequence> nonfailure_sequences) {
  if (failure_sequences.empty() || nonfailure_sequences.empty()) {
    throw std::invalid_argument(
        "HsmmPredictor::train: need both sequence classes");
  }
  vocab_.clear();
  auto index_events = [&](std::span<const mon::ErrorSequence> seqs) {
    for (const auto& s : seqs) {
      for (const auto& e : s.events) {
        vocab_.emplace(e.event_id, vocab_.size());
      }
    }
  };
  index_events(failure_sequences);
  index_events(nonfailure_sequences);
  if (vocab_.empty()) {
    throw std::invalid_argument(
        "HsmmPredictor::train: training sequences contain no events");
  }
  unknown_symbol_ = vocab_.size();  // reserved extra symbol

  auto encode_all = [&](std::span<const mon::ErrorSequence> seqs) {
    std::vector<HsmmSequence> out;
    out.reserve(seqs.size());
    for (const auto& s : seqs) out.push_back(encode(s));
    return out;
  };
  auto fail_enc = encode_all(failure_sequences);
  auto ok_enc = encode_all(nonfailure_sequences);
  // A class whose windows are all empty (e.g., a quiet system's non-failure
  // windows) still needs a likelihood model for scoring non-empty windows:
  // give it one pseudo-observation of the reserved unknown symbol, which
  // yields a near-uninformative model; the empty-window evidence term then
  // carries the discrimination.
  auto ensure_nonempty = [&](std::vector<HsmmSequence>& seqs) {
    for (const auto& s : seqs) {
      if (!s.empty()) return;
    }
    seqs.push_back(HsmmSequence{{unknown_symbol_, 0.0}});
  };
  ensure_nonempty(fail_enc);
  ensure_nonempty(ok_enc);

  // Empty-sequence statistics per class (an empty error window is itself
  // evidence: failures are almost always preceded by *some* errors).
  auto empty_fraction = [](const std::vector<HsmmSequence>& seqs) {
    std::size_t empty = 0;
    for (const auto& s : seqs) empty += s.empty() ? 1 : 0;
    return (static_cast<double>(empty) + 1.0) /
           (static_cast<double>(seqs.size()) + 2.0);  // Laplace
  };
  empty_fail_ = empty_fraction(fail_enc);
  empty_ok_ = empty_fraction(ok_enc);
  prior_log_odds_ = std::log(static_cast<double>(failure_sequences.size())) -
                    std::log(static_cast<double>(nonfailure_sequences.size()));

  Hsmm::Config mc;
  mc.num_states = config_.num_states;
  mc.num_symbols = vocab_.size() + 1;
  mc.em_iterations = config_.em_iterations;
  mc.seed = config_.seed;
  models_.clear();
  models_.emplace_back(mc);
  models_.emplace_back(mc);
  models_[0].train(fail_enc);
  models_[1].train(ok_enc);
  trained_ = true;
}

double HsmmPredictor::score(const mon::ErrorSequence& sequence) const {
  if (!trained_) throw std::logic_error("HsmmPredictor: not trained");
  const auto enc = encode(sequence);
  double z;
  if (enc.empty()) {
    z = std::log(empty_fail_) - std::log(empty_ok_);
  } else {
    const double llf = models_[0].log_likelihood(enc);
    const double lln = models_[1].log_likelihood(enc);
    // Class log-likelihood ratio (Bayes factor), length-normalized per the
    // configured scheme, plus the evidence of a non-empty window.
    double ratio = llf - lln;
    switch (config_.normalization) {
      case LikelihoodNormalization::kPerEvent:
        ratio /= static_cast<double>(enc.size());
        break;
      case LikelihoodNormalization::kSqrt:
        ratio /= std::sqrt(static_cast<double>(enc.size()));
        break;
      case LikelihoodNormalization::kNone:
        break;
    }
    z = ratio + std::log1p(-empty_fail_) - std::log1p(-empty_ok_);
  }
  return num::sigmoid(0.5 * (z + 0.2 * prior_log_odds_));
}

}  // namespace pfm::pred
