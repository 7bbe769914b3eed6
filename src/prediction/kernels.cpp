#include "prediction/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numerics/logistic.hpp"
#include "numerics/matrix.hpp"
#include "numerics/stats.hpp"

namespace pfm::pred {

MixtureModelView MixtureModel::view() const noexcept {
  MixtureModelView v;
  v.selected = selected.data();
  v.dim = selected.size();
  v.num_raw_vars = num_raw_vars;
  v.lo = lo.data();
  v.range = range.data();
  v.centers = centers.data();
  v.w = w.data();
  v.two_w_sq = two_w_sq.data();
  v.step_scale = step_scale.data();
  v.mixture = mixture.data();
  v.weights = weights.data();
  v.num_kernels = w.size();
  v.mixture_kernels = mixture_kernels;
  v.data_window = windows.data_window;
  return v;
}

std::span<const mon::SymptomSample> slope_window(
    std::span<const mon::SymptomSample> history,
    double window_start) noexcept {
  const auto first = std::partition_point(
      history.begin(), history.end(),
      [window_start](const mon::SymptomSample& s) {
        return s.time <= window_start;
      });
  return history.subspan(static_cast<std::size_t>(first - history.begin()));
}

namespace {

// The gather loop sits inside every arena-backed scorer's hot closure
// (pfm-analyze hotpath); the throw stays out-of-line. The message matches
// UbfPredictor's reference paths so conformance errors stay byte-identical
// (frozen artifacts are frozen UBF/RBF models, so they share it).
// pfm-cold
[[noreturn]] void throw_gather_empty_context() {
  throw std::invalid_argument("UbfPredictor: empty context");
}

// pfm-hot
void gather_features(const MixtureModelView& m,
                     std::span<const SymptomContext> contexts,
                     BatchScratch& scratch) {
  const std::size_t batch = contexts.size();
  const std::size_t dim = m.dim;
  BatchScratch::resize(scratch.features, dim * batch);
  for (std::size_t c = 0; c < batch; ++c) {
    const auto& ctx = contexts[c];
    if (ctx.history.empty()) {
      throw_gather_empty_context();
    }
    const auto& current = ctx.history.back();
    const auto window =
        slope_window(ctx.history, current.time - m.data_window);
    for (std::size_t i = 0; i < dim; ++i) {
      const std::size_t idx = m.selected[i];
      double v;
      if (idx < m.num_raw_vars) {
        v = current.values[idx];
      } else {
        const std::size_t j = idx - m.num_raw_vars;
        scratch.t_buf.clear();
        scratch.v_buf.clear();
        for (const auto& s : window) {
          scratch.t_buf.push_back(s.time);
          scratch.v_buf.push_back(s.values[j]);
        }
        v = scratch.t_buf.size() >= 2
                ? num::fit_line(scratch.t_buf, scratch.v_buf).slope
                : 0.0;
      }
      const double range = m.range[i];
      const double scaled = range > 0.0 ? (v - m.lo[i]) / range : 0.5;
      scratch.features[i * batch + c] = std::clamp(scaled, -0.5, 1.5);
    }
  }
}

// pfm-hot
void sweep(const MixtureModelView& m, std::size_t batch, BatchScratch& scratch,
           std::span<double> out) noexcept {
  // Evaluate each Eq. 1 kernel over every context, then fold its
  // activation row into the accumulator with one axpy. Per context this
  // performs bias-first, kernels-in-order accumulation with the same
  // statement shapes as the reference score() path, so the result is
  // bit-identical to it.
  BatchScratch::resize(scratch.activations, batch);
  for (std::size_t c = 0; c < batch; ++c) out[c] = m.weights[m.num_kernels];
  const std::size_t dim = m.dim;
  for (std::size_t i = 0; i < m.num_kernels; ++i) {
    const double* center = m.centers + i * dim;
    const double w = m.w[i];
    const double two_w_sq = m.two_w_sq[i];
    const double step_scale = m.step_scale[i];
    const double mixture = m.mixture[i];
    for (std::size_t c = 0; c < batch; ++c) {
      double s = 0.0;
      for (std::size_t j = 0; j < dim; ++j) {
        const double d = scratch.features[j * batch + c] - center[j];
        s += d * d;
      }
      const double d = std::sqrt(s);
      const double gaussian = std::exp(-d * d / two_w_sq);
      if (!m.mixture_kernels) {
        scratch.activations[c] = gaussian;
      } else {
        const double step = 1.0 / (1.0 + std::exp((d - w) / step_scale));
        scratch.activations[c] = mixture * gaussian + (1.0 - mixture) * step;
      }
    }
    num::axpy(m.weights[i], scratch.activations, out);
  }
  for (std::size_t c = 0; c < batch; ++c) {
    out[c] = num::sigmoid(4.0 * (out[c] - 0.5));
  }
}

}  // namespace

// pfm-hot
void score_batch_soa(const MixtureModelView& m,
                     std::span<const SymptomContext> contexts,
                     std::span<double> out, BatchScratch& scratch) {
  const std::size_t batch = contexts.size();
  if (batch == 0) return;
  gather_features(m, contexts, scratch);
  sweep(m, batch, scratch, out);
}

double score_one(const MixtureModelView& m, const SymptomContext& ctx) {
  BatchScratch scratch;
  double out = 0.0;
  score_batch_soa(m, {&ctx, 1}, {&out, 1}, scratch);
  return out;
}

}  // namespace pfm::pred
