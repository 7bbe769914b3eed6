#include "numerics/rng.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace pfm::num {

namespace {

/// log k! for integral k >= 0: a table below 128, the Stirling series
/// above, truncated after 1/(1260 k^5) (error < 1e-18 at k = 128).
double log_factorial(double k) {
  constexpr std::size_t kTable = 128;
  static const std::array<double, kTable> table = [] {
    std::array<double, kTable> t{};
    for (std::size_t i = 1; i < kTable; ++i) {
      t[i] = t[i - 1] + std::log(static_cast<double>(i));
    }
    return t;
  }();
  if (k < static_cast<double>(kTable)) {
    return table[static_cast<std::size_t>(k)];
  }
  constexpr double kHalfLog2Pi = 0.91893853320467274178;
  const double r = 1.0 / k;
  const double r2 = r * r;
  return (k + 0.5) * std::log(k) - k + kHalfLog2Pi +
         r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 / 1260.0));
}

/// Poisson draw for mean >= 10 by PTRS, the transformed rejection with
/// squeeze of Hörmann (1993), "The transformed rejection method for
/// generating Poisson random variables", Insurance: Math. Econ. 12.
std::int64_t poisson_ptrs(Rng& rng, double mean) {
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double vr = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    const double u = rng.uniform() - 0.5;
    const double v = rng.uniform();
    const double us = 0.5 - std::fabs(u);
    // us == 0 gives k = -inf, rejected below before any integer cast.
    const double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= vr) return static_cast<std::int64_t>(k);
    // k >= 2^63 has no Poisson mass at mean < 2^62 and no int64 value.
    if (!(k >= 0.0 && k < 0x1p63) || (us < 0.013 && v > us)) continue;
    const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
    if (std::log(v * inv_alpha / (a / (us * us) + b)) <=
        -mean + k * std::log(mean) - log_factorial(k)) {
      return static_cast<std::int64_t>(k);
    }
  }
}

/// Gamma(shape, 1) draw for shape >= 1 by Marsaglia & Tsang (2000), "A
/// simple method for generating gamma variables", ACM TOMS 26(3).
double unit_gamma(Rng& rng, double shape) {
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = rng.normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.uniform();
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) return d * v;
    if (std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) return d * v;
  }
}

}  // namespace

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  const std::uint64_t range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  if (range == 0) return lo;
  // Bitmask rejection: the top bit_width(range) bits of one output are
  // uniform on [0, 2^w), and values above the range are redrawn (fewer
  // than half of them), so every value in [0, range] is equally likely.
  const int shift = std::countl_zero(range);
  std::uint64_t x = next() >> shift;
  while (x > range) x = next() >> shift;
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + x);
}

double Rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double x;
  double y;
  double s;
  do {
    x = 2.0 * uniform() - 1.0;
    y = 2.0 * uniform() - 1.0;
    s = x * x + y * y;
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = y * f;
  has_spare_normal_ = true;
  return x * f;
}

double Rng::exponential(double rate) {
  if (!(rate > 0.0 && std::isfinite(rate))) {
    throw std::invalid_argument("Rng::exponential: rate must be finite and > 0");
  }
  // 1 - uniform() is exact and lies in (0, 1], so the log is finite.
  return -std::log(1.0 - uniform()) / rate;
}

double Rng::weibull(double shape, double scale) {
  if (!(shape > 0.0 && scale > 0.0 && std::isfinite(shape) &&
        std::isfinite(scale))) {
    throw std::invalid_argument(
        "Rng::weibull: shape and scale must be finite and > 0");
  }
  return scale * std::pow(-std::log(1.0 - uniform()), 1.0 / shape);
}

/// Poisson draw for mean < 10 by sequential inversion: walk the pmf from
/// 0, subtracting each term from one uniform until the uniform falls
/// inside a term. Rounding can leave a sliver of the uniform beyond the
/// summed mass (probability ~1e-16); such a draw restarts.
std::int64_t Rng::poisson_inversion(double u, double mean) {
  // exp(-mean) >= 1 - mean, and libm's exp is within an ulp, so this u
  // also passes the first u < p0 below; means of 1 and up never take it.
  if (u < 1.0 - mean - 0x1p-40) return 0;
  constexpr std::int64_t kCap = 100;  // P(K >= 100 | mean 10) < 1e-60
  const double p0 = std::exp(-mean);
  for (;;) {
    double p = p0;
    for (std::int64_t k = 0; k < kCap; ++k) {
      if (u < p) return k;
      u -= p;
      p *= mean / static_cast<double>(k + 1);
    }
    u = uniform();
  }
}

std::int64_t Rng::poisson(double mean) {
  if (!(mean >= 0.0 && mean < 0x1p62)) {
    throw std::invalid_argument(
        "Rng::poisson: mean must be finite, >= 0 and below 2^62");
  }
  return mean < kInversionBelow ? poisson_inversion(uniform(), mean)
                                : poisson_ptrs(*this, mean);
}

double Rng::bounded_mean(double bound, double mean) {
  if (!(bound >= 0.0)) {
    throw std::invalid_argument("Rng::poisson_below: bound must be >= 0");
  }
  if (!(mean >= 0.0 && mean <= bound)) {
    throw std::invalid_argument(
        "Rng::poisson_below: mean must lie in [0, bound]");
  }
  return mean;
}

double Rng::gamma(double shape, double scale) {
  if (!(shape > 0.0 && scale > 0.0 && std::isfinite(shape) &&
        std::isfinite(scale))) {
    throw std::invalid_argument(
        "Rng::gamma: shape and scale must be finite and > 0");
  }
  if (shape >= 1.0) return scale * unit_gamma(*this, shape);
  // Gamma(a) = Gamma(a + 1) * U^(1/a); 1 - uniform() lies in (0, 1].
  const double boost = std::pow(1.0 - uniform(), 1.0 / shape);
  return scale * unit_gamma(*this, shape + 1.0) * boost;
}

std::size_t Rng::categorical(std::span<const double> weights) {
  if (weights.empty()) throw std::invalid_argument("categorical: empty");
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("categorical: negative weight");
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("categorical: zero mass");
  double u = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  return weights.size() - 1;  // round-off fallback
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

}  // namespace pfm::num
