#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace pfm::num {

/// splitmix64 finalizer over a + 0x9e3779b97f4a7c15 * (b + 1): the one
/// mixer behind every seeded stream — the Rng state words, per-node
/// simulator seeds, membership joiner seeds and the fault injector's
/// decision streams. Neighbouring (a, b) pairs land far apart in seed
/// space, and chaining it derives independent sub-streams, e.g.
/// mix64(mix64(seed, slot), incarnation).
constexpr std::uint64_t mix64(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Seedable random number generator used throughout the library.
///
/// All stochastic components receive an Rng by reference (no global state),
/// which keeps simulations and training runs reproducible: the same seed
/// yields the same traces, datasets and fitted models. The engine is
/// xoshiro256** (Blackman & Vigna 2018) with state words mix64(seed, 0..3),
/// and every sampler is written here, so a seed names the same stream with
/// any C++ standard library; only libm's exp/log/sqrt/pow are borrowed.
///
/// Samplers throw std::invalid_argument for parameters outside their
/// domain (NaN included) instead of returning a silent garbage draw.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL)
      : s_{mix64(seed, 0), mix64(seed, 1), mix64(seed, 2), mix64(seed, 3)} {}

  /// Uniform double in [0, 1): the top 53 bits of one engine output.
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Unbiased uniform integer in [lo, hi] inclusive. Throws when lo > hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal draw (Marsaglia polar method; every second call
  /// returns the pair's cached partner).
  double normal();

  /// Normal draw with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Exponential draw with the given rate (mean 1/rate), by inversion.
  /// Throws unless the rate is finite and positive.
  double exponential(double rate);

  /// Weibull draw with shape k and scale lambda, by inversion. Throws
  /// unless both are finite and positive.
  double weibull(double shape, double scale);

  /// Poisson draw with the given mean: sequential inversion below mean
  /// 10, Hörmann's PTRS transformed rejection from 10 up. Throws unless
  /// the mean is finite, non-negative and below 2^62.
  std::int64_t poisson(double mean);

  /// poisson(mean_fn()) for a mean known not to exceed `bound`, calling
  /// `mean_fn` only when the draw's first uniform leaves the result open.
  /// Below a bound of 10 that uniform u decides a 0 whenever
  /// u < 1 - bound - 2^-40: exp(-mean) >= 1 - mean, and the margin covers
  /// rounding. Otherwise the inversion continues from the same u, so the
  /// result and the engine outputs consumed are those of poisson(). Throws
  /// when the bound is NaN or negative or the computed mean is not in
  /// [0, bound]; a bound of 10 or more draws poisson(mean_fn()).
  template <class MeanFn>
  std::int64_t poisson_below(double bound, MeanFn&& mean_fn) {
    if (!(bound >= 0.0 && bound < kInversionBelow)) {
      return poisson(bounded_mean(bound, mean_fn()));
    }
    const double u = uniform();
    if (u < 1.0 - bound - 0x1p-40) return 0;
    return poisson_inversion(u, bounded_mean(bound, mean_fn()));
  }

  /// Bernoulli draw: true with probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Gamma draw with shape and scale (Marsaglia–Tsang; shapes below 1 use
  /// the U^(1/shape) boost). Throws unless both are finite and positive.
  double gamma(double shape, double scale);

  /// Index draw from unnormalized nonnegative weights.
  /// Throws std::invalid_argument when weights are empty or all zero.
  std::size_t categorical(std::span<const double> weights);

  /// Fisher-Yates shuffle of an index set {0..n-1}.
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  /// Means below this draw by inversion, from this up by PTRS.
  static constexpr double kInversionBelow = 10.0;

  /// `mean` after checking that the bound is >= 0 and the mean lies in
  /// [0, bound]; throws std::invalid_argument otherwise.
  static double bounded_mean(double bound, double mean);

  /// Sequential inversion for a mean in [0, 10), walking from the drawn
  /// uniform `u`.
  std::int64_t poisson_inversion(double u, double mean);

  /// Next raw 64-bit engine output.
  std::uint64_t next() noexcept {
    const std::uint64_t out = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return out;
  }

  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace pfm::num
