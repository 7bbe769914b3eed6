#include "numerics/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <stdexcept>
#include <vector>

#include "numerics/stats.hpp"

namespace pfm::num {
namespace {

TEST(Rng, Reproducible) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(5);
  std::vector<int> seen(3, 0);
  for (int i = 0; i < 3000; ++i) {
    const auto v = rng.uniform_int(0, 2);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 2);
    ++seen[static_cast<std::size_t>(v)];
  }
  for (int c : seen) EXPECT_GT(c, 800);
}

TEST(Rng, NormalMoments) {
  Rng rng(31);
  RunningStats rs;
  for (int i = 0; i < 50000; ++i) rs.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(rs.mean(), 3.0, 0.05);
  EXPECT_NEAR(rs.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(37);
  RunningStats rs;
  for (int i = 0; i < 50000; ++i) rs.add(rng.exponential(2.0));
  EXPECT_NEAR(rs.mean(), 0.5, 0.01);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(41);
  const std::vector<double> w{1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(w)];
  EXPECT_NEAR(counts[0] / double(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / double(n), 0.3, 0.015);
  EXPECT_NEAR(counts[2] / double(n), 0.6, 0.015);
}

TEST(Rng, CategoricalErrors) {
  Rng rng(1);
  EXPECT_THROW(rng.categorical(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(rng.categorical(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(rng.categorical(std::vector<double>{1.0, -1.0}),
               std::invalid_argument);
}

TEST(Rng, CategoricalZeroWeightNeverPicked) {
  Rng rng(2);
  const std::vector<double> w{0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(rng.categorical(w), 1u);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(55);
  auto p = rng.permutation(20);
  std::sort(p.begin(), p.end());
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(p[i], i);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(77);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.2) ? 1 : 0;
  EXPECT_NEAR(hits / double(n), 0.2, 0.01);
}

// --- Sampler conformance -----------------------------------------------------
//
// Pearson chi-square tests of each sampler against its exact distribution,
// on fixed seeds, rejecting at p ~ 1e-6 so a correct sampler cannot flake.
// They test distributions, not streams: any correct engine passes them.

/// Upper 1e-6 critical value of chi-square with `df` degrees of freedom
/// (Wilson–Hilferty; 4.7534 is the standard normal's upper 1e-6 quantile).
double chi2_critical(std::size_t df) {
  const double k = static_cast<double>(df);
  const double h = 2.0 / (9.0 * k);
  return k * std::pow(1.0 - h + 4.7534 * std::sqrt(h), 3.0);
}

/// Pearson statistic of observed counts against expected counts.
double pearson(const std::vector<double>& observed,
               const std::vector<double>& expected) {
  double chi2 = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double d = observed[i] - expected[i];
    chi2 += d * d / expected[i];
  }
  return chi2;
}

/// Exact-pmf chi-square of `n` Poisson draws at `mean`. Adjacent values
/// are pooled until each bin expects at least 20 draws; the last bin
/// takes the whole upper tail.
void expect_poisson_fits(double mean, std::uint64_t seed) {
  constexpr int n = 1'000'000;
  const auto kmax =
      static_cast<std::int64_t>(mean + 12.0 * std::sqrt(mean) + 40.0);
  std::vector<double> count(static_cast<std::size_t>(kmax) + 1, 0.0);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const auto k = rng.poisson(mean);
    ASSERT_GE(k, 0);
    count[static_cast<std::size_t>(std::min(k, kmax))] += 1.0;
  }
  std::vector<double> observed;
  std::vector<double> expected;
  double obs_bin = 0.0;
  double exp_bin = 0.0;
  double mass = 0.0;
  for (std::int64_t k = 0; k < kmax; ++k) {
    const double kd = static_cast<double>(k);
    const double pmf = std::exp(-mean + kd * std::log(mean) -
                                std::lgamma(kd + 1.0));
    obs_bin += count[static_cast<std::size_t>(k)];
    exp_bin += n * pmf;
    mass += pmf;
    if (exp_bin >= 20.0 && n * (1.0 - mass) >= 20.0) {
      observed.push_back(obs_bin);
      expected.push_back(exp_bin);
      obs_bin = exp_bin = 0.0;
    }
  }
  observed.push_back(obs_bin + count.back());
  expected.push_back(exp_bin + n * std::max(0.0, 1.0 - mass));
  ASSERT_GE(observed.size(), 2u);
  EXPECT_LT(pearson(observed, expected), chi2_critical(observed.size() - 1))
      << "poisson mean " << mean << ", " << observed.size() << " bins";
}

TEST(RngConformance, PoissonMatchesExactPmfAcrossBothBranches) {
  // Inversion below 10, PTRS from 10 up: the means straddle the switch.
  std::uint64_t seed = 101;
  for (double mean : {0.01, 0.5, 4.0, 9.99, 10.0, 12.0, 30.0, 1000.0}) {
    SCOPED_TRACE(mean);
    expect_poisson_fits(mean, seed++);
  }
}

TEST(RngConformance, PoissonZeroMeanIsZero) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.poisson(0.0), 0);
}

/// Equiprobable-bin chi-square: `n` draws mapped through the exact CDF
/// must fill 100 equal bins of [0, 1) evenly.
void expect_cdf_fits(const std::function<double()>& draw,
                     const std::function<double(double)>& cdf) {
  constexpr int n = 1'000'000;
  constexpr std::size_t bins = 100;
  std::vector<double> observed(bins, 0.0);
  for (int i = 0; i < n; ++i) {
    const double u = cdf(draw());
    ASSERT_GE(u, 0.0);
    ASSERT_LE(u, 1.0);
    observed[std::min(bins - 1, static_cast<std::size_t>(u * bins))] += 1.0;
  }
  const std::vector<double> expected(bins, static_cast<double>(n) / bins);
  EXPECT_LT(pearson(observed, expected), chi2_critical(bins - 1));
}

TEST(RngConformance, NormalMatchesCdf) {
  Rng rng(211);
  expect_cdf_fits([&] { return rng.normal(); },
                  [](double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); });
}

TEST(RngConformance, ExponentialMatchesCdf) {
  Rng rng(223);
  expect_cdf_fits([&] { return rng.exponential(0.25); },
                  [](double x) { return -std::expm1(-0.25 * x); });
}

TEST(RngConformance, GammaMatchesCdfBelowAndAboveShapeOne) {
  Rng rng(227);
  // Shape 0.5, scale 2: P(1/2, x/2) = erf(sqrt(x/2)).
  expect_cdf_fits([&] { return rng.gamma(0.5, 2.0); },
                  [](double x) { return std::erf(std::sqrt(x / 2.0)); });
  // Shape 4, scale 3: P(4, y) = 1 - e^-y (1 + y + y^2/2 + y^3/6), y = x/3.
  expect_cdf_fits([&] { return rng.gamma(4.0, 3.0); }, [](double x) {
    const double y = x / 3.0;
    return 1.0 - std::exp(-y) * (1.0 + y + y * y / 2.0 + y * y * y / 6.0);
  });
}

TEST(RngConformance, UniformIntIsUnbiasedOffPowersOfTwo) {
  constexpr int n = 1'000'000;
  Rng rng(229);
  // 20 values: a bitmask draw of 5 bits rejects 12 of every 32.
  std::vector<double> small(20, 0.0);
  for (int i = 0; i < n; ++i) {
    const auto v = rng.uniform_int(-7, 12);
    ASSERT_GE(v, -7);
    ASSERT_LE(v, 12);
    small[static_cast<std::size_t>(v + 7)] += 1.0;
  }
  EXPECT_LT(pearson(small, std::vector<double>(20, n / 20.0)),
            chi2_critical(19));
  // 3 * 2^61 values: a modulo reduction of 64 raw bits would put twice the
  // mass on the lowest third.
  constexpr std::int64_t third = std::int64_t{1} << 61;
  std::vector<double> thirds(3, 0.0);
  for (int i = 0; i < n; ++i) {
    thirds[static_cast<std::size_t>(rng.uniform_int(0, 3 * third - 1) /
                                    third)] += 1.0;
  }
  EXPECT_LT(pearson(thirds, std::vector<double>(3, n / 3.0)),
            chi2_critical(2));
}

TEST(RngConformance, UniformIntCoversTheFullInt64Range) {
  Rng rng(233);
  constexpr auto lo = std::numeric_limits<std::int64_t>::min();
  constexpr auto hi = std::numeric_limits<std::int64_t>::max();
  int negative = 0;
  for (int i = 0; i < 10000; ++i) negative += rng.uniform_int(lo, hi) < 0;
  EXPECT_NEAR(negative, 5000, 500);
  EXPECT_EQ(rng.uniform_int(7, 7), 7);
}

// --- Engine and seeding ---------------------------------------------------------

TEST(RngEngine, Mix64IsTheSplitMix64Finalizer) {
  // splitmix64 seeded with 0 first outputs 0xe220a8397b1dcdaf.
  EXPECT_EQ(mix64(0, 0), 0xe220a8397b1dcdafULL);
}

TEST(RngEngine, KnownAnswerForSeed2024) {
  // xoshiro256** from state words mix64(2024, 0..3), as computed by the
  // reference algorithm of Blackman & Vigna: raw outputs 0x0e48715a13d7772e,
  // 0xc837f3ee8a7a1065, 0x1272314b15ee5001, 0x28e323a6abe2a46b, each
  // seen through uniform() as its top 53 bits times 2^-53.
  Rng rng(2024);
  EXPECT_EQ(rng.uniform(), 0.055792889110163335);
  EXPECT_EQ(rng.uniform(), 0.782103772866755);
  EXPECT_EQ(rng.uniform(), 0.07205494006296331);
  EXPECT_EQ(rng.uniform(), 0.1597158700859702);
}

/// FNV-1a over the 8 little-endian bytes of `word`, continuing `h`.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(RngEngine, PoissonKnownAnswers) {
  // Pins the Poisson stream of both branches, not just its distribution:
  // per mean, 10^5 draws from each of two seeds, and after each block the
  // bits of the engine's next uniform(), which pins how many engine
  // outputs the draws consumed. A sampler rewrite that keeps the stream
  // must keep every hash.
  struct KnownAnswer {
    double mean;
    std::uint64_t hash;
  };
  const std::vector<KnownAnswer> known{
      {0.0, 0x54a7b8eb10e08f5dULL},    {1e-300, 0x54a7b8eb10e08f5dULL},
      {1e-15, 0x54a7b8eb10e08f5dULL},  {3e-6, 0x54a7b8eb10e08f5dULL},
      {1e-4, 0xb055f4f9c13a0aecULL},   {0.3, 0x86916684c11ef2b1ULL},
      {0.999, 0x09fac0b29855fb9fULL},  {1.5, 0xd4ae3599fd9cc070ULL},
      {4.0, 0x762e41f8a78017ddULL},    {9.99, 0x09b739b775a32071ULL},
      {10.0, 0xcf28ee366a05e32cULL},   {30.0, 0x5f3e83881e74fa27ULL},
      {1000.0, 0x61c47cb4e6bc4e5fULL},
  };
  for (const auto& [mean, hash] : known) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint64_t seed : {1u, 2024u}) {
      Rng rng(seed);
      for (int i = 0; i < 100'000; ++i) {
        h = fnv1a(h, static_cast<std::uint64_t>(rng.poisson(mean)));
      }
      h = fnv1a(h, std::bit_cast<std::uint64_t>(rng.uniform()));
    }
    EXPECT_EQ(h, hash) << "mean " << mean << ": 0x" << std::hex << h;
  }
}

TEST(RngEngine, PoissonBelowMatchesPoissonOnTwinEngines) {
  // poisson_below(bound, mean) must return poisson(mean) draw for draw and
  // leave the engine where poisson() leaves it, and it may skip the mean
  // only when the first uniform decides a 0 (u < 1 - bound - 2^-40). The
  // bounds run from tight (the slow path fires as often as a draw is
  // nonzero) to 9.99 (it always fires) and past 10 (plain poisson()).
  constexpr int n = 20'000;
  std::uint64_t seed = 7;
  for (const double mean : {0.0, 1e-300, 1e-12, 3e-6, 1e-4, 0.01, 0.3, 0.999,
                            1.5, 4.0, 9.0, 9.98}) {
    for (const double bound : {mean, 2.0 * mean, 9.99}) {
      if (bound < mean) continue;
      SCOPED_TRACE(testing::Message() << "mean " << mean << ", bound "
                                      << bound);
      Rng fast(seed);
      Rng plain(seed++);
      int calls = 0;
      int skips = 0;
      for (int i = 0; i < n; ++i) {
        Rng peek = fast;
        const double u = peek.uniform();
        const bool decided = bound < 10.0 && u < 1.0 - bound - 0x1p-40;
        const int before = calls;
        const auto k = fast.poisson_below(bound, [&] {
          ++calls;
          return mean;
        });
        ASSERT_EQ(k, plain.poisson(mean)) << "draw " << i;
        ASSERT_EQ(calls - before, decided ? 0 : 1) << "draw " << i;
        skips += decided;
      }
      EXPECT_EQ(fast.uniform(), plain.uniform());
      if (bound < 0.5) {
        EXPECT_GT(skips, n / 2);
      } else if (bound >= 1.0) {
        EXPECT_EQ(skips, 0);
      }
    }
  }
}

// --- Domain checks -------------------------------------------------------------

TEST(RngDomain, InvalidParametersThrow) {
  Rng rng(1);
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr double inf = std::numeric_limits<double>::infinity();
  for (double mean : {nan, -3.0, -inf, inf}) {
    EXPECT_THROW(rng.poisson(mean), std::invalid_argument) << mean;
  }
  for (double rate : {0.0, -1.0, nan, inf}) {
    EXPECT_THROW(rng.exponential(rate), std::invalid_argument) << rate;
  }
  for (double bad : {0.0, -1.0, nan}) {
    EXPECT_THROW(rng.gamma(bad, 1.0), std::invalid_argument) << bad;
    EXPECT_THROW(rng.gamma(1.0, bad), std::invalid_argument) << bad;
  }
  EXPECT_THROW(rng.uniform_int(5, 4), std::invalid_argument);
}

TEST(RngDomain, PoissonBelowRejectsBadBoundsAndMeans) {
  Rng rng(1);
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr double inf = std::numeric_limits<double>::infinity();
  auto draw = [&](double bound, double mean) {
    return rng.poisson_below(bound, [=] { return mean; });
  };
  // A bound of 1 or more never decides on the uniform alone, so each of
  // these computes its mean and must reject it.
  for (const auto& [bound, mean] :
       std::vector<std::pair<double, double>>{{nan, 0.5},
                                              {-1.0, 0.0},
                                              {9.0, 9.5},
                                              {9.0, -1.0},
                                              {9.0, nan},
                                              {1.0, inf},
                                              {10.0, 10.5},
                                              {inf, inf},
                                              {inf, nan}}) {
    EXPECT_THROW(draw(bound, mean), std::invalid_argument)
        << "bound " << bound << ", mean " << mean;
  }
  EXPECT_EQ(draw(0.0, 0.0), 0);
  EXPECT_GE(draw(inf, 30.0), 0);
}

}  // namespace
}  // namespace pfm::num
