#include "numerics/kmeans.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace pfm::num {
namespace {

double sq_dist(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

/// Plain Lloyd's k-means with k-means++ seeding, exactly as the library ran
/// it before Hamerly's bounds: every pass scans all k centers for every
/// point. The oracle the bounded kmeans() must match bit for bit.
KMeansResult reference_kmeans(std::span<const double> data, std::size_t dim,
                              std::size_t k, Rng& rng,
                              std::size_t max_iters) {
  const std::size_t n = data.size() / dim;
  auto point = [&](std::size_t i) {
    return std::span<const double>{data.data() + i * dim, dim};
  };
  KMeansResult res;
  res.k = k;
  res.dim = dim;
  res.centers.resize(k * dim);
  res.assignment.assign(n, 0);

  std::vector<double> min_d(n, std::numeric_limits<double>::max());
  {
    const auto first = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    for (std::size_t j = 0; j < dim; ++j) res.centers[j] = point(first)[j];
    for (std::size_t c = 1; c < k; ++c) {
      std::span<const double> prev{res.centers.data() + (c - 1) * dim, dim};
      for (std::size_t i = 0; i < n; ++i) {
        min_d[i] = std::min(min_d[i], sq_dist(point(i), prev));
      }
      std::size_t pick;
      const double total = [&] {
        double s = 0.0;
        for (double d : min_d) s += d;
        return s;
      }();
      if (total <= 0.0) {
        pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      } else {
        pick = rng.categorical(min_d);
      }
      for (std::size_t j = 0; j < dim; ++j) {
        res.centers[c * dim + j] = point(pick)[j];
      }
    }
  }

  std::vector<double> sums(k * dim);
  std::vector<std::size_t> counts(k);
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    bool changed = false;
    res.inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::max();
      std::size_t arg = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double d =
            sq_dist(point(i), {res.centers.data() + c * dim, dim});
        if (d < best) {
          best = d;
          arg = c;
        }
      }
      if (arg != res.assignment[i]) {
        res.assignment[i] = arg;
        changed = true;
      }
      res.inertia += best;
    }
    if (!changed && iter > 0) break;

    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), std::size_t{0});
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = res.assignment[i];
      ++counts[c];
      for (std::size_t j = 0; j < dim; ++j) {
        sums[c * dim + j] += point(i)[j];
      }
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        for (std::size_t j = 0; j < dim; ++j) {
          res.centers[c * dim + j] = point(pick)[j];
        }
        continue;
      }
      for (std::size_t j = 0; j < dim; ++j) {
        res.centers[c * dim + j] =
            sums[c * dim + j] / static_cast<double>(counts[c]);
      }
    }
  }
  return res;
}

TEST(KMeans, SeparatesTwoObviousClusters) {
  Rng rng(8);
  std::vector<double> data;
  // Cluster A around (0,0), cluster B around (10,10).
  for (int i = 0; i < 50; ++i) {
    data.push_back(rng.normal(0.0, 0.3));
    data.push_back(rng.normal(0.0, 0.3));
  }
  for (int i = 0; i < 50; ++i) {
    data.push_back(rng.normal(10.0, 0.3));
    data.push_back(rng.normal(10.0, 0.3));
  }
  const auto res = kmeans(data, 2, 2, rng);
  ASSERT_EQ(res.k, 2u);
  // One center near (0,0), the other near (10,10).
  const auto c0 = res.center(0);
  const auto c1 = res.center(1);
  const bool c0_low = std::abs(c0[0]) < 1.0;
  const auto& low = c0_low ? c0 : c1;
  const auto& high = c0_low ? c1 : c0;
  EXPECT_NEAR(low[0], 0.0, 0.5);
  EXPECT_NEAR(high[0], 10.0, 0.5);
  // All points in the same half share an assignment.
  for (int i = 1; i < 50; ++i) {
    EXPECT_EQ(res.assignment[0], res.assignment[i]);
  }
  for (int i = 51; i < 100; ++i) {
    EXPECT_EQ(res.assignment[50], res.assignment[i]);
  }
  EXPECT_NE(res.assignment[0], res.assignment[50]);
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  Rng rng(15);
  std::vector<double> data;
  for (int i = 0; i < 200; ++i) data.push_back(rng.uniform(0.0, 100.0));
  Rng r1(1), r2(1);
  const auto k2 = kmeans(data, 1, 2, r1);
  const auto k8 = kmeans(data, 1, 8, r2);
  EXPECT_LT(k8.inertia, k2.inertia);
}

TEST(KMeans, KEqualsNGivesZeroInertia) {
  Rng rng(4);
  const std::vector<double> data{1.0, 5.0, 9.0};
  const auto res = kmeans(data, 1, 3, rng);
  EXPECT_NEAR(res.inertia, 0.0, 1e-18);
}

enum class Shape {
  kContinuous,
  kTieHeavy,
  kMidpoint,
  kDuplicates,
  kSeparated,
  kSingle,
  kEveryPoint
};

struct Input {
  std::vector<double> data;
  std::size_t k = 0;
};

Input make_input(Shape shape, std::size_t dim, std::uint64_t seed) {
  Rng rng(seed * 1000 + dim);
  Input in;
  auto push_point = [&](double x0, double x1) {
    in.data.push_back(x0);
    for (std::size_t j = 1; j < dim; ++j) in.data.push_back(j == 1 ? x1 : 0.0);
  };
  switch (shape) {
    case Shape::kContinuous:
      for (std::size_t i = 0; i < 120 * dim; ++i) {
        in.data.push_back(rng.normal(0.0, 1.0) + (i % 3 == 0 ? 2.0 : 0.0));
      }
      in.k = 6;
      break;
    case Shape::kTieHeavy:
      // An integer grid small enough that points repeat and many
      // point-to-center distances tie exactly.
      for (std::size_t i = 0; i < 120 * dim; ++i) {
        in.data.push_back(static_cast<double>(rng.uniform_int(0, 3)));
      }
      in.k = 7;
      break;
    case Shape::kMidpoint:
      // Grid points o = 0, p = (1, 1, 0, ...) and 3p, o repeated. When
      // seeding puts center 0 on o and center 1 on p, center 1 moves to
      // 2p, and p ties exactly between the two: the scan must move it to
      // center 0. |p|^2 = 2, so a bound taken as sqrt(2) rounds up and
      // hides the tie unless the slack shrinks it.
      for (std::uint64_t i = 0; i < 20 + seed % 3; ++i) push_point(0.0, 0.0);
      push_point(1.0, 1.0);
      push_point(3.0, 3.0);
      in.k = 2;
      break;
    case Shape::kDuplicates:
      // Few distinct locations, each repeated: clusters empty out and are
      // re-seeded onto locations other centers already sit on, so a point
      // can be at distance 0 from two centers.
      {
        std::vector<double> pool(12 * dim);
        for (double& v : pool) v = rng.normal(0.0, 1.0);
        for (std::size_t i = 0; i < 16; ++i) {
          const auto at = static_cast<std::size_t>(rng.uniform_int(0, 11));
          in.data.insert(in.data.end(), pool.begin() + at * dim,
                         pool.begin() + (at + 1) * dim);
        }
      }
      in.k = 11;
      break;
    case Shape::kSeparated:
      for (std::size_t i = 0; i < 120; ++i) {
        const double offset = 50.0 * static_cast<double>(i % 4);
        for (std::size_t j = 0; j < dim; ++j) {
          in.data.push_back(offset + rng.normal(0.0, 0.5));
        }
      }
      in.k = 4;
      break;
    case Shape::kSingle:
      for (std::size_t i = 0; i < 120 * dim; ++i) {
        in.data.push_back(rng.uniform(-5.0, 5.0));
      }
      in.k = 1;
      break;
    case Shape::kEveryPoint:
      // k = n over duplicated grid points: seeding runs out of distinct
      // points, centers coincide and empty clusters are re-seeded.
      for (std::size_t i = 0; i < 24 * dim; ++i) {
        in.data.push_back(static_cast<double>(rng.uniform_int(0, 2)));
      }
      in.k = 24;
      break;
  }
  return in;
}

// Hamerly's bounds may skip a point's k-way scan only when its own center
// is provably the scan's answer, so the bounded kmeans() must reproduce the
// plain Lloyd loop exactly: assignments, center bits, inertia bits and the
// Rng state after the run. The midpoint and duplicate inputs build exact
// ties; dropping the bound slack fails the midpoint input and letting the
// skip test admit equality fails the duplicate input.
TEST(KMeans, MatchesReferenceLloydBitForBit) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const Shape shape :
         {Shape::kContinuous, Shape::kTieHeavy, Shape::kMidpoint,
          Shape::kDuplicates, Shape::kSeparated, Shape::kSingle,
          Shape::kEveryPoint}) {
      for (std::size_t dim = 1; dim <= 12; ++dim) {
        const auto in = make_input(shape, dim, seed);
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " shape "
                     << static_cast<int>(shape) << " dim " << dim);
        Rng r_ref(seed * 100 + dim), r_fast(seed * 100 + dim);
        const auto want = reference_kmeans(in.data, dim, in.k, r_ref, 100);
        const auto got = kmeans(in.data, dim, in.k, r_fast, 100);
        ASSERT_EQ(got.assignment, want.assignment);
        ASSERT_EQ(got.centers.size(), want.centers.size());
        for (std::size_t i = 0; i < want.centers.size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got.centers[i]),
                    std::bit_cast<std::uint64_t>(want.centers[i]))
              << "center coordinate " << i;
        }
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.inertia),
                  std::bit_cast<std::uint64_t>(want.inertia));
        ASSERT_EQ(std::bit_cast<std::uint64_t>(r_fast.uniform()),
                  std::bit_cast<std::uint64_t>(r_ref.uniform()));
      }
    }
  }
}

TEST(KMeans, Errors) {
  Rng rng(1);
  const std::vector<double> data{1.0, 2.0, 3.0};
  EXPECT_THROW(kmeans(data, 0, 1, rng), std::invalid_argument);
  EXPECT_THROW(kmeans(data, 1, 0, rng), std::invalid_argument);
  EXPECT_THROW(kmeans(data, 2, 1, rng), std::invalid_argument);  // ragged
  EXPECT_THROW(kmeans(data, 1, 5, rng), std::invalid_argument);  // k > n
}

}  // namespace
}  // namespace pfm::num
