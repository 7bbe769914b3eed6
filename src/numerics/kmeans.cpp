#include "numerics/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace pfm::num {

namespace {

// Relative slack of Hamerly's bounds. A computed squared distance over dim
// coordinates is within (dim + 2) * 2^-53 of the exact one (every term is
// non-negative), and each bound update adds a few roundings more; 1e-9
// covers that for any dim below 10^6, so a point is kept without a scan
// only when its own center is nearer than every other by more than any
// rounding error could hide. Near ties always take the full scan.
constexpr double kBoundSlack = 1e-9;

double sq_dist(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

}  // namespace

KMeansResult kmeans(std::span<const double> data, std::size_t dim,
                    std::size_t k, Rng& rng, std::size_t max_iters) {
  if (k == 0 || dim == 0 || data.size() % dim != 0) {
    throw std::invalid_argument("kmeans: bad shape");
  }
  const std::size_t n = data.size() / dim;
  if (n < k) throw std::invalid_argument("kmeans: fewer points than clusters");

  auto point = [&](std::size_t i) {
    return std::span<const double>{data.data() + i * dim, dim};
  };

  KMeansResult res;
  res.k = k;
  res.dim = dim;
  res.centers.resize(k * dim);
  res.assignment.assign(n, 0);
  auto center = [&](std::size_t c) {
    return std::span<const double>{res.centers.data() + c * dim, dim};
  };

  // k-means++ seeding.
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

  // Lloyd's iterations with Hamerly's bounds (Hamerly 2010). Every pass
  // still computes each point's exact squared distance to its own center,
  // which is both its inertia term and the scan's value for that center.
  // When the bounds prove that center strictly nearest, the k-way scan is
  // skipped; otherwise the scan runs unchanged. Either way the assignment,
  // the inertia and the centers match a plain Lloyd bit for bit.
  std::vector<double> sums(k * dim);
  std::vector<std::size_t> counts(k);
  std::vector<double> previous(k * dim);
  std::vector<double> moved(k);
  std::vector<double> half_gap(k);
  // lower[i] <= distance from point i to every center but its own.
  std::vector<double> lower(n, 0.0);
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    // half_gap[c] <= half the distance from c to its nearest other center.
    for (std::size_t c = 0; c < k; ++c) {
      double nearest = std::numeric_limits<double>::infinity();
      for (std::size_t o = 0; o < k; ++o) {
        if (o == c) continue;
        nearest = std::min(nearest, sq_dist(center(c), center(o)));
      }
      half_gap[c] = 0.5 * std::sqrt(nearest) * (1.0 - kBoundSlack);
    }
    bool changed = false;
    res.inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t own = res.assignment[i];
      const double d_own = sq_dist(point(i), center(own));
      const double bound = std::max(lower[i], half_gap[own]);
      if (d_own < bound * bound * (1.0 - kBoundSlack)) {
        res.inertia += d_own;
        continue;
      }
      double best = std::numeric_limits<double>::max();
      double second = std::numeric_limits<double>::max();
      std::size_t arg = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double d = sq_dist(point(i), center(c));
        if (d < best) {
          second = best;
          best = d;
          arg = c;
        } else if (d < second) {
          second = d;
        }
      }
      lower[i] = std::sqrt(second) * (1.0 - kBoundSlack);
      if (arg != res.assignment[i]) {
        res.assignment[i] = arg;
        changed = true;
      }
      res.inertia += best;
    }
    if (!changed && iter > 0) break;

    previous = res.centers;
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
        // Re-seed an empty cluster at a random point.
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

    // A center that moved by m brings every point at most m closer, so a
    // point's lower bound drops by the largest move among the other
    // centers. Moves are rounded up and bounds down, both by the slack.
    // A move out of a non-finite center is unbounded.
    std::size_t far = 0;
    for (std::size_t c = 0; c < k; ++c) {
      const double m =
          std::sqrt(sq_dist({previous.data() + c * dim, dim}, center(c))) *
          (1.0 + kBoundSlack);
      moved[c] = std::isnan(m) ? std::numeric_limits<double>::infinity() : m;
      if (moved[c] > moved[far]) far = c;
    }
    double runner_up = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      if (c != far) runner_up = std::max(runner_up, moved[c]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double m = res.assignment[i] == far ? runner_up : moved[far];
      lower[i] = std::max(0.0, (lower[i] - m) * (1.0 - kBoundSlack));
    }
  }
  return res;
}

}  // namespace pfm::num
