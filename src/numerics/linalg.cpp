#include "numerics/linalg.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace pfm::num {

LuDecomposition::LuDecomposition(Matrix a) : lu_(std::move(a)) {
  if (!lu_.square()) {
    throw std::invalid_argument("LuDecomposition: matrix must be square");
  }
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude in column k.
    std::size_t pivot = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      if (std::abs(lu_(i, k)) > best) {
        best = std::abs(lu_(i, k));
        pivot = i;
      }
    }
    if (best < 1e-300) {
      throw std::runtime_error("LuDecomposition: singular matrix");
    }
    if (pivot != k) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(lu_(k, j), lu_(pivot, j));
      }
      std::swap(perm_[k], perm_[pivot]);
      sign_ = -sign_;
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      lu_(i, k) /= lu_(k, k);
      const double lik = lu_(i, k);
      if (lik == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) {
        lu_(i, j) -= lik * lu_(k, j);
      }
    }
  }
}

std::vector<double> LuDecomposition::solve(std::span<const double> b) const {
  const std::size_t n = lu_.rows();
  if (b.size() != n) throw std::invalid_argument("LU solve: size mismatch");
  std::vector<double> x(n);
  // Forward substitution with permutation.
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) s -= lu_(i, j) * x[j];
    x[i] = s;
  }
  // Backward substitution.
  for (std::size_t i = n; i-- > 0;) {
    double s = x[i];
    for (std::size_t j = i + 1; j < n; ++j) s -= lu_(i, j) * x[j];
    x[i] = s / lu_(i, i);
  }
  return x;
}

Matrix LuDecomposition::solve(const Matrix& b) const {
  if (b.rows() != lu_.rows()) {
    throw std::invalid_argument("LU solve: size mismatch");
  }
  Matrix x(b.rows(), b.cols());
  std::vector<double> col(b.rows());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t i = 0; i < b.rows(); ++i) col[i] = b(i, j);
    const auto xj = solve(col);
    for (std::size_t i = 0; i < b.rows(); ++i) x(i, j) = xj[i];
  }
  return x;
}

double LuDecomposition::determinant() const noexcept {
  double d = sign_;
  for (std::size_t i = 0; i < lu_.rows(); ++i) d *= lu_(i, i);
  return d;
}

std::vector<double> solve(const Matrix& a, std::span<const double> b) {
  return LuDecomposition(a).solve(b);
}

Matrix inverse(const Matrix& a) {
  return LuDecomposition(a).solve(Matrix::identity(a.rows()));
}

std::vector<double> least_squares(const Matrix& a, std::span<const double> b,
                                  double ridge) {
  if (a.rows() != b.size()) {
    throw std::invalid_argument("least_squares: size mismatch");
  }
  // A^T A and A^T b in one pass over the rows of A, the upper triangle
  // mirrored. Entry (i, j) sums a(r, i) * a(r, j) over rows r in order,
  // skipping a(r, i) == 0, and A^T b sums a(r, i) * b(r) in order: the same
  // products in the same order as at * a and at.apply(b).
  const std::size_t m = a.cols();
  Matrix ata(m, m);
  std::vector<double> atb(m, 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto row = a.row(r);
    for (std::size_t i = 0; i < m; ++i) {
      const double ri = row[i];
      atb[i] += ri * b[r];
      if (ri == 0.0) continue;
      for (std::size_t j = i; j < m; ++j) ata(i, j) += ri * row[j];
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < i; ++j) ata(i, j) = ata(j, i);
  }
  if (ridge > 0.0) {
    double trace = 0.0;
    for (std::size_t i = 0; i < ata.rows(); ++i) trace += ata(i, i);
    const double damp = ridge * (trace / static_cast<double>(ata.rows()) + 1.0);
    for (std::size_t i = 0; i < ata.rows(); ++i) ata(i, i) += damp;
  }
  return solve(ata, atb);
}

std::vector<double> stationary_distribution(const Matrix& q) {
  if (!q.square()) {
    throw std::invalid_argument("stationary_distribution: Q must be square");
  }
  const std::size_t n = q.rows();
  // Solve pi Q = 0 with sum(pi) = 1: replace the last column of Q^T's system
  // by the normalization constraint.
  Matrix a = q.transposed();
  for (std::size_t j = 0; j < n; ++j) a(n - 1, j) = 1.0;
  std::vector<double> b(n, 0.0);
  b[n - 1] = 1.0;
  auto pi = solve(a, b);
  // Clamp tiny negative round-off.
  for (double& p : pi) {
    if (p < 0.0 && p > -1e-12) p = 0.0;
  }
  return pi;
}

}  // namespace pfm::num
