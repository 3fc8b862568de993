#include "qc/linalg.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace pastri::qc {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transpose() const {
  Matrix t(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) t(j, i) = (*this)(i, j);
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  assert(n_ == rhs.n_);
  Matrix out(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t k = 0; k < n_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      for (std::size_t j = 0; j < n_; ++j) {
        out(i, j) += a * rhs(k, j);
      }
    }
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  assert(n_ == rhs.n_);
  Matrix out(n_);
  for (std::size_t i = 0; i < n_ * n_; ++i) {
    out.data_[i] = data_[i] + rhs.data_[i];
  }
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  assert(n_ == rhs.n_);
  Matrix out(n_);
  for (std::size_t i = 0; i < n_ * n_; ++i) {
    out.data_[i] = data_[i] - rhs.data_[i];
  }
  return out;
}

double Matrix::max_abs_diff(const Matrix& other) const {
  assert(n_ == other.n_);
  double m = 0.0;
  for (std::size_t i = 0; i < n_ * n_; ++i) {
    m = std::max(m, std::abs(data_[i] - other.data_[i]));
  }
  return m;
}

EigenResult jacobi_eigensolver(const Matrix& a_in, int max_sweeps,
                               double tol) {
  const std::size_t n = a_in.size();
  Matrix a = a_in;
  Matrix v = Matrix::identity(n);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) off += a(i, j) * a(i, j);
    }
    if (std::sqrt(off) < tol) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) < 1e-300) continue;
        const double theta = 0.5 * (a(q, q) - a(p, p)) / apq;
        const double t =
            (theta >= 0 ? 1.0 : -1.0) /
            (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p), akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k), aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p), vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort ascending by eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return a(x, x) < a(y, y);
  });
  EigenResult r;
  r.eigenvalues.resize(n);
  r.eigenvectors = Matrix(n);
  for (std::size_t c = 0; c < n; ++c) {
    r.eigenvalues[c] = a(order[c], order[c]);
    for (std::size_t k = 0; k < n; ++k) {
      r.eigenvectors(k, c) = v(k, order[c]);
    }
  }
  return r;
}

std::vector<double> solve_linear(Matrix a, std::vector<double> b) {
  const std::size_t n = a.size();
  if (b.size() != n) throw std::invalid_argument("solve_linear: size");
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t piv = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a(r, col)) > std::abs(a(piv, col))) piv = r;
    }
    if (std::abs(a(piv, col)) < 1e-14) {
      throw std::runtime_error("solve_linear: singular matrix");
    }
    if (piv != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(piv, c), a(col, c));
      std::swap(b[piv], b[col]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a(r, col) / a(col, col);
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a(r, c) -= f * a(col, c);
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n);
  for (std::size_t ri = n; ri-- > 0;) {
    double sum = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) sum -= a(ri, c) * x[c];
    x[ri] = sum / a(ri, ri);
  }
  return x;
}

Matrix symmetric_orthogonalizer(const Matrix& s) {
  constexpr double kLindepTol = 1e-10;
  const EigenResult eig = jacobi_eigensolver(s);
  const std::size_t n = s.size();
  for (double w : eig.eigenvalues) {
    if (w < kLindepTol) {
      throw std::runtime_error(
          "overlap matrix is (near-)singular; basis linearly dependent");
    }
  }
  Matrix x(n);
  // X = V diag(1/sqrt(w)) V^T
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        sum += eig.eigenvectors(i, k) * eig.eigenvectors(j, k) /
               std::sqrt(eig.eigenvalues[k]);
      }
      x(i, j) = sum;
    }
  }
  return x;
}

}  // namespace pastri::qc
