// linalg.h - Small dense symmetric linear algebra for the SCF substrate:
// column-major square matrices, Jacobi eigendecomposition, and the
// symmetric orthogonalization S^{-1/2} Hartree-Fock needs.
//
// Sizes here are tiny (basis dimensions of a few dozen), so a clear
// O(n^3) Jacobi sweep beats pulling in an external LAPACK.
#pragma once

#include <cstddef>
#include <vector>

namespace pastri::qc {

/// Dense square matrix, row-major.
class Matrix {
 public:
  Matrix() = default;
  explicit Matrix(std::size_t n, double fill = 0.0)
      : n_(n), data_(n * n, fill) {}

  std::size_t size() const { return n_; }
  double& operator()(std::size_t i, std::size_t j) {
    return data_[i * n_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i * n_ + j];
  }
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  static Matrix identity(std::size_t n);

  Matrix transpose() const;
  Matrix operator*(const Matrix& rhs) const;
  Matrix operator+(const Matrix& rhs) const;
  Matrix operator-(const Matrix& rhs) const;

  /// max_ij |a_ij - b_ij|
  double max_abs_diff(const Matrix& other) const;

 private:
  std::size_t n_ = 0;
  std::vector<double> data_;
};

/// Eigendecomposition A = V diag(w) V^T of a symmetric matrix by cyclic
/// Jacobi rotations.  Eigenvalues ascend; V's columns are eigenvectors.
struct EigenResult {
  std::vector<double> eigenvalues;
  Matrix eigenvectors;
};
EigenResult jacobi_eigensolver(const Matrix& a, int max_sweeps = 64,
                               double tol = 1e-12);

/// Solve the dense linear system A x = b by Gaussian elimination with
/// partial pivoting (A is copied).  Throws std::runtime_error when A is
/// numerically singular.  Used by the DIIS extrapolation in the SCF
/// solver.
std::vector<double> solve_linear(Matrix a, std::vector<double> b);

/// Loewdin symmetric orthogonalization: X = S^{-1/2}.
/// Throws std::runtime_error if S is (numerically) singular: an overlap
/// eigenvalue below 1e-10.
Matrix symmetric_orthogonalizer(const Matrix& s);

}  // namespace pastri::qc
