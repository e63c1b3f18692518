// Dense row-major matrix over double or std::complex<double>, with
// partial-pivot LU factorization, linear solves and inversion. Sized for the
// library's needs (NEGF cells ~100x100, MNA systems ~1000x1000 fall back to
// sparse CG; dense LU is used for NEGF and small MNA systems).
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace cnti::numerics {

template <typename T>
double abs_value(const T& v) {
  return std::abs(v);
}

/// Dense row-major matrix. Value semantics; cheap to move.
template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const T& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  Matrix& operator+=(const Matrix& o) {
    CNTI_EXPECTS(rows_ == o.rows_ && cols_ == o.cols_, "shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
    return *this;
  }
  Matrix& operator-=(const Matrix& o) {
    CNTI_EXPECTS(rows_ == o.rows_ && cols_ == o.cols_, "shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
    return *this;
  }
  Matrix& operator*=(T s) {
    for (auto& v : data_) v *= s;
    return *this;
  }

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, T s) { return a *= s; }
  friend Matrix operator*(T s, Matrix a) { return a *= s; }

  friend Matrix operator*(const Matrix& a, const Matrix& b) {
    CNTI_EXPECTS(a.cols_ == b.rows_, "matmul shape mismatch");
    Matrix out(a.rows_, b.cols_);
    for (std::size_t i = 0; i < a.rows_; ++i) {
      for (std::size_t k = 0; k < a.cols_; ++k) {
        const T aik = a(i, k);
        if (aik == T{}) continue;
        for (std::size_t j = 0; j < b.cols_; ++j) {
          out(i, j) += aik * b(k, j);
        }
      }
    }
    return out;
  }

  std::vector<T> operator*(const std::vector<T>& x) const {
    CNTI_EXPECTS(cols_ == x.size(), "matvec shape mismatch");
    std::vector<T> y(rows_, T{});
    for (std::size_t i = 0; i < rows_; ++i) {
      T acc{};
      for (std::size_t j = 0; j < cols_; ++j) acc += (*this)(i, j) * x[j];
      y[i] = acc;
    }
    return y;
  }

  Matrix transpose() const {
    Matrix out(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
    return out;
  }

  /// Conjugate transpose (== transpose for real T).
  Matrix adjoint() const {
    Matrix out(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t j = 0; j < cols_; ++j) {
        if constexpr (std::is_same_v<T, std::complex<double>>) {
          out(j, i) = std::conj((*this)(i, j));
        } else {
          out(j, i) = (*this)(i, j);
        }
      }
    return out;
  }

  /// Frobenius norm.
  double norm() const {
    double s = 0;
    for (const auto& v : data_) s += abs_value(v) * abs_value(v);
    return std::sqrt(s);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using MatrixD = Matrix<double>;
using MatrixC = Matrix<std::complex<double>>;

/// Partial-pivot LU factorization of a square matrix. Factor once, solve for
/// many right-hand sides. Throws NumericalError on (near-)singularity.
template <typename T>
class LuFactorization {
 public:
  explicit LuFactorization(Matrix<T> a) : lu_(std::move(a)) {
    CNTI_EXPECTS(lu_.rows() == lu_.cols(), "LU requires a square matrix");
    const std::size_t n = lu_.rows();
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

    for (std::size_t k = 0; k < n; ++k) {
      // Pivot selection.
      std::size_t piv = k;
      double best = abs_value(lu_(k, k));
      for (std::size_t i = k + 1; i < n; ++i) {
        const double v = abs_value(lu_(i, k));
        if (v > best) {
          best = v;
          piv = i;
        }
      }
      if (best < 1e-300) {
        throw NumericalError("LU: matrix is singular to working precision");
      }
      if (piv != k) {
        swap_rows(k, piv);
        std::swap(perm_[k], perm_[piv]);
        sign_ = -sign_;
      }
      const T pivot = lu_(k, k);
      for (std::size_t i = k + 1; i < n; ++i) {
        const T m = lu_(i, k) / pivot;
        lu_(i, k) = m;
        if (m == T{}) continue;
        for (std::size_t j = k + 1; j < n; ++j) {
          lu_(i, j) -= m * lu_(k, j);
        }
      }
    }
  }

  std::size_t size() const { return lu_.rows(); }

  /// Solve A x = b.
  std::vector<T> solve(const std::vector<T>& b) const {
    const std::size_t n = lu_.rows();
    CNTI_EXPECTS(b.size() == n, "rhs size mismatch");
    std::vector<T> x(n);
    // Apply permutation, forward substitution (L has unit diagonal).
    for (std::size_t i = 0; i < n; ++i) {
      T acc = b[perm_[i]];
      for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
      x[i] = acc;
    }
    // Back substitution.
    for (std::size_t ii = n; ii-- > 0;) {
      T acc = x[ii];
      for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
      x[ii] = acc / lu_(ii, ii);
    }
    return x;
  }

  /// Solve A X = B for every column at once, in row-axpy form: row i of X
  /// takes the updates X[i,:] -= LU(i,j) X[j,:], four rows j per pass over
  /// contiguous memory. Every column still sees exactly the operation
  /// sequence of solve(vector), so the result is bitwise the
  /// column-by-column solve.
  Matrix<T> solve(const Matrix<T>& b) const {
    const std::size_t n = lu_.rows();
    const std::size_t w = b.cols();
    CNTI_EXPECTS(b.rows() == n, "rhs rows mismatch");
    Matrix<T> x(n, w);
    if (w == 0) return x;
    // X[i,:] -= sum_{j in [j0, j1)} LU(i,j) X[j,:], in j order.
    const auto eliminate = [&](std::size_t i, std::size_t j0,
                               std::size_t j1) {
      T* xi = &x(i, 0);
      std::size_t j = j0;
      for (; j + 4 <= j1; j += 4) {
        const T f0 = lu_(i, j), f1 = lu_(i, j + 1), f2 = lu_(i, j + 2),
                f3 = lu_(i, j + 3);
        const T* x0 = &x(j, 0);
        const T* x1 = &x(j + 1, 0);
        const T* x2 = &x(j + 2, 0);
        const T* x3 = &x(j + 3, 0);
        for (std::size_t c = 0; c < w; ++c) {
          xi[c] = xi[c] - f0 * x0[c] - f1 * x1[c] - f2 * x2[c] - f3 * x3[c];
        }
      }
      for (; j < j1; ++j) {
        const T f = lu_(i, j);
        const T* xj = &x(j, 0);
        for (std::size_t c = 0; c < w; ++c) xi[c] -= f * xj[c];
      }
    };
    for (std::size_t i = 0; i < n; ++i) {
      const T* bi = &b(perm_[i], 0);
      T* xi = &x(i, 0);
      for (std::size_t c = 0; c < w; ++c) xi[c] = bi[c];
      eliminate(i, 0, i);
    }
    for (std::size_t ii = n; ii-- > 0;) {
      eliminate(ii, ii + 1, n);
      const T d = lu_(ii, ii);
      T* xi = &x(ii, 0);
      for (std::size_t c = 0; c < w; ++c) xi[c] /= d;
    }
    return x;
  }

  T determinant() const {
    T det = (sign_ > 0) ? T{1} : T{-1};
    for (std::size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
    return det;
  }

 private:
  void swap_rows(std::size_t a, std::size_t b) {
    for (std::size_t j = 0; j < lu_.cols(); ++j) std::swap(lu_(a, j), lu_(b, j));
  }

  Matrix<T> lu_;
  std::vector<std::size_t> perm_;
  int sign_ = 1;
};

/// Matrix inverse via LU (used by NEGF Green's functions).
template <typename T>
Matrix<T> inverse(const Matrix<T>& a) {
  LuFactorization<T> lu(a);
  return lu.solve(Matrix<T>::identity(a.rows()));
}

/// Solve A x = b via LU (convenience for one-shot solves).
template <typename T>
std::vector<T> solve_dense(const Matrix<T>& a, const std::vector<T>& b) {
  return LuFactorization<T>(a).solve(b);
}

}  // namespace cnti::numerics
