// Iterative and direct solvers for the TCAD and thermal tiers: Jacobi-
// preconditioned conjugate gradient for the SPD Laplacians of the field
// solver, and the Thomas algorithm for the 1-D thermal line.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "numerics/sparse.hpp"

namespace cnti::numerics {

struct IterativeResult {
  std::vector<double> x;
  std::size_t iterations = 0;
  double residual = 0.0;   ///< Final relative residual ||b-Ax||/||b||.
  bool converged = false;
};

struct IterativeOptions {
  std::size_t max_iterations = 5000;
  double tolerance = 1e-10;  ///< Relative residual target.
};

namespace detail {

inline double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

inline double norm2(const std::vector<double>& a) {
  return std::sqrt(dot(a, a));
}

inline void axpy(double alpha, const std::vector<double>& x,
                 std::vector<double>& y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

/// True relative residual ||b - A x|| / bnorm of the current iterate --
/// reported on every non-converged exit so a breakdown can never leave a
/// recurrence value (or a stale 0.0) in IterativeResult::residual.
inline double true_residual(const SparseMatrix& a, const std::vector<double>& b,
                            const std::vector<double>& x, double bnorm,
                            std::vector<double>& scratch) {
  a.multiply(x, scratch);
  for (std::size_t i = 0; i < b.size(); ++i) scratch[i] = b[i] - scratch[i];
  return norm2(scratch) / bnorm;
}

}  // namespace detail

/// Jacobi-preconditioned conjugate gradient for SPD systems. x0 may seed
/// the iteration (pass empty for zero start); a seed already within
/// tolerance converges in zero iterations.
inline IterativeResult conjugate_gradient(const SparseMatrix& a,
                                          const std::vector<double>& b,
                                          const IterativeOptions& opt = {},
                                          std::vector<double> x0 = {}) {
  CNTI_EXPECTS(a.rows() == a.cols(), "CG needs a square matrix");
  CNTI_EXPECTS(b.size() == a.rows(), "rhs size mismatch");
  const std::size_t n = a.rows();

  IterativeResult res;
  res.x = x0.empty() ? std::vector<double>(n, 0.0) : std::move(x0);
  CNTI_EXPECTS(res.x.size() == n, "x0 size mismatch");

  // Jacobi: missing or tiny diagonals fall back to the identity.
  std::vector<double> dinv = a.diagonal();
  for (auto& d : dinv) d = (std::abs(d) > 1e-300) ? 1.0 / d : 1.0;
  const auto apply_m = [&dinv](const std::vector<double>& v,
                               std::vector<double>& out) {
    for (std::size_t i = 0; i < dinv.size(); ++i) out[i] = dinv[i] * v[i];
  };

  std::vector<double> r(n), z(n), p(n), ap(n);
  a.multiply(res.x, ap);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];

  const double bnorm = detail::norm2(b);
  if (bnorm < 1e-300) {
    res.x.assign(n, 0.0);
    res.converged = true;
    return res;
  }

  // An already-converged seed must not fall through to the pap ~ 0
  // breakdown below and report converged=false with residual 0.0.
  res.residual = detail::norm2(r) / bnorm;
  if (res.residual < opt.tolerance) {
    res.converged = true;
    return res;
  }

  apply_m(r, z);
  p = z;
  double rz = detail::dot(r, z);

  for (std::size_t it = 0; it < opt.max_iterations; ++it) {
    a.multiply(p, ap);
    const double pap = detail::dot(p, ap);
    if (std::abs(pap) < 1e-300) break;
    const double alpha = rz / pap;
    detail::axpy(alpha, p, res.x);
    detail::axpy(-alpha, ap, r);
    res.iterations = it + 1;
    res.residual = detail::norm2(r) / bnorm;
    if (res.residual < opt.tolerance) {
      res.converged = true;
      return res;
    }
    apply_m(r, z);
    const double rz_new = detail::dot(r, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  res.residual = detail::true_residual(a, b, res.x, bnorm, ap);
  res.converged = res.residual < opt.tolerance;
  return res;
}

/// Thomas algorithm for tridiagonal systems (1-D thermal solver).
/// a = sub-diagonal (n-1), b = diagonal (n), c = super-diagonal (n-1).
inline std::vector<double> solve_tridiagonal(std::vector<double> a,
                                             std::vector<double> b,
                                             std::vector<double> c,
                                             std::vector<double> d) {
  const std::size_t n = b.size();
  CNTI_EXPECTS(n >= 1, "empty system");
  CNTI_EXPECTS(a.size() == n - 1 && c.size() == n - 1 && d.size() == n,
               "tridiagonal band sizes inconsistent");
  for (std::size_t i = 1; i < n; ++i) {
    if (std::abs(b[i - 1]) < 1e-300) {
      throw NumericalError("tridiagonal: zero pivot");
    }
    const double m = a[i - 1] / b[i - 1];
    b[i] -= m * c[i - 1];
    d[i] -= m * d[i - 1];
  }
  if (std::abs(b[n - 1]) < 1e-300) {
    throw NumericalError("tridiagonal: zero pivot");
  }
  std::vector<double> x(n);
  x[n - 1] = d[n - 1] / b[n - 1];
  for (std::size_t ii = n - 1; ii-- > 0;) {
    x[ii] = (d[ii] - c[ii] * x[ii + 1]) / b[ii];
  }
  return x;
}

}  // namespace cnti::numerics
