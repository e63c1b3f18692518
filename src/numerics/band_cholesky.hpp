// Banded Cholesky factor of a symmetric positive-definite pencil
// K = G + s C, filled straight from the sorted CSR rows of G and C. The
// terminated RC bus has no branch rows, so its pencil is exactly symmetric,
// and stamped in its line modes (rom::BusStateSpace) it is N decoupled
// tridiagonal chains: half-bandwidth w = 1. K = L L^T costs n w^2 / 2
// multiply-adds with no symbolic analysis, no pivot search and no fill
// outside the band. L keeps reciprocal pivots, so at w = 1 a solve is a
// chain of multiplies, not divisions. There is no pivoting, so the factor
// is deterministic; a non-positive pivot (K not positive definite) throws
// NumericalError.
//
// Structure decides the path: factorize() declines (returns false) when K
// is not exactly symmetric or is wider than the caller's bound, and the
// caller then uses the general SparseLu. The factor reports into the same
// cnti.solver.* counters, histograms and nnz gauge as SparseLu, so per-layer
// accounting sees the work whichever factor ran.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "numerics/sparse.hpp"
#include "obs/obs.hpp"

namespace cnti::numerics {

class BandCholesky {
 public:
  /// Factors K = G + s C (C is not read when s == 0). Returns false and
  /// leaves the object unfactored when K is not exactly symmetric or its
  /// half-bandwidth exceeds `max_half_bandwidth`. Throws NumericalError on
  /// a non-positive pivot; solve() refuses to run afterwards.
  [[nodiscard]] bool factorize(const SparseMatrix& g, const SparseMatrix& c,
                               double s, std::size_t max_half_bandwidth) {
    CNTI_EXPECTS(g.rows() == g.cols() && g.rows() > 0,
                 "BandCholesky needs a non-empty square matrix");
    CNTI_EXPECTS(s == 0.0 || (c.rows() == g.rows() && c.cols() == g.cols()),
                 "BandCholesky: pencil size mismatch");
    factored_ = false;
    const std::size_t w = std::max(half_bandwidth_of(g),
                                   s == 0.0 ? 0 : half_bandwidth_of(c));
    if (w > max_half_bandwidth) return false;

    static const obs::Counter fulls =
        obs::counter("cnti.solver.factorizations");
    static const obs::Gauge nnz_gauge = obs::gauge("cnti.solver.nnz_lu");
    static const obs::Histogram factor_hist =
        obs::histogram("cnti.solver.factor_ns");
    const obs::ObsSpan span("band_cholesky.factorize", "solver", factor_hist);
    n_ = g.rows();
    w_ = w;
    const std::size_t ld = w + 1;
    // Row i of l_ holds K(i, i-w .. i) at [i * ld + (col - i + w)]; only
    // the lower triangle is scattered. Once factored, the diagonal slot
    // holds 1 / L(i, i).
    l_.assign(n_ * ld, 0.0);
    const auto scatter_lower = [&](const SparseMatrix& a, double scale) {
      for (std::size_t r = 0; r < n_; ++r) {
        for (std::size_t t = a.row_ptr()[r]; t < a.row_ptr()[r + 1]; ++t) {
          const std::size_t col = a.col_indices()[t];
          if (col <= r) l_[r * ld + col + w - r] += scale * a.values()[t];
        }
      }
    };
    scatter_lower(g, 1.0);
    if (s != 0.0) scatter_lower(c, s);
    if (!symmetric(g, c, s)) return false;

    for (std::size_t i = 0; i < n_; ++i) {
      double* li = &l_[i * ld];
      const std::size_t j0 = i > w ? i - w : 0;
      for (std::size_t j = j0; j < i; ++j) {
        const double* lj = &l_[j * ld];
        double sum = li[j + w - i];
        for (std::size_t k = j0; k < j; ++k) {
          sum -= li[k + w - i] * lj[k + w - j];
        }
        li[j + w - i] = sum * lj[w];
      }
      double d = li[w];
      for (std::size_t k = j0; k < i; ++k) d -= li[k + w - i] * li[k + w - i];
      if (!(d > 0.0)) {
        throw NumericalError(
            "BandCholesky: matrix is not positive definite (pivot <= 0)");
      }
      li[w] = 1.0 / std::sqrt(d);
    }
    factored_ = true;
    fulls.add();
    nnz_gauge.set(static_cast<double>(n_ * ld));
    return true;
  }

  std::size_t size() const { return n_; }
  /// Half-bandwidth w of the factored pencil (L keeps n (w + 1) entries).
  std::size_t half_bandwidth() const { return w_; }

  /// Solves K x = b with the current factor: L y = b, then L^T x = y.
  std::vector<double> solve(const std::vector<double>& b) const {
    CNTI_EXPECTS(factored_, "BandCholesky: factorize before solve");
    CNTI_EXPECTS(b.size() == n_, "BandCholesky: rhs size mismatch");
    static const obs::Counter solves = obs::counter("cnti.solver.solves");
    static const obs::Histogram solve_hist =
        obs::histogram("cnti.solver.solve_ns");
    solves.add();
    const obs::ObsSpan span("band_cholesky.solve", "solver", solve_hist);
    const std::size_t w = w_;
    const std::size_t ld = w + 1;
    std::vector<double> x(b);
    for (std::size_t i = 0; i < n_; ++i) {
      const double* li = &l_[i * ld];
      double sum = x[i];
      for (std::size_t k = i > w ? i - w : 0; k < i; ++k) {
        sum -= li[k + w - i] * x[k];
      }
      x[i] = sum * li[w];
    }
    // L^T x = y by columns of L^T (rows of L), so every update is a
    // contiguous row read.
    for (std::size_t i = n_; i-- > 0;) {
      const double* li = &l_[i * ld];
      const double xi = x[i] * li[w];
      x[i] = xi;
      for (std::size_t k = i > w ? i - w : 0; k < i; ++k) {
        x[k] -= li[k + w - i] * xi;
      }
    }
    return x;
  }

 private:
  /// Exact symmetry of K against the scattered lower triangle: each upper
  /// entry K(r, col), summed in the order its lower slot was (G's terms,
  /// then s C's), equals the slot K(col, r), and no lower slot is nonzero
  /// without such an entry. Rows are sorted by column, as every producer
  /// of a SparseMatrix here builds them.
  bool symmetric(const SparseMatrix& g, const SparseMatrix& c,
                 double s) const {
    const std::size_t ld = w_ + 1;
    std::size_t upper_nonzeros = 0;
    for (std::size_t r = 0; r < n_; ++r) {
      std::size_t i = g.row_ptr()[r];
      const std::size_t ie = g.row_ptr()[r + 1];
      std::size_t j = s == 0.0 ? 0 : c.row_ptr()[r];
      const std::size_t je = s == 0.0 ? 0 : c.row_ptr()[r + 1];
      for (;;) {
        while (i < ie && g.col_indices()[i] <= r) ++i;
        while (j < je && c.col_indices()[j] <= r) ++j;
        if (i == ie && j == je) break;
        const std::size_t col = std::min(i < ie ? g.col_indices()[i] : n_,
                                         j < je ? c.col_indices()[j] : n_);
        double sum = 0.0;
        for (; i < ie && g.col_indices()[i] == col; ++i) sum += g.values()[i];
        for (; j < je && c.col_indices()[j] == col; ++j) {
          sum += s * c.values()[j];
        }
        if (sum != l_[col * ld + r + w_ - col]) return false;
        if (sum != 0.0) ++upper_nonzeros;
      }
    }
    std::size_t lower_nonzeros = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t k = 0; k < w_; ++k) {
        if (l_[i * ld + k] != 0.0) ++lower_nonzeros;
      }
    }
    return lower_nonzeros == upper_nonzeros;
  }

  static std::size_t half_bandwidth_of(const SparseMatrix& a) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < a.rows(); ++r) {
      for (std::size_t t = a.row_ptr()[r]; t < a.row_ptr()[r + 1]; ++t) {
        const std::size_t col = a.col_indices()[t];
        w = std::max(w, col > r ? col - r : r - col);
      }
    }
    return w;
  }

  std::size_t n_ = 0;
  std::size_t w_ = 0;
  bool factored_ = false;
  std::vector<double> l_;
};

}  // namespace cnti::numerics
