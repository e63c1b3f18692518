// Sparse direct solver: Gilbert–Peierls left-looking LU with partial
// pivoting over CSR inputs (converted to column view internally). Symbolic
// work — the depth-first reachability that discovers each column's fill
// pattern, the pivot order, and the CSR->CSC scatter map — is done once per
// sparsity pattern; subsequent factorizations of a matrix with the same
// pattern replay the recorded elimination with no graph traversal, no
// allocation and no pivot search, which is what makes a Newton loop with a
// frozen MNA pattern cheap. A refactorization whose reused pivot degrades
// numerically falls back to a fresh fully-pivoted factorization
// automatically. A fill-reducing column pre-permutation (see ordering.hpp)
// can be installed ahead of the analysis; it participates in the same
// once-per-pattern reuse.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "numerics/sparse.hpp"
#include "obs/obs.hpp"

namespace cnti::numerics {

/// Reusable sparse LU factorization. Factor once with factorize(), solve
/// many right-hand sides with solve(); re-factorize cheaply whenever the
/// matrix values change but the pattern does not. An optional fill-reducing
/// column pre-permutation (set_column_ordering, e.g. from amd_ordering)
/// reorders the elimination; rows stay free for partial pivoting.
class SparseLu {
 public:
  SparseLu() = default;

  /// Installs a column pre-permutation `perm` (new column j factors
  /// original column perm[j]); empty restores the natural order. Changing
  /// the ordering invalidates the stored symbolic analysis — the next
  /// factorize() runs fresh; subsequent same-pattern factorizations reuse
  /// the new analysis as usual. solve() still returns x in original
  /// variable order.
  void set_column_ordering(std::vector<std::size_t> perm) {
    if (perm == q_) return;
    q_ = std::move(perm);
    analyzed_ = false;
  }

  /// Factorizes `a` (square CSR). If `a` has the same sparsity pattern as
  /// the previous factorization, the symbolic analysis and pivot order are
  /// reused (numeric-only refactorization); otherwise a full left-looking
  /// factorization with partial pivoting runs. Throws NumericalError on
  /// structural or numerical singularity.
  void factorize(const SparseMatrix& a) {
    CNTI_EXPECTS(a.rows() == a.cols(), "SparseLu needs a square matrix");
    CNTI_EXPECTS(a.rows() > 0, "SparseLu: empty system");
    static const obs::Counter replays = obs::counter("cnti.solver.refactorizations");
    static const obs::Counter fulls = obs::counter("cnti.solver.factorizations");
    static const obs::Counter fallbacks =
        obs::counter("cnti.solver.repivot_fallbacks");
    static const obs::Gauge nnz_gauge = obs::gauge("cnti.solver.nnz_lu");
    static const obs::Histogram factor_hist =
        obs::histogram("cnti.solver.factor_ns");
    const std::uint64_t t0 = obs::span_start();
    const bool replayable = analyzed_ && same_pattern(a);
    if (replayable && refactorize(a)) {
      reused_symbolic_ = true;
      replays.add();
      obs::span_end("sparse_lu.refactorize", "solver", t0, factor_hist);
      return;
    }
    // A failed replay means a pivot degraded past the growth bound and we
    // fell back to a fresh partial-pivoting pass.
    if (replayable) fallbacks.add();
    full_factorize(a);
    reused_symbolic_ = false;
    fulls.add();
    nnz_gauge.set(static_cast<double>(nnz_l() + nnz_u()));
    obs::span_end("sparse_lu.factorize", "solver", t0, factor_hist);
  }

  std::size_t size() const { return n_; }
  bool analyzed() const { return analyzed_; }
  /// True when the last factorize() reused the stored symbolic analysis.
  bool reused_symbolic() const { return reused_symbolic_; }
  std::size_t nnz_l() const { return li_.size(); }
  std::size_t nnz_u() const { return ui_.size() + n_; }

  /// Solves A x = b with the current factors.
  std::vector<double> solve(const std::vector<double>& b) const {
    CNTI_EXPECTS(analyzed_, "SparseLu: factorize before solve");
    CNTI_EXPECTS(b.size() == n_, "SparseLu: rhs size mismatch");
    static const obs::Counter solves = obs::counter("cnti.solver.solves");
    static const obs::Histogram solve_hist =
        obs::histogram("cnti.solver.solve_ns");
    solves.add();
    const obs::ObsSpan span("sparse_lu.solve", "solver", solve_hist);
    // Forward substitution L y = P b (L unit lower triangular in pivot
    // space; li_ stores original row ids, pinv_ maps them to pivot space).
    std::vector<double> y(n_);
    for (std::size_t k = 0; k < n_; ++k) y[k] = b[prow_[k]];
    for (std::size_t k = 0; k < n_; ++k) {
      const double yk = y[k];
      if (yk == 0.0) continue;
      for (std::size_t t = lp_[k]; t < lp_[k + 1]; ++t) {
        y[pinv_[li_[t]]] -= lx_[t] * yk;
      }
    }
    // Back substitution U x = y (U strict upper in ui_/ux_, diagonal in
    // udiag_), in factored (column-permuted) variable order.
    for (std::size_t jj = n_; jj-- > 0;) {
      const double xj = y[jj] / udiag_[jj];
      y[jj] = xj;
      if (xj == 0.0) continue;
      for (std::size_t t = up_[jj]; t < up_[jj + 1]; ++t) {
        y[ui_[t]] -= ux_[t] * xj;
      }
    }
    if (q_.empty()) return y;  // natural order: y is already x
    std::vector<double> x(n_);
    for (std::size_t j = 0; j < n_; ++j) x[q_[j]] = y[j];
    return x;
  }

 private:
  bool same_pattern(const SparseMatrix& a) const {
    return a.rows() == n_ && a.row_ptr() == a_row_ptr_ &&
           a.col_indices() == a_col_;
  }

  /// Builds the column (CSC) view of the pattern and the CSR->CSC value
  /// scatter map so refactorizations can gather values column-by-column.
  /// With a column ordering installed, original column c lands in factored
  /// column qinv_[c] — the permutation is baked into the view once, so the
  /// factorization and refactorization loops never see it.
  void build_column_view(const SparseMatrix& a) {
    if (!q_.empty()) {
      CNTI_EXPECTS(q_.size() == n_,
                   "SparseLu: column ordering length != matrix size");
      qinv_.assign(n_, kUnpivoted);
      for (std::size_t j = 0; j < n_; ++j) {
        CNTI_EXPECTS(q_[j] < n_ && qinv_[q_[j]] == kUnpivoted,
                     "SparseLu: column ordering is not a permutation");
        qinv_[q_[j]] = j;
      }
    } else {
      qinv_.clear();
    }
    const auto pcol = [this](std::size_t c) {
      return qinv_.empty() ? c : qinv_[c];
    };
    const std::size_t nnz = a.nnz();
    acol_ptr_.assign(n_ + 1, 0);
    acol_row_.resize(nnz);
    csr_to_csc_.resize(nnz);
    for (std::size_t t = 0; t < nnz; ++t) {
      ++acol_ptr_[pcol(a.col_indices()[t]) + 1];
    }
    for (std::size_t c = 0; c < n_; ++c) acol_ptr_[c + 1] += acol_ptr_[c];
    std::vector<std::size_t> next(acol_ptr_.begin(), acol_ptr_.end() - 1);
    for (std::size_t r = 0; r < n_; ++r) {
      for (std::size_t t = a.row_ptr()[r]; t < a.row_ptr()[r + 1]; ++t) {
        const std::size_t pos = next[pcol(a.col_indices()[t])]++;
        acol_row_[pos] = r;
        csr_to_csc_[t] = pos;
      }
    }
  }

  void gather_column_values(const SparseMatrix& a) {
    acol_val_.resize(a.nnz());
    for (std::size_t t = 0; t < a.nnz(); ++t) {
      acol_val_[csr_to_csc_[t]] = a.values()[t];
    }
  }

  void full_factorize(const SparseMatrix& a) {
    // Invalidate up front: a singularity throw below must not leave a
    // previously analyzed object claiming its (now truncated) factors are
    // usable by solve() or a later pattern-matched refactorize().
    analyzed_ = false;
    n_ = a.rows();
    a_row_ptr_ = a.row_ptr();
    a_col_ = a.col_indices();
    build_column_view(a);
    gather_column_values(a);

    lp_.assign(1, 0);
    li_.clear();
    lx_.clear();
    up_.assign(1, 0);
    ui_.clear();
    ux_.clear();
    udiag_.assign(n_, 0.0);
    prow_.assign(n_, 0);
    pinv_.assign(n_, kUnpivoted);

    // Dense work vector over original row ids plus visited marks; `touched`
    // lists the rows to clear after each column.
    std::vector<double> x(n_, 0.0);
    std::vector<char> mark(n_, 0);
    std::vector<std::size_t> touched, reach, stack;

    for (std::size_t j = 0; j < n_; ++j) {
      touched.clear();
      reach.clear();
      // Scatter A(:, j) and run the reachability DFS: every already-pivoted
      // start row k reaches the pivot steps whose L columns update x.
      for (std::size_t t = acol_ptr_[j]; t < acol_ptr_[j + 1]; ++t) {
        const std::size_t r = acol_row_[t];
        if (!mark[r]) {
          mark[r] = 1;
          touched.push_back(r);
        }
        x[r] += acol_val_[t];
        if (pinv_[r] != kUnpivoted) dfs_reach(pinv_[r], reach, stack, mark, touched);
      }
      // L is lower triangular in pivot space, so ascending pivot index is a
      // topological order of the elimination steps.
      std::sort(reach.begin(), reach.end());
      for (const std::size_t k : reach) {
        const double xk = x[prow_[k]];
        ui_.push_back(k);
        ux_.push_back(xk);
        if (xk != 0.0) {
          for (std::size_t t = lp_[k]; t < lp_[k + 1]; ++t) {
            const std::size_t r = li_[t];
            if (!mark[r]) {
              mark[r] = 1;
              touched.push_back(r);
            }
            x[r] -= lx_[t] * xk;
          }
        } else {
          // Keep the structural fill so the recorded pattern is reusable.
          for (std::size_t t = lp_[k]; t < lp_[k + 1]; ++t) {
            const std::size_t r = li_[t];
            if (!mark[r]) {
              mark[r] = 1;
              touched.push_back(r);
              x[r] = 0.0;
            }
          }
        }
      }
      up_.push_back(ui_.size());

      // Partial pivot among the not-yet-pivoted touched rows.
      std::size_t piv = kUnpivoted;
      double best = 0.0;
      for (const std::size_t r : touched) {
        if (pinv_[r] != kUnpivoted) continue;
        const double v = std::abs(x[r]);
        if (piv == kUnpivoted || v > best) {
          best = v;
          piv = r;
        }
      }
      if (piv == kUnpivoted) {
        throw NumericalError(
            "SparseLu: structurally singular matrix (empty pivot column)");
      }
      if (best < kSingularTol) {
        throw NumericalError(
            "SparseLu: matrix is singular to working precision");
      }
      prow_[j] = piv;
      pinv_[piv] = j;
      udiag_[j] = x[piv];
      for (const std::size_t r : touched) {
        if (pinv_[r] == kUnpivoted) {
          li_.push_back(r);
          lx_.push_back(x[r] / udiag_[j]);
        }
        x[r] = 0.0;
        mark[r] = 0;
      }
      lp_.push_back(li_.size());
    }
    analyzed_ = true;
  }

  /// DFS over the L graph from pivot step `start`, collecting every pivot
  /// step whose column updates the current one. mark/touched guard both the
  /// pivot rows (via prow_) and the unpivoted fill rows.
  void dfs_reach(std::size_t start, std::vector<std::size_t>& reach,
                 std::vector<std::size_t>& stack, std::vector<char>& mark,
                 std::vector<std::size_t>& touched) {
    const std::size_t r0 = prow_[start];
    if (mark[r0] == 2) return;  // already explored as a pivot step
    stack.assign(1, start);
    while (!stack.empty()) {
      const std::size_t k = stack.back();
      stack.pop_back();
      const std::size_t rk = prow_[k];
      if (mark[rk] == 2) continue;
      if (mark[rk] == 0) touched.push_back(rk);
      mark[rk] = 2;
      reach.push_back(k);
      for (std::size_t t = lp_[k]; t < lp_[k + 1]; ++t) {
        const std::size_t r = li_[t];
        const std::size_t p = pinv_[r];
        if (p != kUnpivoted && mark[prow_[p]] != 2) stack.push_back(p);
      }
    }
  }

  /// Numeric-only replay of the stored elimination. Returns false (leaving
  /// the factors invalid for the caller to rebuild) when a reused pivot has
  /// degraded below the threshold-pivoting bound.
  bool refactorize(const SparseMatrix& a) {
    gather_column_values(a);
    std::vector<double> x(n_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) {
      for (std::size_t t = acol_ptr_[j]; t < acol_ptr_[j + 1]; ++t) {
        x[acol_row_[t]] += acol_val_[t];
      }
      for (std::size_t t = up_[j]; t < up_[j + 1]; ++t) {
        const std::size_t k = ui_[t];
        const double xk = x[prow_[k]];
        ux_[t] = xk;
        if (xk == 0.0) continue;
        for (std::size_t s = lp_[k]; s < lp_[k + 1]; ++s) {
          x[li_[s]] -= lx_[s] * xk;
        }
      }
      const double piv = x[prow_[j]];
      double col_max = std::abs(piv);
      for (std::size_t t = lp_[j]; t < lp_[j + 1]; ++t) {
        col_max = std::max(col_max, std::abs(x[li_[t]]));
      }
      if (std::abs(piv) < kSingularTol ||
          std::abs(piv) < kRefactorPivotTol * col_max) {
        // Clear the work vector before handing back to full_factorize.
        clear_column_work(x, j);
        return false;
      }
      udiag_[j] = piv;
      x[prow_[j]] = 0.0;
      for (std::size_t t = lp_[j]; t < lp_[j + 1]; ++t) {
        lx_[t] = x[li_[t]] / piv;
        x[li_[t]] = 0.0;
      }
      for (std::size_t t = up_[j]; t < up_[j + 1]; ++t) {
        x[prow_[ui_[t]]] = 0.0;
      }
    }
    return true;
  }

  void clear_column_work(std::vector<double>& x, std::size_t j) const {
    for (std::size_t t = acol_ptr_[j]; t < acol_ptr_[j + 1]; ++t) {
      x[acol_row_[t]] = 0.0;
    }
    x[prow_[j]] = 0.0;
    for (std::size_t t = lp_[j]; t < lp_[j + 1]; ++t) x[li_[t]] = 0.0;
    for (std::size_t t = up_[j]; t < up_[j + 1]; ++t) x[prow_[ui_[t]]] = 0.0;
  }

  static constexpr std::size_t kUnpivoted = static_cast<std::size_t>(-1);
  static constexpr double kSingularTol = 1e-300;
  /// A reused pivot must stay within this factor of its column's magnitude;
  /// below it the refactorization falls back to fresh partial pivoting.
  static constexpr double kRefactorPivotTol = 1e-6;

  std::size_t n_ = 0;
  bool analyzed_ = false;
  bool reused_symbolic_ = false;

  // Stored input pattern (for reuse detection) and its column view.
  std::vector<std::size_t> a_row_ptr_, a_col_;
  std::vector<std::size_t> acol_ptr_, acol_row_, csr_to_csc_;
  std::vector<double> acol_val_;

  // Optional fill-reducing column pre-permutation (q_: factored -> original
  // column; qinv_: its inverse). Empty = natural order.
  std::vector<std::size_t> q_, qinv_;

  // L (unit lower; row ids are original rows) and U (strict upper in pivot
  // space + diagonal), both column-compressed; prow_/pinv_ is the row
  // permutation.
  std::vector<std::size_t> lp_, li_;
  std::vector<double> lx_;
  std::vector<std::size_t> up_, ui_;
  std::vector<double> ux_;
  std::vector<double> udiag_;
  std::vector<std::size_t> prow_, pinv_;
};

/// One-shot sparse solve convenience (factor + solve).
inline std::vector<double> solve_sparse(const SparseMatrix& a,
                                        const std::vector<double>& b) {
  SparseLu lu;
  lu.factorize(a);
  return lu.solve(b);
}

}  // namespace cnti::numerics
