#include "rom/prima.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "numerics/band_cholesky.hpp"
#include "numerics/sparse.hpp"
#include "numerics/sparse_lu.hpp"
#include "obs/obs.hpp"
#include "rom/detail.hpp"

namespace cnti::rom {

namespace {

using detail::dot;
using detail::norm2;
using numerics::BandCholesky;
using numerics::MatrixD;
using numerics::SparseLu;
using numerics::SparseMatrix;

/// K = G + s0 C over the union pattern, for the SparseLu path, as a merge
/// of the sorted G and C rows.
/// Each entry sums at most one term of each, so it is bitwise the value
/// a triplet build of the two streams would sum.
SparseMatrix shifted_pencil(const SparseMatrix& g, const SparseMatrix& c,
                            double s0) {
  if (s0 == 0.0) return g;
  const std::size_t n = g.rows();
  const auto& gp = g.row_ptr();
  const auto& gc = g.col_indices();
  const auto& gv = g.values();
  const auto& cp = c.row_ptr();
  const auto& cc = c.col_indices();
  const auto& cv = c.values();
  std::vector<std::size_t> row_ptr(n + 1, 0);
  std::vector<std::size_t> col;
  std::vector<double> val;
  col.reserve(g.nnz() + c.nnz());
  val.reserve(g.nnz() + c.nnz());
  for (std::size_t r = 0; r < n; ++r) {
    std::size_t i = gp[r], j = cp[r];
    while (i < gp[r + 1] || j < cp[r + 1]) {
      if (j == cp[r + 1] || (i < gp[r + 1] && gc[i] < cc[j])) {
        col.push_back(gc[i]);
        val.push_back(gv[i++]);
      } else if (i == gp[r + 1] || cc[j] < gc[i]) {
        col.push_back(cc[j]);
        val.push_back(s0 * cv[j++]);
      } else {
        col.push_back(gc[i]);
        val.push_back(gv[i++] + s0 * cv[j++]);
      }
    }
    row_ptr[r + 1] = col.size();
  }
  return SparseMatrix(n, n, std::move(row_ptr), std::move(col),
                      std::move(val));
}

}  // namespace

MatrixD detail::project_matrix(const SparseMatrix& a,
                               const std::vector<std::vector<double>>& basis) {
  const std::size_t n = a.rows();
  const std::size_t q = basis.size();
  // W = A V is built a block of rows at a time: row r of W sums
  // a_rk * V(k, :) over row r's nonzeros in the order the matvec A v
  // visits them, and the block's rows are then added into V^T W as row
  // axpys. Row order is kept across blocks, so per entry the sum is the
  // same as dot(basis[i], A basis[j]) while W never exceeds one block.
  constexpr std::size_t kBlock = 64;
  std::vector<double> w(kBlock * q);
  MatrixD ar(q, q);
  for (std::size_t r0 = 0; r0 < n; r0 += kBlock) {
    const std::size_t rows = std::min(kBlock, n - r0);
    std::fill(w.begin(), w.end(), 0.0);
    for (std::size_t r = r0; r < r0 + rows; ++r) {
      double* wr = &w[(r - r0) * q];
      for (std::size_t t = a.row_ptr()[r]; t < a.row_ptr()[r + 1]; ++t) {
        const double v = a.values()[t];
        const std::size_t k = a.col_indices()[t];
        for (std::size_t j = 0; j < q; ++j) wr[j] += v * basis[j][k];
      }
    }
    for (std::size_t i = 0; i < q; ++i) {
      detail::axpy_rows(&basis[i][r0], w.data(), q, rows, &ar(i, 0), q);
    }
  }
  return ar;
}

MatrixD detail::project_ports(const MatrixD& m,
                              const std::vector<std::vector<double>>& basis) {
  const std::size_t n = m.rows();
  const std::size_t q = basis.size();
  MatrixD mr(q, m.cols());
  std::vector<std::size_t> nz;
  for (std::size_t j = 0; j < m.cols(); ++j) {
    nz.clear();
    for (std::size_t r = 0; r < n; ++r) {
      if (m(r, j) != 0.0) nz.push_back(r);
    }
    for (std::size_t i = 0; i < q; ++i) {
      double s = 0.0;
      for (const std::size_t r : nz) s += basis[i][r] * m(r, j);
      mr(i, j) = s;
    }
  }
  return mr;
}

ReducedModel prima_reduce(const StateSpace& ss, const PrimaOptions& options) {
  CNTI_EXPECTS(options.order >= 1, "prima: order must be >= 1");
  CNTI_EXPECTS(options.expansion_rad_per_s >= 0,
               "prima: expansion point must be >= 0");
  CNTI_EXPECTS(ss.size > 0 && ss.inputs() > 0,
               "prima: state space has no unknowns or no inputs");
  const std::size_t n = static_cast<std::size_t>(ss.size);
  const int m = ss.inputs();
  const int q_target =
      std::min(options.order, ss.size);  // cannot exceed the full order

  static const obs::Counter reductions = obs::counter("cnti.rom.reductions");
  static const obs::Counter arnoldi_vectors =
      obs::counter("cnti.rom.arnoldi_vectors");
  static const obs::Counter deflations = obs::counter("cnti.rom.deflations");
  static const obs::Gauge basis_gauge = obs::gauge("cnti.rom.basis_size");
  static const obs::Histogram reduce_hist =
      obs::histogram("cnti.rom.reduce_ns");
  reductions.add();
  const obs::ObsSpan reduce_span("prima.reduce", "rom", reduce_hist);

  // K is factored once and reused for every Arnoldi solve: as a band when
  // it is exactly symmetric and narrow (RC networks), else by sparse LU
  // (branch rows make K non-symmetric).
  const double s0 = options.expansion_rad_per_s;
  BandCholesky band;
  SparseLu lu;
  const bool banded = band.factorize(ss.g, ss.c, s0, kBandMaxHalfWidth);
  if (!banded) lu.factorize(shifted_pencil(ss.g, ss.c, s0));
  const auto solve = [&](const std::vector<double>& rhs) {
    return banded ? band.solve(rhs) : lu.solve(rhs);
  };

  // Modified Gram-Schmidt with one reorthogonalization pass; returns false
  // (deflation) when the direction is linearly dependent on the basis.
  std::vector<std::vector<double>> basis;
  const auto orthonormalize_into_basis = [&](std::vector<double> w) {
    arnoldi_vectors.add();
    const double initial = norm2(w);
    if (initial == 0.0) {
      deflations.add();
      return false;
    }
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& v : basis) {
        const double h = dot(v, w);
        if (h == 0.0) continue;
        for (std::size_t i = 0; i < n; ++i) w[i] -= h * v[i];
      }
    }
    const double remaining = norm2(w);
    if (remaining <= options.deflation_tol * initial) {
      deflations.add();
      return false;
    }
    for (double& x : w) x /= remaining;
    basis.push_back(std::move(w));
    return true;
  };

  // Block 0: K^{-1} B. Later blocks: K^{-1} C v for each surviving column
  // of the previous block.
  std::vector<std::size_t> prev_block;
  for (int j = 0; j < m && static_cast<int>(basis.size()) < q_target; ++j) {
    std::vector<double> b_col(n);
    for (std::size_t i = 0; i < n; ++i) {
      b_col[i] = ss.b(i, static_cast<std::size_t>(j));
    }
    if (orthonormalize_into_basis(solve(b_col))) {
      prev_block.push_back(basis.size() - 1);
    }
  }
  CNTI_EXPECTS(!basis.empty(),
               "prima: input block is identically zero (no reachable states)");
  std::vector<double> cv(n);
  while (static_cast<int>(basis.size()) < q_target && !prev_block.empty()) {
    std::vector<std::size_t> next_block;
    for (const std::size_t idx : prev_block) {
      if (static_cast<int>(basis.size()) >= q_target) break;
      ss.c.multiply(basis[idx], cv);
      if (orthonormalize_into_basis(solve(cv))) {
        next_block.push_back(basis.size() - 1);
      }
    }
    prev_block = std::move(next_block);
  }

  // Congruence projection onto the span of the basis.
  basis_gauge.set(static_cast<double>(basis.size()));
  ReducedModel rm(detail::project_matrix(ss.g, basis),
                  detail::project_matrix(ss.c, basis),
                  detail::project_ports(ss.b, basis),
                  detail::project_ports(ss.l, basis), ss.input_names,
                  ss.output_names, ss.size);
  if (options.keep_basis) rm.set_basis(std::move(basis));
  return rm;
}

}  // namespace cnti::rom
