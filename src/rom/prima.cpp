#include "rom/prima.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
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

using numerics::BandCholesky;
using numerics::MatrixD;
using numerics::SparseLu;
using numerics::SparseMatrix;

/// K = G + s0 C over the union pattern, for the SparseLu path (pencils
/// with branch rows; every RC bus takes the band factor).
SparseMatrix shifted_pencil(const SparseMatrix& g, const SparseMatrix& c,
                            double s0) {
  if (s0 == 0.0) return g;
  numerics::SparseBuilder k(g.rows(), g.cols());
  for (const auto& [m, scale] : {std::pair{&g, 1.0}, std::pair{&c, s0}}) {
    for (std::size_t r = 0; r < m->rows(); ++r) {
      for (std::size_t t = m->row_ptr()[r]; t < m->row_ptr()[r + 1]; ++t) {
        k.add(r, m->col_indices()[t], scale * m->values()[t]);
      }
    }
  }
  return k.build();
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

bool detail::absorb(std::vector<std::vector<double>>& basis,
                    std::vector<double>& w, double deflation_tol) {
  const auto norm = [&] {
    return std::sqrt(std::transform_reduce(w.begin(), w.end(), w.begin(), 0.0));
  };
  const double initial = norm();
  if (initial == 0.0) return false;
  const std::size_t n = w.size();
  const std::size_t q = basis.size();
  double* __restrict__ x = w.data();
  std::vector<double> h(q + 3, 0.0);
  // Four basis vectors per sweep, so their dot chains run side by side.
  // Past the end of the basis a sweep repeats the last vector; those slots
  // of h are zeroed before w -= V h.
  const auto block = [&](std::size_t j) {
    const auto v = [&](std::size_t k) {
      return basis[std::min(j + k, q - 1)].data();
    };
    return std::array<const double*, 4>{v(0), v(1), v(2), v(3)};
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t j = 0; j < q; j += 4) {
      const auto [v0, v1, v2, v3] = block(j);
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        s0 += v0[i] * x[i];
        s1 += v1[i] * x[i];
        s2 += v2[i] * x[i];
        s3 += v3[i] * x[i];
      }
      h[j] = s0;
      h[j + 1] = s1;
      h[j + 2] = s2;
      h[j + 3] = s3;
    }
    std::fill(h.begin() + static_cast<std::ptrdiff_t>(q), h.end(), 0.0);
    for (std::size_t j = 0; j < q; j += 4) {
      const auto [v0, v1, v2, v3] = block(j);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] -= h[j] * v0[i] + h[j + 1] * v1[i] + h[j + 2] * v2[i] +
                h[j + 3] * v3[i];
      }
    }
  }
  const double remaining = norm();
  if (remaining <= deflation_tol * initial) return false;
  for (double& v : w) v /= remaining;
  basis.push_back(std::move(w));
  return true;
}

MatrixD detail::project_ports(const MatrixD& m,
                              const std::vector<std::vector<double>>& basis) {
  // One pass over the rows of m: each entry adds basis[i][r] * m(r, j)
  // over the nonzeros of column j in ascending r, as a column dot would.
  const std::size_t q = basis.size();
  MatrixD mr(q, m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      const double x = m(r, j);
      if (x == 0.0) continue;
      for (std::size_t i = 0; i < q; ++i) mr(i, j) += basis[i][r] * x;
    }
  }
  return mr;
}

detail::ReductionScope::ReductionScope()
    : span_("prima.reduce", "rom", [] {
        static const obs::Counter reductions =
            obs::counter("cnti.rom.reductions");
        static const obs::Histogram reduce_hist =
            obs::histogram("cnti.rom.reduce_ns");
        reductions.add();
        return reduce_hist;
      }()) {}

ReducedModel prima_reduce(const StateSpace& ss, const PrimaOptions& options) {
  const detail::ReductionScope scope;
  return detail::prima_krylov(ss, options);
}

ReducedModel detail::prima_krylov(const StateSpace& ss,
                                  const PrimaOptions& options) {
  CNTI_EXPECTS(options.order >= 1, "prima: order must be >= 1");
  CNTI_EXPECTS(options.expansion_rad_per_s >= 0,
               "prima: expansion point must be >= 0");
  CNTI_EXPECTS(ss.size > 0 && ss.inputs() > 0,
               "prima: state space has no unknowns or no inputs");
  const std::size_t n = static_cast<std::size_t>(ss.size);
  const int m = ss.inputs();
  const int q_target =
      std::min(options.order, ss.size);  // cannot exceed the full order

  static const obs::Counter arnoldi_vectors =
      obs::counter("cnti.rom.arnoldi_vectors");
  static const obs::Counter deflations = obs::counter("cnti.rom.deflations");
  static const obs::Gauge basis_gauge = obs::gauge("cnti.rom.basis_size");

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

  // CGS2 into the basis; a direction that deflates is counted and dropped.
  std::vector<std::vector<double>> basis;
  const auto orthonormalize_into_basis = [&](std::vector<double> w) {
    const obs::ObsSpan span("prima.orthonormalize", "rom");
    arnoldi_vectors.add();
    if (detail::absorb(basis, w, options.deflation_tol)) return true;
    deflations.add();
    return false;
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
  ReducedModel rm = [&] {
    const obs::ObsSpan project_span("prima.project", "rom");
    return ReducedModel(detail::project_matrix(ss.g, basis),
                        detail::project_matrix(ss.c, basis),
                        detail::project_ports(ss.b, basis),
                        detail::project_ports(ss.l, basis), ss.input_names,
                        ss.output_names, ss.size);
  }();
  if (options.keep_basis) rm.set_basis(std::move(basis));
  return rm;
}

}  // namespace cnti::rom
