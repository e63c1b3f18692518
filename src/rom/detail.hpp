// Internal helpers shared by the rom/ translation units (not part of the
// subsystem's public surface).
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "numerics/matrix.hpp"
#include "obs/obs.hpp"
#include "rom/prima.hpp"
#include "rom/reduced_model.hpp"
#include "rom/state_space.hpp"

namespace cnti::rom::detail {

/// Node-to-ground conductance on every extracted or stamped node: the MNA
/// and AC engines' g_min, so reduced models line up with ac_analysis.
inline constexpr double kGminFloor = 1e-12;

/// Index of `name` in `names`; throws PreconditionError naming the calling
/// context and the kind of thing looked up.
inline int find_name_index(const std::vector<std::string>& names,
                           const std::string& name, const char* context,
                           const char* kind) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  throw PreconditionError(std::string(context) + ": unknown " + kind + ": " +
                          name);
}

/// y[0, n) += a * x[0, n): the contiguous update the reduced transient and
/// the termination fold are built from (the compiler vectorizes it).
inline void axpy(double a, const double* __restrict__ x,
                 double* __restrict__ y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

/// y[0, n) += sum_k a[k] * rows[k * stride + (0, n)] for k in [0, count):
/// axpy over several rows, four per pass so y is loaded and stored once
/// per four rows. Each y[i] still adds the terms in k order, so the result
/// is bitwise that of `count` successive axpy calls.
inline void axpy_rows(const double* a, const double* rows, std::size_t stride,
                      std::size_t count, double* __restrict__ y,
                      std::size_t n) {
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const double a0 = a[k], a1 = a[k + 1], a2 = a[k + 2], a3 = a[k + 3];
    const double* __restrict__ r0 = rows + k * stride;
    const double* __restrict__ r1 = r0 + stride;
    const double* __restrict__ r2 = r1 + stride;
    const double* __restrict__ r3 = r2 + stride;
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = y[i] + a0 * r0[i] + a1 * r1[i] + a2 * r2[i] + a3 * r3[i];
    }
  }
  for (; k < count; ++k) axpy(a[k], rows + k * stride, y, n);
}

/// One reduction as the obs registry sees it: counted once in
/// cnti.rom.reductions and timed, for the scope's lifetime, as a
/// "prima.reduce" span into cnti.rom.reduce_ns. prima_reduce opens one
/// per call; reduce_driven_bus opens one around both of its stages.
class ReductionScope {
 public:
  ReductionScope();

 private:
  obs::ObsSpan span_;
};

/// prima_reduce without its ReductionScope: the caller counts and times
/// the reduction.
ReducedModel prima_krylov(const StateSpace& ss, const PrimaOptions& options);

/// Orthonormalizes `w` against the orthonormal `basis` by classical
/// Gram-Schmidt with one reorthogonalization (CGS2: twice h = V^T w, then
/// w -= V h, with V^T w summed four basis vectors per sweep) and appends
/// w / |w|. Returns false and leaves the basis alone (deflation) when w is
/// zero or its norm drops to at most `deflation_tol` of its initial norm.
/// The one Gram-Schmidt kernel of PRIMA and of the corner-basis merge.
bool absorb(std::vector<std::vector<double>>& basis, std::vector<double>& w,
            double deflation_tol);

/// V^T A V for an orthonormal basis V (q columns of length n), blocked
/// but bitwise equal to the column-by-column matvec + dot.
numerics::MatrixD project_matrix(const numerics::SparseMatrix& a,
                                 const std::vector<std::vector<double>>& basis);

/// V^T M for a port map M, summed over its nonzeros only.
numerics::MatrixD project_ports(const numerics::MatrixD& m,
                                const std::vector<std::vector<double>>& basis);

/// Folds shunt port terminations into g and c (q x q) as the rank-1
/// congruence updates g += gs b l^T, c += cs b l^T, one row axpy per
/// nonzero b entry. Validates every load against the shapes of br / lr.
void fold_terminations(numerics::MatrixD& g, numerics::MatrixD& c,
                       const numerics::MatrixD& br,
                       const numerics::MatrixD& lr,
                       const std::vector<PortTermination>& loads);

}  // namespace cnti::rom::detail
