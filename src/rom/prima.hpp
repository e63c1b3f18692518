// PRIMA-style passive model-order reduction (Odabasioglu/Celik/Pileggi):
// block Arnoldi on (G + s0 C)^{-1} C with classical Gram-Schmidt and one
// reorthogonalization (CGS2) on one factorization of K = G + s0 C reused
// for every Krylov solve, followed by congruence projection
//
//   Gr = V^T G V,  Cr = V^T C V,  Br = V^T B,  Lr = V^T L.
//
// The projected model matches the first floor(q / m) block moments of the
// full transfer function about the expansion point s0 (q = reduced order,
// m = inputs), and — because congruence preserves the semidefiniteness of
// G and C — is unconditionally stable regardless of the order budget or
// expansion point. Reduce once per topology; evaluate thousands of
// driver/load/waveform scenarios against the q x q system.
#pragma once

#include <cstddef>

#include "rom/reduced_model.hpp"
#include "rom/state_space.hpp"

namespace cnti::rom {

struct PrimaOptions {
  /// Reduced order budget q (columns of the projection basis). The basis
  /// may come out smaller when the Krylov space deflates first.
  int order = 16;
  /// Expansion point s0 [rad/s] for the moment matching. 0 matches moments
  /// at DC (the classic choice for driver-terminated RC nets); networks
  /// whose G alone is near-singular (bare port networks held up only by
  /// g_min) need s0 > 0 so the Arnoldi solves act on G + s0 C.
  double expansion_rad_per_s = 0.0;
  /// A new Krylov direction whose norm drops below this fraction of its
  /// pre-orthogonalization norm is considered linearly dependent and
  /// deflated from the block.
  double deflation_tol = 1e-8;
  /// Retain the orthonormal projection basis V (n x q) on the returned
  /// model. Costs n*q doubles of storage; required for uses that map
  /// between full and reduced coordinates, e.g. merging corner bases in
  /// ParametrizedBusRom.
  bool keep_basis = false;
};

/// Widest half-bandwidth of K = G + s0 C that PRIMA factors as a banded
/// SPD matrix. An exactly symmetric K (an RC network: no vsource or
/// inductor branch rows) at most this wide goes to numerics::BandCholesky;
/// anything else goes to numerics::SparseLu. The bound is the widest
/// nodal bus pencil (64 lines) on which the band factor beat the sparse LU;
/// the modal bus stamp is half-bandwidth 1.
inline constexpr std::size_t kBandMaxHalfWidth = 64;

/// Runs block Arnoldi + congruence projection on an extracted descriptor
/// system. Throws NumericalError when G + s0 C is singular (or, on the
/// band path, not positive definite) and
/// PreconditionError on an empty input block or nonpositive order.
ReducedModel prima_reduce(const StateSpace& ss, const PrimaOptions& options = {});

}  // namespace cnti::rom
