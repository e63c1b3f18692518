// Modified nodal analysis engine: DC operating point and fixed-step
// transient (backward Euler or trapezoidal). Two linear backends share one
// stamping path: a dense LU (the historical engine, kept as the
// differential-test oracle) and a sparse Gilbert–Peierls LU whose fill
// pattern and pivot order are computed once per circuit topology. A linear
// circuit (no MOSFETs) factors its matrix once per analysis and then runs
// one solve per timestep; a circuit with MOSFETs runs Newton with g_min
// stepping at DC and Newton per timestep, refactorizing cheaply on the
// frozen pattern. kAuto routes large systems (wide coupled buses, long
// ladders) to the sparse path; see docs/CIRCUIT_SOLVERS.md.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "numerics/matrix.hpp"

namespace cnti::circuit {

/// Linear-solver backend selection for the MNA engine.
enum class SolverKind {
  kDense,   ///< Dense partial-pivot LU, O(n^3) per Newton iteration.
  kSparse,  ///< Pattern-frozen CSR stamping + reusable SparseLu.
  kAuto,    ///< kSparse above MnaOptions::sparse_threshold unknowns.
};

/// Fill-reducing column pre-ordering for the sparse backend's LU.
enum class OrderingKind {
  kNatural,  ///< Factor in assembly order (segment-major buses are
             ///< near-banded already).
  kAmd,      ///< Approximate-minimum-degree pre-permutation of the
             ///< symmetrized MNA pattern, computed once per topology.
};

struct MnaOptions {
  SolverKind solver = SolverKind::kAuto;
  /// kAuto picks the sparse backend at or above this many MNA unknowns
  /// (node voltages + source/inductor branch currents). Below it the dense
  /// engine wins on constant factors.
  int sparse_threshold = 192;
  /// Column pre-permutation applied ahead of the sparse LU's symbolic
  /// analysis. Computed once per frozen pattern, so the Newton/timestep
  /// refactorization reuse contract is unchanged. Ignored by the dense
  /// backend.
  OrderingKind ordering = OrderingKind::kAmd;
};

/// DC operating point.
struct DcResult {
  std::vector<double> node_voltages;    ///< [0] = ground = 0.
  std::vector<double> vsource_currents;
  std::vector<double> inductor_currents;
  int newton_iterations = 0;  ///< 1 for a linear circuit (one solve).
};

DcResult solve_dc(const Circuit& ckt, double time_s = 0.0,
                  const MnaOptions& mna = {});

/// Reusable DC engine for repeated operating-point solves of one circuit
/// (dc_sweep, corner loops): the linear backend — and with it the sparse
/// path's frozen stamp pattern and symbolic analysis — persists across
/// solve() calls. The solver holds a reference: `ckt` must outlive it
/// (binding a temporary is rejected at compile time). Source waveforms may
/// change between calls; nothing else may. A linear circuit's matrix does
/// not depend on the sources, so its first solve's factors serve every
/// later call.
class DcSolver {
 public:
  explicit DcSolver(const Circuit& ckt, const MnaOptions& mna = {});
  explicit DcSolver(Circuit&& ckt, const MnaOptions& mna = {}) = delete;
  ~DcSolver();
  DcSolver(DcSolver&&) noexcept;
  DcSolver& operator=(DcSolver&&) noexcept;

  DcResult solve(double time_s = 0.0);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

enum class Integrator { kBackwardEuler, kTrapezoidal };

struct TransientOptions {
  double t_stop_s = 1e-9;
  double dt_s = 1e-12;
  Integrator integrator = Integrator::kTrapezoidal;
  int max_newton_iterations = 100;
  double newton_tolerance = 1e-9;
  MnaOptions mna{};  ///< Linear backend routing (applies to the initial DC too).
};

/// Transient waveforms for every node (indexed by NodeId; ground included
/// as all-zeros).
class TransientResult {
 public:
  TransientResult(std::vector<double> time,
                  std::vector<std::vector<double>> voltages)
      : time_(std::move(time)), voltages_(std::move(voltages)) {}

  const std::vector<double>& time() const { return time_; }

  const std::vector<double>& voltage(NodeId node) const {
    CNTI_EXPECTS(node >= 0 &&
                     node < static_cast<NodeId>(voltages_.size()),
                 "node id out of range");
    return voltages_[static_cast<std::size_t>(node)];
  }

  std::size_t steps() const { return time_.size(); }

 private:
  std::vector<double> time_;
  std::vector<std::vector<double>> voltages_;  // [node][step]
};

TransientResult simulate_transient(const Circuit& ckt,
                                   const TransientOptions& options);

}  // namespace cnti::circuit
