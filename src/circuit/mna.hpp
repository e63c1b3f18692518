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

#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "numerics/matrix.hpp"

namespace cnti::circuit {

/// Linear-solver backend selection for the MNA engine.
enum class SolverKind {
  kDense,   ///< Dense partial-pivot LU, O(n^3) per Newton iteration.
  kSparse,  ///< Pattern-frozen CSR stamping + AMD-ordered, reusable SparseLu.
  kAuto,    ///< kSparse at or above 192 MNA unknowns, where it wins.
};

struct MnaOptions {
  SolverKind solver = SolverKind::kAuto;
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
