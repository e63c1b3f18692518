// Modified nodal analysis engine: DC operating point and fixed-step
// trapezoidal transient that records the nodes it is asked for. Two
// linear backends share one stamping path: a dense LU (the historical
// engine, kept as the differential-test oracle) and a sparse
// Gilbert–Peierls LU whose fill pattern and pivot order are computed once
// per circuit topology. A linear circuit (no MOSFETs) factors its matrix
// once per analysis and then runs one solve per timestep; a circuit with
// MOSFETs runs Newton with g_min stepping at DC and Newton per timestep,
// refactorizing cheaply on the frozen pattern. kAuto routes large systems
// (wide coupled buses, long ladders) to the sparse path; see
// docs/CIRCUIT_SOLVERS.md.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "common/error.hpp"
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

struct TransientOptions {
  double t_stop_s = 1e-9;
  double dt_s = 1e-12;
  int max_newton_iterations = 100;
  double newton_tolerance = 1e-9;
  MnaOptions mna{};  ///< Linear backend routing (applies to the initial DC too).
};

/// Transient waveforms of the probed nodes, in probe order.
class TransientResult {
 public:
  TransientResult(std::vector<double> time, std::vector<NodeId> probes,
                  std::vector<std::vector<double>> voltages)
      : time_(std::move(time)),
        probes_(std::move(probes)),
        voltages_(std::move(voltages)) {
    CNTI_EXPECTS(probes_.size() == voltages_.size(),
                 "one waveform per probe");
  }

  const std::vector<double>& time() const { return time_; }

  /// The waveform of a probed node; a node that was not probed is a
  /// PreconditionError.
  const std::vector<double>& voltage(NodeId node) const {
    const auto it = std::find(probes_.begin(), probes_.end(), node);
    CNTI_EXPECTS(it != probes_.end(), "node was not probed");
    return voltages_[static_cast<std::size_t>(it - probes_.begin())];
  }

  /// Every probed waveform, [probe][step] in probe order.
  const std::vector<std::vector<double>>& waveforms() const {
    return voltages_;
  }

  std::size_t steps() const { return time_.size(); }

 private:
  std::vector<double> time_;
  std::vector<NodeId> probes_;
  std::vector<std::vector<double>> voltages_;  // [probe][step]
};

/// Runs the transient from the DC operating point at t = 0 and records
/// the voltages of `probes` (ground included as all-zeros) at every step.
/// A probe outside the circuit is rejected before anything is solved.
TransientResult simulate_transient(const Circuit& ckt,
                                   const TransientOptions& options,
                                   const std::vector<NodeId>& probes);

}  // namespace cnti::circuit
