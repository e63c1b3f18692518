// Reduced-order descriptor model produced by PRIMA projection: a dense
// q x q system
//
//   Cr dx/dt + Gr x = Br u,   y = Lr^T x
//
// with q in the tens where the full circuit had thousands of unknowns. A
// design-space sweep evaluates the trapezoidal transient response to
// arbitrary source waveforms directly on the small system. Because Gr and
// Cr are congruence projections of a passive network (see
// state_space.hpp), Cr is symmetric positive semidefinite and Gr + Gr^T is
// too, so every finite pole lies in the closed left half-plane — reduced
// models cannot blow up, no matter how aggressively the order was
// truncated.
//
// Port terminations (driver conductances, receiver loads) fold into the
// reduced matrices as rank-1 updates (detail::fold_terminations), which is
// what turns one reduction into thousands of evaluable driver/load
// scenarios.
//
// simulate() is const and allocates locally, so one model can be shared
// across SweepEngine/ThreadPool workers without synchronization.
#pragma once

#include <string>
#include <vector>

#include "circuit/waveform.hpp"
#include "numerics/matrix.hpp"

namespace cnti::rom {

/// External shunt element re-attached at a reduced port: the port's input
/// column (current injection) and output column (voltage sense) must refer
/// to the same physical node.
struct PortTermination {
  int input = 0;   ///< Input index of the port's current injection.
  int output = 0;  ///< Output index of the port's voltage sense.
  double conductance_s = 0.0;  ///< Shunt conductance to ground [S].
  double capacitance_f = 0.0;  ///< Shunt capacitance to ground [F].
};

class ReducedModel {
 public:
  ReducedModel(numerics::MatrixD gr, numerics::MatrixD cr,
               numerics::MatrixD br, numerics::MatrixD lr,
               std::vector<std::string> input_names,
               std::vector<std::string> output_names, int full_order);

  int order() const { return static_cast<int>(gr_.rows()); }
  int full_order() const { return full_order_; }
  int inputs() const { return static_cast<int>(br_.cols()); }
  int outputs() const { return static_cast<int>(lr_.cols()); }
  const std::vector<std::string>& input_names() const { return input_names_; }
  const std::vector<std::string>& output_names() const {
    return output_names_;
  }
  int input_index(const std::string& name) const;
  int output_index(const std::string& name) const;

  const numerics::MatrixD& gr() const { return gr_; }
  const numerics::MatrixD& cr() const { return cr_; }
  const numerics::MatrixD& br() const { return br_; }
  const numerics::MatrixD& lr() const { return lr_; }

  /// Orthonormal projection basis V as q full-order columns, retained only
  /// when the reduction ran with PrimaOptions::keep_basis (empty
  /// otherwise).
  const std::vector<std::vector<double>>& basis() const { return basis_; }
  bool has_basis() const { return !basis_.empty(); }
  void set_basis(std::vector<std::vector<double>> basis) {
    basis_ = std::move(basis);
  }

  /// Transient outputs on the same fixed time grid as the full MNA engine
  /// (t = 0, dt, ..., >= t_stop).
  struct Transient {
    std::vector<double> time;
    std::vector<std::vector<double>> outputs;  ///< [output][step]
  };

  /// Trapezoidal integration from the DC operating point at t = 0; one
  /// waveform per input. Setup factors 2C/dt + G once and solves it for
  /// the propagator [M | Bh] over the driven inputs (those not DcWave{0});
  /// each step is then x <- M x + Bh (u_k + u_k+1) and y = Lr^T x, all
  /// contiguous axpys into buffers allocated once per call. The DC solve
  /// is skipped when every input is 0 at t = 0 (x0 is then exactly 0).
  Transient simulate(const std::vector<circuit::Waveform>& input_waves,
                     double t_stop_s, double dt_s) const;

 private:
  numerics::MatrixD gr_, cr_, br_, lr_;
  std::vector<std::string> input_names_, output_names_;
  std::vector<std::vector<double>> basis_;  ///< [q][n], see basis().
  int full_order_ = 0;
};

}  // namespace cnti::rom
