// ROM-accelerated coupled-bus crosstalk: the fast path behind
// analyze_bus_crosstalk-style design-space sweeps. The bare N-line bus
// (ladders + coupling) is an affine stamp (BusStateSpace): the G/C of any
// drive, corner or sample is the sum of six components weighted by the
// technology scales and the drive. Each drive terminates the bus — a
// driver conductance at every head, a receiver load at every far end —
// and reduces it as a one-input system (current into the aggressor head,
// far ends observed), so a handful of Krylov vectors capture the response
// that a bare 2N-port reduction needs blocks of 2N columns per moment
// for. The reduction runs in two stages: each line mode's chain is reduced
// on its own (all modes in lockstep), then the small block-diagonal model
// of all modes is reduced once more to a dense one. The Thevenin aggressor
// driver enters as its Norton equivalent and the whole transient runs on
// the small system, on the identical stimulus and time grid as the
// sparse-MNA transient.
//
// Every function here is pure: share one BusStateSpace across threads and
// evaluate drives in parallel through core::run_sweep / ThreadPool.
#pragma once

#include <array>
#include <vector>

#include "circuit/crosstalk.hpp"
#include "numerics/sparse.hpp"
#include "rom/prima.hpp"

namespace cnti::rom {

/// One driver/load/stimulus scenario evaluated against a reduced bus.
struct BusScenario {
  double driver_ohm = 5e3;           ///< Every line's driver resistance.
  double receiver_load_f = 0.2e-15;  ///< Shunt load at every far end.
  double vdd_v = 1.0;
  double edge_time_s = 20e-12;
};

/// One sampled technology: multiplicative scales on the anchor topology's
/// per-unit-length electricals. {1, 1, 1} is the anchor itself.
struct BusTechPoint {
  double resistance_scale = 1.0;   ///< line.resistance_per_m factor.
  double capacitance_scale = 1.0;  ///< line.capacitance_per_m factor.
  double coupling_scale = 1.0;     ///< coupling_cap_per_m factor.
};

/// Coefficients of the six bus components:
/// G = t[0] G_fixed + t[1] G_line + t[2] E_head and
/// C = t[3] C_ground + t[4] C_couple + t[5] E_far.
using BusTheta = std::array<double, 6>;

/// (1, 1 / s_R, driver_siemens, s_C, s_Cc, load_f): a technology point
/// under a drive. A bare bus has zero drive coefficients.
BusTheta bus_theta(const BusTechPoint& point, double driver_siemens,
                   double load_f);

/// The bare bus as an affine stamp in its line modes: G_fixed (the 1e-12 S
/// g_min floor, contact resistors or the 1 Ohm far stub of a contact-free
/// line), G_line (segment resistors at unit scale), E_head (unit head
/// diagonals), C_ground, C_couple (segment and coupling capacitors) and
/// E_far (unit far-end diagonals). The orthonormal DCT-II across the lines,
/// Q_lk = sqrt((k == 0 ? 1 : 2) / N) cos(pi k (2l + 1) / 2N), diagonalizes
/// the coupling, so with P = Q (x) I the stamp is P^T G P (N decoupled
/// tridiagonal chains) and P^T C P (diagonal: mode k's ladder gains
/// lambda_k = 4 sin^2(pi k / 2N) times the coupling). State k * chain() + p
/// is chain position p (head, contact if any, ladder, far end) of mode k.
/// P is orthogonal, so PRIMA builds the same reduced model as from the
/// nodal system in exact arithmetic, on a half-bandwidth-1 factor.
/// g(theta) and c(theta) write sum_k theta[k] A_k straight into sorted
/// CSR; only the topology is stored, and bare_bus_ports / terminate_bus
/// build the port maps (line l's head or far end is column l of Q on that
/// position of every mode). One per-position stamp formula serves both
/// g()/c() and the per-drive reduction, which reads it chain by chain and
/// builds no CSR of the whole bus.
struct BusStateSpace {
  circuit::BusTopology topology;

  /// States per mode: head, contact if any, segments, far end.
  std::size_t chain() const;
  int size() const {
    return topology.lines * static_cast<int>(chain());
  }
  numerics::SparseMatrix g(const BusTheta& theta) const;
  numerics::SparseMatrix c(const BusTheta& theta) const;
};

/// Checks `topology`: the stamp is P^T G P and P^T C P of what
/// extract_state_space gives for build_bus_netlist(topology), to rounding,
/// with no netlist in between.
BusStateSpace stamp_bus(const circuit::BusTopology& topology);

/// The bare 2N-port system at unit scales: ports head0..head{N-1} then
/// far0..far{N-1}, each both a current input and a voltage output — the
/// port shape of the bare ParametrizedBusRom, so any drive can be folded
/// in afterwards (terminate_bare_bus).
StateSpace bare_bus_ports(const BusStateSpace& bare);

/// The bus under one drive as a one-input system: G and C at
/// theta = (1, 1, 1 / driver_ohm, 1, 1, receiver load), B the
/// aggressor-head injection (-1 = centre line) and L the far-end voltages.
/// The port shape of the per-drive reduction and of the driven
/// ParametrizedBusRom.
StateSpace terminate_bus(const BusStateSpace& bare,
                         const circuit::BusDrive& drive);

/// Krylov vectors of a per-drive reduction: the smallest budget that
/// holds the 16 x 64 and 16 x 128 buses to the accuracy of the former
/// bare q = 96 reduction over drivers 200 Ohm..100 kOhm and loads
/// 0..5 fF (table in docs/MODEL_ORDER_REDUCTION.md).
inline constexpr int kDrivenBusOrder = 12;

/// Krylov levels per line mode in the first stage of a per-drive
/// reduction: the smallest that keeps every bus of the accuracy table in
/// docs/MODEL_ORDER_REDUCTION.md at its single-stage error (4 lets the
/// 4 x 256 bus at 1 mm drift to 2.8e-4 against MNA, 3 the 16 x 64 bus to
/// 8.9e-4).
inline constexpr int kModeOrder = 5;

/// The bus under one drive reduced to kDrivenBusOrder states, expanded at
/// s0 = 20 / bus_settle_time_s(bare.topology, drive): the drive's own
/// analysis-window corner. Two PRIMA stages at that s0:
///  1. every line mode's chain (a unit current into its head, its far end
///     out; independent of the aggressor) gets kModeOrder Krylov vectors
///     of its own, all modes in lockstep on one tridiagonal factor, with
///     per-mode deflation. The bus projected onto these block-diagonal
///     bases is an N * kModeOrder-state system (fewer when a short chain
///     deflates) with exactly symmetric blocks;
///  2. prima_reduce's Krylov and projection at kDrivenBusOrder vectors on
///     that system, whose pencil is a band of half-bandwidth
///     kModeOrder - 1.
/// The result has terminate_bus's port shape (the aggressor-head input,
/// the far-end outputs) and full_order() = bare.size(). It counts as one
/// reduction: one cnti.rom.reductions count and one cnti.rom.reduce_ns
/// sample ("prima.reduce" span) over both stages, stage 1 a "prima.modes"
/// span. Each stage's factor and solves count in cnti.solver.*: two
/// factorizations and kModeOrder + kDrivenBusOrder solves.
ReducedModel reduce_driven_bus(const BusStateSpace& bare,
                               const circuit::BusDrive& drive);

/// The scenario engine's reduced-order noise KPI: reduce_driven_bus, then
/// evaluate_driven_bus over the bus_settle_time_s window — the same grid
/// as analyze_bus_crosstalk of the matching full config.
circuit::BusCrosstalkResult evaluate_bus_drive(const BusStateSpace& bare,
                                               const circuit::BusDrive& drive,
                                               int time_steps);

/// Folds one scenario's terminations into a *bare* reduced bus model
/// (ports as in bare_bus_ports): every head gets its driver conductance,
/// every far end its receiver load, and the model is sliced to the
/// aggressor-head input and the far-end outputs — the driven shape
/// evaluate_driven_bus simulates. Used by the bare ParametrizedBusRom.
ReducedModel terminate_bare_bus(const ReducedModel& bare, int lines,
                                int aggressor, const BusScenario& scenario);

/// Runs the crosstalk transient on a *driven* reduced bus: terminations
/// already in Gr/Cr, one input (current into the aggressor head) and one
/// output per far end. The aggressor's Thevenin driver enters as its
/// Norton equivalent, [0, t_stop_s] is simulated on `time_steps`
/// trapezoidal steps, and the worst victim noise and the aggressor 50%
/// delay (quiet NaN if never crossed) are measured. The one KPI path of
/// every bus ROM, field-for-field comparable with analyze_bus_crosstalk.
/// The scenario's driver resistance is taken as already checked > 0 (by
/// terminate_bus or terminate_bare_bus).
circuit::BusCrosstalkResult evaluate_driven_bus(const ReducedModel& driven,
                                                int aggressor,
                                                const BusScenario& scenario,
                                                double t_stop_s,
                                                int time_steps);

}  // namespace cnti::rom
