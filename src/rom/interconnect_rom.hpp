// ROM-accelerated coupled-bus crosstalk: the fast path behind
// analyze_bus_crosstalk-style design-space sweeps. The bare N-line bus
// (ladders + coupling, no drivers/loads) is extracted once with a
// current/voltage port at every line head and far end and PRIMA-reduced to
// a q x q model; each driver-strength / receiver-load scenario then folds
// its terminations into the reduced matrices (rank-1 updates), replaces
// the aggressor's Thevenin driver by its Norton equivalent at the head
// port, and runs the whole transient on the small system — hundreds of
// times cheaper than a sparse-MNA transient with 2000+ unknowns, on the
// identical stimulus and time grid.
//
// evaluate() is const and thread-safe: reduce once per topology, sweep
// scenarios in parallel through core::run_sweep / numerics::ThreadPool.
#pragma once

#include "circuit/crosstalk.hpp"
#include "numerics/solvers.hpp"
#include "numerics/sparse.hpp"
#include "rom/prima.hpp"
#include "rom/rom_preconditioner.hpp"

namespace cnti::rom {

/// One driver/load/stimulus scenario evaluated against a reduced bus.
struct BusScenario {
  double driver_ohm = 5e3;           ///< Every line's driver resistance.
  double receiver_load_f = 0.2e-15;  ///< Shunt load at every far end.
  double vdd_v = 1.0;
  double edge_time_s = 20e-12;
};

/// Bare-bus descriptor system with head/far ports plus the per-line state
/// indices of the port nodes (node id - 1: the bare bus has no vsource or
/// inductor branches, so states are exactly the non-ground node voltages).
/// The extraction BusRom and ParametrizedBusRom share: ports are
/// head0..head{N-1} then far0..far{N-1}, each both an input and an output.
struct BusStateSpace {
  StateSpace ss;
  std::vector<std::size_t> head_states, far_states;
};

/// Builds the bare bus netlist of `topology` and extracts its ported
/// descriptor system (see BusStateSpace for the port convention).
BusStateSpace extract_bus_state_space(const circuit::BusTopology& topology);

/// Folds one scenario's terminations into a *bare* reduced bus model
/// (ports as in BusStateSpace): every head gets its driver conductance,
/// every far end its receiver load, and the model is sliced to the
/// aggressor-head input and the far-end outputs — the driven shape
/// evaluate_driven_bus simulates. Used by the bare ROMs only.
ReducedModel terminate_bare_bus(const ReducedModel& bare, int lines,
                                int aggressor, const BusScenario& scenario);

/// Runs the crosstalk transient on a *driven* reduced bus: terminations
/// already in Gr/Cr, one input (current into the aggressor head) and one
/// output per far end. The aggressor's Thevenin driver enters as its
/// Norton equivalent, [0, t_stop_s] is simulated on `time_steps`
/// trapezoidal steps, and the worst victim noise and the aggressor 50%
/// delay (quiet NaN if never crossed) are measured. The one KPI path of
/// BusRom and both ParametrizedBusRom kinds, field-for-field comparable
/// with analyze_bus_crosstalk. The scenario's driver resistance is taken
/// as already checked > 0 (by terminate_bare_bus, or by the driven ROM's
/// driver resistors).
circuit::BusCrosstalkResult evaluate_driven_bus(const ReducedModel& driven,
                                                int aggressor,
                                                const BusScenario& scenario,
                                                double t_stop_s,
                                                int time_steps);

/// Full-order terminated bus system A x = b at one (real) frequency-like
/// shift: A = G + Gdrv + s (C + Cload) over the bare-bus state vector,
/// with the aggressor's Norton drive current on the right-hand side. The
/// companion system of one backward-Euler step is exactly this form with
/// s = 1/dt, so it doubles as the iterative-solver benchmark system.
struct BusSystem {
  numerics::SparseMatrix a;
  std::vector<double> rhs;
};

class BusRom {
 public:
  /// Reduces the bare coupled bus of `config` (its driver/load/stimulus
  /// fields only define the nominal scenario and the simulated window).
  /// `options.order <= 0` picks a budget from the bus size; an
  /// `expansion_rad_per_s` of 0 is replaced by the bus's settle-time
  /// corner, because the bare network's G alone is g_min-singular.
  explicit BusRom(const circuit::BusConfig& config,
                  PrimaOptions options = {.order = 0});

  /// Topology-keyed construction — the scenario engine's cache seam: the
  /// reduction (and its expansion point) depends only on `topology` plus
  /// default-BusDrive nominals, so a memo cache keyed on (topology,
  /// aggressor) content shares one BusRom across every
  /// driver/load/stimulus scenario of a batch. `aggressor` only selects
  /// the driven port for evaluate() (-1 = centre); it does not affect the
  /// reduction. Equivalent to BusRom(circuit::make_bus_config(topology,
  /// circuit::BusDrive{.aggressor = aggressor})).
  explicit BusRom(const circuit::BusTopology& topology, int aggressor = -1,
                  PrimaOptions options = {.order = 0});

  int full_order() const { return rom_.full_order(); }
  int order() const { return rom_.order(); }
  int lines() const { return config_.lines; }
  const ReducedModel& model() const { return rom_; }

  /// The scenario implied by the construction config.
  BusScenario nominal_scenario() const;

  /// Runs the scenario transient on the reduced model; field-for-field
  /// comparable with analyze_bus_crosstalk of the matching full config.
  circuit::BusCrosstalkResult evaluate(const BusScenario& scenario,
                                       int time_steps = 1500) const;

  /// The transient window evaluate() simulates for `scenario`: exactly
  /// circuit::bus_settle_time_s of the construction topology under the
  /// scenario's drive — including its receiver load, so the ROM and the
  /// full-MNA path can never disagree on the grid.
  double window_s(const BusScenario& scenario) const;

  /// Assembles the full-order terminated system at shift `s` [rad/s]
  /// (s >= 0): driver conductances fold onto the head diagonals, receiver
  /// loads onto the far-end diagonals, and the aggressor head gets its
  /// Norton current vdd / R_driver. Solving it with SparseLu gives the
  /// steady full-network response the ROM approximates; solving it with a
  /// Krylov method is what preconditioner() accelerates.
  BusSystem full_system(const BusScenario& scenario, double s) const;

  /// Default shift for full_system: the reduction's expansion corner
  /// 20 / settle_time, where the ROM basis is most informative.
  double nominal_shift_rad_per_s() const;

  /// Two-level ROM+Jacobi preconditioner for Krylov solves of `a` (any
  /// matrix over the same state vector, typically full_system().a at some
  /// shift). Pass to numerics::bicgstab / numerics::gmres via fn().
  RomPreconditioner preconditioner(const numerics::SparseMatrix& a) const {
    return RomPreconditioner(a, rom_.basis());
  }

 private:
  circuit::BusConfig config_;
  int aggressor_ = 0;
  StateSpace ss_;  ///< Bare-bus descriptor (filled by reduce_bus).
  std::vector<std::size_t> head_states_, far_states_;  ///< Per line.
  ReducedModel rom_;  ///< Declared last: its init populates the above.
};

}  // namespace cnti::rom
