// Corner-anchored parametrized bus ROM: the reduction that survives
// technology variability. A reduction of one topology is invalidated the
// moment a Monte Carlo sample perturbs the per-unit-length electricals —
// re-running PRIMA per sample would cost more than the full transient it
// replaces. Instead, reduce once at the 2^k corner anchors of the varied
// axes (line R/m, line C/m, neighbour-coupling C/m extremes), merge the
// corner Krylov bases into one orthonormal basis V, and re-project every
// corner's full-order G/C through that common V.
//
// Evaluation at an interior technology point blends the corner-projected
// matrices multilinearly in *transformed* coordinates — 1/scale for the
// resistance axis (stamps are conductances), scale for the capacitance
// axes. Because every entry of the bus G (resp. C) is affine in those
// coordinates, the blend equals V^T G(p) V exactly: a congruence
// projection of the true passive network at p, so the blended model is
// unconditionally stable and the only approximation is basis quality at
// interior points — which validate_against_mna bounds against the full
// sparse-MNA transient at sampled non-anchor points.
//
// A study whose drive is fixed reduces the *driven* bus instead (the
// BusDrive constructor): every corner is terminated by terminate_bus
// before PRIMA and each corner is a one-input system, so the merged order
// drops from a block of 2 * lines ports per moment to a few vectors per
// corner.
//
// evaluate() is const and thread-safe: reduce once per (topology, box,
// aggressor[, drive]), then sample technologies in parallel at ROM cost.
#pragma once

#include <optional>

#include "circuit/crosstalk.hpp"
#include "rom/interconnect_rom.hpp"
#include "rom/prima.hpp"

namespace cnti::rom {

/// One sampled technology: multiplicative scales on the anchor topology's
/// per-unit-length electricals. {1, 1, 1} is the anchor itself.
struct BusTechPoint {
  double resistance_scale = 1.0;   ///< line.resistance_per_m factor.
  double capacitance_scale = 1.0;  ///< line.capacitance_per_m factor.
  double coupling_scale = 1.0;     ///< coupling_cap_per_m factor.
};

/// Axis-aligned scale box the ROM is anchored on: corners are every
/// lo/hi combination of the axes with lo != hi (equal bounds collapse the
/// axis, so a fully degenerate box has a single corner and the model is a
/// plain PRIMA reduction of the nominal bus). All bounds must be positive
/// with lo <= hi.
struct BusTechBox {
  BusTechPoint lo;
  BusTechPoint hi;
};

/// Interior-probe accuracy report of validate_against_mna.
struct ParamRomValidation {
  int probes = 0;
  double max_noise_rel_err = 0.0;  ///< vs full MNA |peak_noise| scale.
  double max_delay_rel_err = 0.0;  ///< vs full MNA aggressor delay.
};

class ParametrizedBusRom {
 public:
  /// Reduces the bare coupled bus at every corner of `box` around
  /// `nominal` and merges the bases. `aggressor` only selects the driven
  /// port for evaluate() (-1 = centre). `corner_options` applies to each
  /// corner reduction: order <= 0 picks 6 * lines (three block moments of
  /// the 2 * lines ports), expansion 0 the nominal topology's settle-time
  /// corner under a default BusDrive (one expansion point for all corners,
  /// so the bases stay comparable).
  ParametrizedBusRom(const circuit::BusTopology& nominal,
                     const BusTechBox& box, int aggressor = -1,
                     PrimaOptions corner_options = {.order = 0});

  /// Driven reduction for a study whose drive is fixed: every corner's bus
  /// is terminated by terminate_bus (driver conductance at every head,
  /// receiver load at every far end) and reduced as a one-input system —
  /// current into the aggressor head, observing the far ends. The
  /// terminations do not depend on the technology point, so the blend
  /// stays exact. Each corner gets 8 Krylov vectors, expanded at
  /// 20 / bus_settle_time_s under `drive`. evaluate() then accepts only
  /// scenarios with the reduced driver and load.
  ParametrizedBusRom(const circuit::BusTopology& nominal,
                     const BusTechBox& box, const circuit::BusDrive& drive);

  int lines() const { return topology_.lines; }
  int full_order() const { return full_order_; }
  /// Merged-basis size: every blended model is order() x order().
  int order() const { return static_cast<int>(basis_size_); }
  int corners() const { return static_cast<int>(corner_points_.size()); }
  int aggressor() const { return aggressor_; }
  const circuit::BusTopology& nominal_topology() const { return topology_; }
  const BusTechBox& box() const { return box_; }

  /// The full-order topology at a technology point (what the equivalent
  /// sparse-MNA analysis would simulate).
  circuit::BusTopology topology_at(const BusTechPoint& point) const;

  /// Blended reduced model at `point` (must lie inside the box): exactly
  /// V^T G(p) V / V^T C(p) V, see the header comment. A bare ROM's model
  /// has head/far ports (bare_bus_ports); a driven ROM's has the drive's
  /// terminations folded in, the aggressor-head input and the far-end
  /// outputs — the shape terminate_bare_bus gives a bare one.
  ReducedModel model_at(const BusTechPoint& point) const;

  /// Transient window for a scenario at a technology point — the same
  /// bus_settle_time_s grid as analyze_bus_crosstalk of topology_at(point).
  double window_s(const BusTechPoint& point,
                  const BusScenario& scenario) const;

  /// Runs the scenario transient on the blended model; field-for-field
  /// comparable with analyze_bus_crosstalk(topology_at(point), drive).
  /// A driven ROM throws PreconditionError when the scenario's driver
  /// resistance or receiver load differs from the reduced drive.
  circuit::BusCrosstalkResult evaluate(const BusTechPoint& point,
                                       const BusScenario& scenario,
                                       int time_steps = 1500) const;

  /// Error-bound policy: evaluates `probes` deterministic interior
  /// (non-anchor) technology points both ways — blended ROM vs full
  /// sparse-MNA transient — and reports the worst relative noise/delay
  /// error. Construction-time users gate on this (e.g. <= 1%) before
  /// trusting the ROM across a Monte Carlo study.
  ParamRomValidation validate_against_mna(const BusScenario& scenario,
                                          int probes = 5,
                                          int time_steps = 1500) const;

 private:
  /// Reduces every corner and merges/projects (both constructors).
  void build(PrimaOptions corner_options);

  circuit::BusTopology topology_;  ///< Anchor (scale = 1) topology.
  BusTechBox box_;
  int aggressor_ = 0;
  std::optional<circuit::BusDrive> drive_;  ///< Set for a driven ROM.
  int full_order_ = 0;
  std::size_t basis_size_ = 0;
  std::vector<BusTechPoint> corner_points_;
  /// Per-corner projected matrices through the shared merged basis.
  std::vector<numerics::MatrixD> corner_gr_, corner_cr_;
  numerics::MatrixD br_, lr_;  ///< Port maps: identical at every corner.
  std::vector<std::string> input_names_, output_names_;
};

}  // namespace cnti::rom
