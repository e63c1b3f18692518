// Corner-anchored parametrized bus ROM: the reduction that survives
// technology variability. A reduction of one topology is invalidated the
// moment a Monte Carlo sample perturbs the per-unit-length electricals —
// re-running PRIMA per sample would cost more than the full transient it
// replaces. Instead, reduce once at the 2^k corner anchors of the varied
// axes (line R/m, line C/m, neighbour-coupling C/m extremes) and merge the
// corner Krylov bases into one orthonormal basis V. The corners only
// choose the basis.
//
// The bus is an affine stamp (stamp_bus): G(p) and C(p) are sums
// theta_k(p) A_k with theta = (1, 1/s_R, g_drv, s_C, s_Cc, load).
// Each component is projected once, and the model at a technology point is
// sum theta_k(p) V^T A_k V — which is V^T G(p) V and V^T C(p) V: a
// congruence projection of the true passive network at p, so the model is
// unconditionally stable and the only approximation is basis quality at
// interior points — which validate_against_mna bounds against the full
// sparse-MNA transient at sampled non-anchor points.
//
// A study whose drive is fixed reduces the *driven* bus instead (the
// BusDrive constructor): every corner carries the drive's coefficients
// before PRIMA and each corner is a one-input system, so the merged order
// drops from a block of 2 * lines ports per moment to a few vectors per
// corner. A bare ROM has zero drive coefficients.
//
// evaluate() is const and thread-safe: reduce once per (topology, box,
// aggressor[, drive]), then sample technologies in parallel at ROM cost.
#pragma once

#include <array>
#include <optional>

#include "circuit/crosstalk.hpp"
#include "rom/interconnect_rom.hpp"
#include "rom/prima.hpp"

namespace cnti::rom {

/// Axis-aligned scale box (of BusTechPoint scales) the ROM is anchored on:
/// corners are every
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
  /// carries the drive (driver conductance at every head, receiver load at
  /// every far end, terminate_bus's port shape) and is reduced as a
  /// one-input system — current into the aggressor head, observing the
  /// far ends. The drive coefficients do not depend on the technology
  /// point. Each corner gets up to 8 Krylov vectors, expanded at
  /// 20 / bus_settle_time_s under `drive`; the merged basis grows one
  /// vector per corner at a time until the KPIs change by at most 1e-5
  /// relative between successive levels (the chosen order and its
  /// estimate are the cnti.rom.order / cnti.rom.error_estimate gauges).
  /// evaluate() then accepts only scenarios with the reduced driver and
  /// load.
  ParametrizedBusRom(const circuit::BusTopology& nominal,
                     const BusTechBox& box, const circuit::BusDrive& drive);

  int lines() const { return topology_.lines; }
  int full_order() const { return full_order_; }
  /// Merged-basis size: every model is order() x order().
  int order() const { return static_cast<int>(projection_.br.rows()); }
  int corners() const { return static_cast<int>(corner_points_.size()); }
  int aggressor() const { return aggressor_; }
  const circuit::BusTopology& nominal_topology() const { return topology_; }
  const BusTechBox& box() const { return box_; }

  /// The full-order topology at a technology point (what the equivalent
  /// sparse-MNA analysis would simulate).
  circuit::BusTopology topology_at(const BusTechPoint& point) const;

  /// Reduced model at `point` (must lie inside the box): the projected
  /// components summed with the point's coefficients, V^T G(p) V /
  /// V^T C(p) V (see the header comment). A bare ROM's model
  /// has head/far ports (bare_bus_ports); a driven ROM's has the drive's
  /// terminations folded in, the aggressor-head input and the far-end
  /// outputs — the shape terminate_bare_bus gives a bare one.
  ReducedModel model_at(const BusTechPoint& point) const;

  /// Transient window for a scenario at a technology point — the same
  /// bus_settle_time_s grid as analyze_bus_crosstalk of topology_at(point).
  double window_s(const BusTechPoint& point,
                  const BusScenario& scenario) const;

  /// Runs the scenario transient on model_at(point); field-for-field
  /// comparable with analyze_bus_crosstalk(topology_at(point), drive).
  /// A driven ROM throws PreconditionError when the scenario's driver
  /// resistance or receiver load differs from the reduced drive.
  circuit::BusCrosstalkResult evaluate(const BusTechPoint& point,
                                       const BusScenario& scenario,
                                       int time_steps = 1500) const;

  /// Error-bound policy: evaluates `probes` deterministic interior
  /// (non-anchor) technology points both ways — ROM vs full
  /// sparse-MNA transient — and reports the worst relative noise/delay
  /// error. Construction-time users gate on this (e.g. <= 1%) before
  /// trusting the ROM across a Monte Carlo study.
  ParamRomValidation validate_against_mna(const BusScenario& scenario,
                                          int probes = 5,
                                          int time_steps = 1500) const;

 private:
  /// The merged-basis projection every model is summed from.
  struct Projection {
    /// V^T A_k V of each bus component (a bare ROM leaves the drive parts
    /// empty).
    std::array<numerics::MatrixD, 6> parts;
    numerics::MatrixD br, lr;  ///< Port maps: identical at every corner.
  };

  /// Reduces every corner and merges/projects (both constructors).
  void build(PrimaOptions corner_options);
  /// Merges a driven ROM's corner bases one Krylov level at a time and
  /// keeps the first level whose estimated error meets the bound.
  void select_driven_order(
      const BusStateSpace& bare, const StateSpace& ss,
      std::vector<std::vector<std::vector<double>>>& corner_bases,
      double deflation_tol);
  /// Projects the components and port maps through `basis`.
  Projection project(const BusStateSpace& bare, const StateSpace& ss,
                     const std::vector<std::vector<double>>& basis) const;
  /// The model at `p` summed from `proj` (no box check).
  ReducedModel model(const Projection& proj, const BusTechPoint& p) const;

  circuit::BusTopology topology_;  ///< Anchor (scale = 1) topology.
  BusTechBox box_;
  int aggressor_ = 0;
  std::optional<circuit::BusDrive> drive_;  ///< Set for a driven ROM.
  int full_order_ = 0;
  std::vector<BusTechPoint> corner_points_;
  Projection projection_;
  std::vector<std::string> input_names_, output_names_;
};

}  // namespace cnti::rom
