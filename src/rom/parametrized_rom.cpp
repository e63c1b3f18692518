#include "rom/parametrized_rom.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "rom/detail.hpp"

namespace cnti::rom {

namespace {

using detail::dot;
using detail::norm2;
using numerics::MatrixD;

/// One varied axis in its interpolation coordinate: bus conductance
/// stamps are affine in 1/resistance_scale, capacitance stamps in the
/// scale itself, so weights computed in these coordinates make the
/// multilinear blend of the corner matrices *exact* (see header).
struct Axis {
  double lo = 1.0, hi = 1.0;
  bool conductance = false;
};

std::array<Axis, 3> axes_of(const BusTechBox& box) {
  return {Axis{box.lo.resistance_scale, box.hi.resistance_scale, true},
          Axis{box.lo.capacitance_scale, box.hi.capacitance_scale, false},
          Axis{box.lo.coupling_scale, box.hi.coupling_scale, false}};
}

std::array<double, 3> point_values(const BusTechPoint& p) {
  return {p.resistance_scale, p.capacitance_scale, p.coupling_scale};
}

/// Fraction toward the hi corner in the axis's interpolation coordinate.
double axis_fraction(const Axis& a, double value) {
  if (a.lo == a.hi) return 0.0;
  const double u = a.conductance ? 1.0 / value : value;
  const double u_lo = a.conductance ? 1.0 / a.lo : a.lo;
  const double u_hi = a.conductance ? 1.0 / a.hi : a.hi;
  return (u - u_lo) / (u_hi - u_lo);
}

/// Deterministic interior probe fraction for validate_against_mna: a
/// per-axis golden-ratio-ish stride folded into (0.15, 0.85), so probes
/// never land on an anchor and spread over the box without an RNG.
double interior_fraction(int probe, int axis) {
  static constexpr double kStride[3] = {0.6180339887, 0.4142135624,
                                        0.3183098862};
  const double x = static_cast<double>(probe + 1) * kStride[axis];
  return 0.15 + 0.7 * (x - std::floor(x));
}

}  // namespace

ParametrizedBusRom::ParametrizedBusRom(const circuit::BusTopology& nominal,
                                       const BusTechBox& box, int aggressor,
                                       PrimaOptions corner_options)
    : topology_(nominal),
      box_(box),
      aggressor_(aggressor < 0 ? nominal.lines / 2 : aggressor) {
  build(corner_options);
}

ParametrizedBusRom::ParametrizedBusRom(const circuit::BusTopology& nominal,
                                       const BusTechBox& box,
                                       const circuit::BusDrive& drive)
    : topology_(nominal),
      box_(box),
      aggressor_(drive.aggressor < 0 ? nominal.lines / 2 : drive.aggressor),
      drive_(drive) {
  build(PrimaOptions{.order = 0});
}

void ParametrizedBusRom::build(PrimaOptions corner_options) {
  CNTI_EXPECTS(aggressor_ >= 0 && aggressor_ < topology_.lines,
               "ParametrizedBusRom: aggressor index out of range");
  const obs::ObsSpan build_span("prom.build", "rom");
  const std::array<Axis, 3> axes = axes_of(box_);
  for (const Axis& a : axes) {
    CNTI_EXPECTS(a.lo > 0.0 && a.hi >= a.lo,
                 "ParametrizedBusRom: axis bounds must satisfy 0 < lo <= hi");
  }

  // Every corner reduction shares the nominal topology's expansion point
  // (its settle-time corner under a default drive; a driven ROM uses its
  // own drive's settle time), so the corner Krylov spaces approximate the
  // same frequency band and their union stays a meaningful shared basis.
  circuit::BusDrive corner_drive = drive_.value_or(circuit::BusDrive{});
  corner_drive.aggressor = aggressor_;
  const double nominal_s0 =
      20.0 / circuit::bus_settle_time_s(topology_, corner_drive);

  // Corner enumeration: resistance axis fastest, lexicographic, collapsed
  // axes contributing a single value — a degenerate box has one corner and
  // a bare model is a plain PRIMA reduction of the nominal topology.
  const auto axis_values = [](const Axis& a) {
    return a.lo == a.hi ? std::vector<double>{a.lo}
                        : std::vector<double>{a.lo, a.hi};
  };
  for (const double cc : axis_values(axes[2])) {
    for (const double c : axis_values(axes[1])) {
      for (const double r : axis_values(axes[0])) {
        corner_points_.push_back({r, c, cc});
      }
    }
  }

  std::vector<StateSpace> corner_ss;
  std::vector<std::vector<std::vector<double>>> corner_bases;
  corner_ss.reserve(corner_points_.size());
  corner_bases.reserve(corner_points_.size());
  for (const BusTechPoint& cp : corner_points_) {
    const BusStateSpace bare = extract_bus_state_space(topology_at(cp));
    StateSpace ss = drive_ ? terminate_bus(bare, corner_drive)
                           : bare_bus_ports(bare);
    PrimaOptions opt = corner_options;
    if (opt.order <= 0) {
      // A driven corner has one input, so its Krylov space grows one
      // vector per moment instead of one block of 2 * lines.
      opt.order = std::min(drive_ ? 8 : 6 * topology_.lines, ss.size / 2);
    }
    if (opt.expansion_rad_per_s <= 0.0) {
      opt.expansion_rad_per_s = nominal_s0;
    }
    opt.keep_basis = true;
    ReducedModel rm = prima_reduce(ss, opt);
    corner_bases.push_back(rm.basis());
    corner_ss.push_back(std::move(ss));
  }
  const StateSpace& ss0 = corner_ss.front();
  full_order_ = ss0.size;
  input_names_ = ss0.input_names;
  output_names_ = ss0.output_names;
  const std::size_t n = static_cast<std::size_t>(full_order_);

  // Merge the corner bases into one orthonormal basis. A single corner
  // keeps its PRIMA basis verbatim (bit-identical to prima_reduce of the
  // nominal system); otherwise the same MGS + reorthogonalization +
  // deflation scheme prima_reduce uses absorbs each corner's vectors in
  // corner order.
  std::vector<std::vector<double>> basis;
  if (corner_bases.size() == 1) {
    basis = std::move(corner_bases.front());
  } else {
    const obs::ObsSpan merge_span("prom.merge", "rom");
    for (auto& cb : corner_bases) {
      for (auto& w : cb) {
        const double initial = norm2(w);
        if (initial == 0.0) continue;
        for (int pass = 0; pass < 2; ++pass) {
          for (const auto& v : basis) {
            const double h = dot(v, w);
            if (h == 0.0) continue;
            for (std::size_t i = 0; i < n; ++i) w[i] -= h * v[i];
          }
        }
        const double remaining = norm2(w);
        if (remaining <= corner_options.deflation_tol * initial) continue;
        for (double& x : w) x /= remaining;
        basis.push_back(std::move(w));
      }
    }
  }
  basis_size_ = basis.size();

  // Re-project every corner's full-order G/C through the common basis
  // (prima_reduce's congruence projection). B and L are port maps —
  // independent of element values — so corner 0's projection serves every
  // corner.
  const obs::ObsSpan project_span("prom.project", "rom");
  corner_gr_.reserve(corner_points_.size());
  corner_cr_.reserve(corner_points_.size());
  for (std::size_t k = 0; k < corner_ss.size(); ++k) {
    detail::Projection pr = detail::project(corner_ss[k], basis);
    corner_gr_.push_back(std::move(pr.g));
    corner_cr_.push_back(std::move(pr.c));
    if (k == 0) {
      br_ = std::move(pr.b);
      lr_ = std::move(pr.l);
    }
  }
}

circuit::BusTopology ParametrizedBusRom::topology_at(
    const BusTechPoint& p) const {
  circuit::BusTopology t = topology_;
  t.line.resistance_per_m *= p.resistance_scale;
  t.line.capacitance_per_m *= p.capacitance_scale;
  t.coupling_cap_per_m *= p.coupling_scale;
  return t;
}

ReducedModel ParametrizedBusRom::model_at(const BusTechPoint& p) const {
  const std::array<Axis, 3> axes = axes_of(box_);
  const std::array<double, 3> values = point_values(p);
  std::array<double, 3> frac{};
  for (std::size_t a = 0; a < 3; ++a) {
    CNTI_EXPECTS(values[a] >= axes[a].lo && values[a] <= axes[a].hi,
                 "ParametrizedBusRom: technology point outside the box");
    frac[a] = axis_fraction(axes[a], values[a]);
  }

  const std::size_t q = basis_size_;
  MatrixD gr(q, q), cr(q, q);
  for (std::size_t ci = 0; ci < corner_points_.size(); ++ci) {
    const std::array<double, 3> cv = point_values(corner_points_[ci]);
    double w = 1.0;
    for (std::size_t a = 0; a < 3; ++a) {
      if (axes[a].lo == axes[a].hi) continue;
      w *= cv[a] == axes[a].hi ? frac[a] : 1.0 - frac[a];
    }
    if (w == 0.0) continue;
    const MatrixD& cg = corner_gr_[ci];
    const MatrixD& cc = corner_cr_[ci];
    for (std::size_t i = 0; i < q; ++i) {
      for (std::size_t j = 0; j < q; ++j) {
        gr(i, j) += w * cg(i, j);
        cr(i, j) += w * cc(i, j);
      }
    }
  }
  return ReducedModel(std::move(gr), std::move(cr), br_, lr_, input_names_,
                      output_names_, full_order_);
}

double ParametrizedBusRom::window_s(const BusTechPoint& p,
                                    const BusScenario& sc) const {
  circuit::BusDrive drive;
  drive.aggressor = aggressor_;
  drive.driver_ohm = sc.driver_ohm;
  drive.vdd_v = sc.vdd_v;
  drive.edge_time_s = sc.edge_time_s;
  drive.receiver_load_f = sc.receiver_load_f;
  return circuit::bus_settle_time_s(topology_at(p), drive);
}

circuit::BusCrosstalkResult ParametrizedBusRom::evaluate(
    const BusTechPoint& p, const BusScenario& sc, int time_steps) const {
  if (!drive_) {
    return evaluate_driven_bus(
        terminate_bare_bus(model_at(p), topology_.lines, aggressor_, sc),
        aggressor_, sc, window_s(p, sc), time_steps);
  }
  CNTI_EXPECTS(sc.driver_ohm == drive_->driver_ohm &&
                   sc.receiver_load_f == drive_->receiver_load_f,
               "ParametrizedBusRom: scenario driver/load differ from the "
               "reduced drive");
  return evaluate_driven_bus(model_at(p), aggressor_, sc, window_s(p, sc),
                             time_steps);
}

ParamRomValidation ParametrizedBusRom::validate_against_mna(
    const BusScenario& sc, int probes, int time_steps) const {
  CNTI_EXPECTS(probes >= 1, "ParametrizedBusRom: need at least one probe");
  const obs::ObsSpan validate_span("prom.validate", "rom");
  const std::array<Axis, 3> axes = axes_of(box_);
  ParamRomValidation out;
  out.probes = probes;
  for (int k = 0; k < probes; ++k) {
    BusTechPoint p;
    std::array<double*, 3> fields = {&p.resistance_scale,
                                     &p.capacitance_scale,
                                     &p.coupling_scale};
    for (int a = 0; a < 3; ++a) {
      const Axis& ax = axes[static_cast<std::size_t>(a)];
      *fields[static_cast<std::size_t>(a)] =
          ax.lo + interior_fraction(k, a) * (ax.hi - ax.lo);
    }

    const circuit::BusCrosstalkResult rom_res = evaluate(p, sc, time_steps);
    circuit::BusDrive drive;
    drive.aggressor = aggressor_;
    drive.driver_ohm = sc.driver_ohm;
    drive.vdd_v = sc.vdd_v;
    drive.edge_time_s = sc.edge_time_s;
    drive.receiver_load_f = sc.receiver_load_f;
    const circuit::BusCrosstalkResult mna_res = circuit::analyze_bus_crosstalk(
        circuit::make_bus_config(topology_at(p), drive), time_steps);

    const double noise_den =
        std::max(std::abs(mna_res.peak_noise_v), 1e-12 * sc.vdd_v);
    out.max_noise_rel_err =
        std::max(out.max_noise_rel_err,
                 std::abs(rom_res.peak_noise_v - mna_res.peak_noise_v) /
                     noise_den);
    const bool rom_nan = std::isnan(rom_res.aggressor_delay_s);
    const bool mna_nan = std::isnan(mna_res.aggressor_delay_s);
    if (rom_nan != mna_nan) {
      out.max_delay_rel_err = std::max(out.max_delay_rel_err, 1.0);
    } else if (!mna_nan) {
      out.max_delay_rel_err = std::max(
          out.max_delay_rel_err,
          std::abs(rom_res.aggressor_delay_s - mna_res.aggressor_delay_s) /
              mna_res.aggressor_delay_s);
    }
  }
  static const obs::Gauge error_gauge =
      obs::gauge("cnti.rom.validate_error_pct");
  error_gauge.set(100.0 *
                  std::max(out.max_noise_rel_err, out.max_delay_rel_err));
  return out;
}

}  // namespace cnti::rom
