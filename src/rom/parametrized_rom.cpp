#include "rom/parametrized_rom.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "rom/detail.hpp"

namespace cnti::rom {

namespace {

using numerics::MatrixD;

/// A driven ROM stops adding Krylov levels at the first level whose
/// estimated relative KPI error is at most this (100x under the 1e-3 the
/// MNA differential tests gate on: the estimate is a heuristic).
constexpr double kOrderTolerance = 1e-5;
/// Krylov vectors each driven corner is reduced with: the level ceiling.
constexpr std::size_t kMaxLevels = 8;
/// Steps of the fixed grid the order estimate evaluates on.
constexpr int kEstimateSteps = 200;

std::array<double, 3> point_values(const BusTechPoint& p) {
  return {p.resistance_scale, p.capacitance_scale, p.coupling_scale};
}

/// Component coefficients at `p` under the reduced drive (zero drive
/// coefficients for a bare ROM).
BusTheta theta_at(const std::optional<circuit::BusDrive>& drive,
                  const BusTechPoint& p) {
  return drive ? bus_theta(p, 1.0 / drive->driver_ohm, drive->receiver_load_f)
               : bus_theta(p, 0.0, 0.0);
}

/// The analyze_bus_crosstalk drive of a scenario on `aggressor`.
circuit::BusDrive drive_of(int aggressor, const BusScenario& sc) {
  circuit::BusDrive drive;
  drive.aggressor = aggressor;
  drive.driver_ohm = sc.driver_ohm;
  drive.vdd_v = sc.vdd_v;
  drive.edge_time_s = sc.edge_time_s;
  drive.receiver_load_f = sc.receiver_load_f;
  return drive;
}

/// Relative (noise, delay) errors of `x` against the reference `ref`:
/// noise against |ref peak| (at least 1e-12 vdd), delay against the ref
/// delay; a delay that crosses on one side only counts as 1.
std::pair<double, double> kpi_errors(const circuit::BusCrosstalkResult& x,
                                     const circuit::BusCrosstalkResult& ref,
                                     double vdd_v) {
  const double noise_den = std::max(std::abs(ref.peak_noise_v), 1e-12 * vdd_v);
  const double noise = std::abs(x.peak_noise_v - ref.peak_noise_v) / noise_den;
  const bool x_nan = std::isnan(x.aggressor_delay_s);
  const bool ref_nan = std::isnan(ref.aggressor_delay_s);
  if (x_nan != ref_nan) return {noise, 1.0};
  if (ref_nan) return {noise, 0.0};
  return {noise, std::abs(x.aggressor_delay_s - ref.aggressor_delay_s) /
                     ref.aggressor_delay_s};
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
  const std::array<double, 3> lo = point_values(box_.lo);
  const std::array<double, 3> hi = point_values(box_.hi);
  for (std::size_t a = 0; a < 3; ++a) {
    CNTI_EXPECTS(lo[a] > 0.0 && hi[a] >= lo[a],
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
  const auto axis_values = [&](std::size_t a) {
    return lo[a] == hi[a] ? std::vector<double>{lo[a]}
                          : std::vector<double>{lo[a], hi[a]};
  };
  for (const double cc : axis_values(2)) {
    for (const double c : axis_values(1)) {
      for (const double r : axis_values(0)) {
        corner_points_.push_back({r, c, cc});
      }
    }
  }

  // A corner only chooses the coefficients of the bus's G and C; the port
  // maps do not depend on them.
  const BusStateSpace bare = stamp_bus(topology_);
  StateSpace ss = drive_ ? terminate_bus(bare, corner_drive)
                         : bare_bus_ports(bare);
  full_order_ = ss.size;
  input_names_ = ss.input_names;
  output_names_ = ss.output_names;
  std::vector<std::vector<std::vector<double>>> corner_bases;
  corner_bases.reserve(corner_points_.size());
  for (const BusTechPoint& cp : corner_points_) {
    const BusTheta theta = theta_at(drive_, cp);
    ss.g = bare.g(theta);
    ss.c = bare.c(theta);
    PrimaOptions opt = corner_options;
    if (opt.order <= 0) {
      // A driven corner has one input, so its Krylov space grows one
      // vector per moment instead of one block of 2 * lines.
      opt.order = std::min(drive_ ? static_cast<int>(kMaxLevels)
                                  : 6 * topology_.lines,
                           ss.size / 2);
    }
    if (opt.expansion_rad_per_s <= 0.0) {
      opt.expansion_rad_per_s = nominal_s0;
    }
    opt.keep_basis = true;
    corner_bases.push_back(prima_reduce(ss, opt).basis());
  }

  if (drive_) {
    select_driven_order(bare, ss, corner_bases, corner_options.deflation_tol);
    return;
  }
  // A bare ROM absorbs the corners in corner order; a single corner keeps
  // its PRIMA basis verbatim.
  std::vector<std::vector<double>> basis;
  if (corner_bases.size() == 1) {
    basis = std::move(corner_bases.front());
  } else {
    const obs::ObsSpan merge_span("prom.merge", "rom");
    for (auto& cb : corner_bases) {
      for (auto& w : cb) detail::absorb(basis, w, corner_options.deflation_tol);
    }
  }
  projection_ = project(bare, ss, basis);
}

void ParametrizedBusRom::select_driven_order(
    const BusStateSpace& bare, const StateSpace& ss,
    std::vector<std::vector<std::vector<double>>>& corner_bases,
    double deflation_tol) {
  // Level j absorbs vector j of every corner before vector j + 1 of any,
  // so each level's basis extends the previous one, and the level-j model
  // is bitwise the leading block of the level-(j + 1) model
  // (project_matrix sums every entry as dot(v_i, A v_j)). The estimate of
  // a level is the largest relative KPI change to the next level, on a
  // fixed grid at the box centre and two opposite corners (none of them
  // validate_against_mna's interior probes). The first level at or under
  // kOrderTolerance is kept; at the ceiling the last level is kept with
  // the change into it (0 for a lone level). When a level deflates to
  // nothing the Krylov space is exhausted: the next level is the kept one,
  // so the change to it, the estimate, is 0 (a basis that spans the whole
  // state space is one such case: the model is then a change of basis).
  const obs::ObsSpan select_span("prom.select_order", "rom");
  BusScenario sc;
  sc.driver_ohm = drive_->driver_ohm;
  sc.receiver_load_f = drive_->receiver_load_f;
  sc.vdd_v = drive_->vdd_v;
  sc.edge_time_s = drive_->edge_time_s;
  const BusTechPoint centre{
      (box_.lo.resistance_scale + box_.hi.resistance_scale) / 2.0,
      (box_.lo.capacitance_scale + box_.hi.capacitance_scale) / 2.0,
      (box_.lo.coupling_scale + box_.hi.coupling_scale) / 2.0};
  const std::array<BusTechPoint, 3> points = {centre, box_.lo, box_.hi};

  std::vector<std::vector<double>> basis;
  Projection kept;
  std::vector<circuit::BusCrosstalkResult> kept_kpis;
  double estimate = 0.0;
  for (std::size_t level = 0; level < kMaxLevels; ++level) {
    const std::size_t before = basis.size();
    {
      const obs::ObsSpan merge_span("prom.merge", "rom");
      for (auto& cb : corner_bases) {
        if (level < cb.size()) {
          detail::absorb(basis, cb[level], deflation_tol);
        }
      }
    }
    if (basis.size() == before) {  // the Krylov space is exhausted
      estimate = 0.0;
      break;
    }
    Projection next = project(bare, ss, basis);
    std::vector<circuit::BusCrosstalkResult> kpis;
    for (const BusTechPoint& p : points) {
      kpis.push_back(evaluate_driven_bus(model(next, p), aggressor_, sc,
                                         window_s(p, sc), kEstimateSteps));
    }
    if (!kept_kpis.empty()) {
      estimate = 0.0;
      for (std::size_t k = 0; k < points.size(); ++k) {
        const auto [noise, delay] = kpi_errors(kept_kpis[k], kpis[k], sc.vdd_v);
        estimate = std::max({estimate, noise, delay});
      }
      if (estimate <= kOrderTolerance) break;
    }
    kept = std::move(next);
    kept_kpis = std::move(kpis);
  }
  projection_ = std::move(kept);

  static const obs::Gauge order_gauge = obs::gauge("cnti.rom.order");
  static const obs::Gauge estimate_gauge =
      obs::gauge("cnti.rom.error_estimate");
  order_gauge.set(static_cast<double>(order()));
  estimate_gauge.set(estimate);
}

ParametrizedBusRom::Projection ParametrizedBusRom::project(
    const BusStateSpace& bare, const StateSpace& ss,
    const std::vector<std::vector<double>>& basis) const {
  // Each component — the stamp at a unit coefficient — is projected
  // through the basis (prima_reduce's congruence projection). A part whose
  // coefficient is zero — the drive parts of a bare ROM, a zero load —
  // never enters a model.
  const obs::ObsSpan project_span("prom.project", "rom");
  const BusTheta nominal = theta_at(drive_, BusTechPoint{});
  Projection out;
  for (std::size_t k = 0; k < out.parts.size(); ++k) {
    if (nominal[k] == 0.0) continue;
    BusTheta unit{};
    unit[k] = 1.0;
    out.parts[k] = detail::project_matrix(k < 3 ? bare.g(unit) : bare.c(unit),
                                          basis);
  }
  out.br = detail::project_ports(ss.b, basis);
  out.lr = detail::project_ports(ss.l, basis);
  return out;
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
  const std::array<double, 3> values = point_values(p);
  const std::array<double, 3> lo = point_values(box_.lo);
  const std::array<double, 3> hi = point_values(box_.hi);
  for (std::size_t a = 0; a < 3; ++a) {
    CNTI_EXPECTS(values[a] >= lo[a] && values[a] <= hi[a],
                 "ParametrizedBusRom: technology point outside the box");
  }
  return model(projection_, p);
}

ReducedModel ParametrizedBusRom::model(const Projection& proj,
                                       const BusTechPoint& p) const {
  const BusTheta theta = theta_at(drive_, p);
  const std::size_t q = proj.br.rows();
  MatrixD gr(q, q), cr(q, q);
  for (std::size_t k = 0; k < proj.parts.size(); ++k) {
    if (theta[k] == 0.0) continue;
    MatrixD& dst = k < 3 ? gr : cr;
    const MatrixD& part = proj.parts[k];
    for (std::size_t i = 0; i < q; ++i) {
      for (std::size_t j = 0; j < q; ++j) dst(i, j) += theta[k] * part(i, j);
    }
  }
  return ReducedModel(std::move(gr), std::move(cr), proj.br, proj.lr,
                      input_names_, output_names_, full_order_);
}

double ParametrizedBusRom::window_s(const BusTechPoint& p,
                                    const BusScenario& sc) const {
  return circuit::bus_settle_time_s(topology_at(p),
                                    drive_of(aggressor_, sc));
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
  const std::array<double, 3> lo = point_values(box_.lo);
  const std::array<double, 3> hi = point_values(box_.hi);
  const auto interior = [&](int probe, int a) {
    const auto ua = static_cast<std::size_t>(a);
    return lo[ua] + interior_fraction(probe, a) * (hi[ua] - lo[ua]);
  };
  ParamRomValidation out;
  out.probes = probes;
  for (int k = 0; k < probes; ++k) {
    const BusTechPoint p{interior(k, 0), interior(k, 1), interior(k, 2)};
    const circuit::BusCrosstalkResult rom_res = evaluate(p, sc, time_steps);
    const circuit::BusTopology t = topology_at(p);
    const circuit::BusCrosstalkResult mna_res = circuit::analyze_bus_crosstalk(
        circuit::build_bus_netlist(t), t, drive_of(aggressor_, sc),
        time_steps);

    const auto [noise, delay] = kpi_errors(rom_res, mna_res, sc.vdd_v);
    out.max_noise_rel_err = std::max(out.max_noise_rel_err, noise);
    out.max_delay_rel_err = std::max(out.max_delay_rel_err, delay);
  }
  static const obs::Gauge error_gauge =
      obs::gauge("cnti.rom.validate_error_pct");
  error_gauge.set(100.0 *
                  std::max(out.max_noise_rel_err, out.max_delay_rel_err));
  return out;
}

}  // namespace cnti::rom
