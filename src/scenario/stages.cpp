#include "scenario/stages.hpp"

#include <cmath>

#include "circuit/builders.hpp"
#include "circuit/crosstalk.hpp"
#include "circuit/measure.hpp"
#include "circuit/mna.hpp"
#include "common/units.hpp"
#include "tcad/field_solver.hpp"
#include "tcad/structure.hpp"
#include "thermal/em.hpp"
#include "thermal/heat1d.hpp"

namespace cnti::scenario {

double tcad_environment_capacitance(const core::WireEnvironment& env,
                                    int cells_per_side) {
  CNTI_EXPECTS(cells_per_side >= 1, "need at least one cell per wire side");
  CNTI_EXPECTS(env.radius_m > 0, "wire radius must be positive");
  CNTI_EXPECTS(env.center_height_m > env.radius_m,
               "wire must sit above the ground plane");

  // Square wire of the same width as the cylinder, gap h to the plane.
  const double side = 2.0 * env.radius_m;
  const double h = env.center_height_m - env.radius_m;
  const bool neighbors = env.neighbor_pitch_m > 0;
  const double pitch = neighbors ? env.neighbor_pitch_m : 0.0;
  const double domain_x =
      neighbors ? std::max(20.0 * side, 4.0 * pitch) : 20.0 * side;
  const double domain_y = 10.0 * side;  // extrusion length
  const double domain_z = 6.0 * (h + side);
  const double plane_top = (h + side) / 2.0;
  const double wire_z0 = plane_top + h;
  const double wire_z1 = wire_z0 + side;

  // Node counts scale with the resolution knob; cells_per_side == 2
  // reproduces the historical 21 x 11 x 13 integration-test grid.
  const auto n = [cells_per_side](double cells_at_two) {
    return static_cast<std::size_t>(
        std::lround(cells_at_two / 2.0 * cells_per_side)) + 1;
  };
  tcad::Structure s(
      tcad::Grid3D::uniform(domain_x, domain_y, domain_z, n(20), n(10),
                            n(12)),
      env.eps_r);
  s.add_conductor("plane", {0, domain_x, 0, domain_y, 0, plane_top});
  const int wire = s.add_conductor(
      "wire", {domain_x / 2 - side / 2, domain_x / 2 + side / 2, 0, domain_y,
               wire_z0, wire_z1});
  int left = -1, right = -1;
  if (neighbors) {
    left = s.add_conductor(
        "left", {domain_x / 2 - pitch - side / 2,
                 domain_x / 2 - pitch + side / 2, 0, domain_y, wire_z0,
                 wire_z1});
    right = s.add_conductor(
        "right", {domain_x / 2 + pitch - side / 2,
                  domain_x / 2 + pitch + side / 2, 0, domain_y, wire_z0,
                  wire_z1});
  }

  const auto caps = tcad::extract_capacitance(s);
  // Off-diagonals of the Maxwell matrix are minus the pair couplings.
  double c_per_m = -caps.matrix(static_cast<std::size_t>(wire), 0);
  if (!(c_per_m > 0)) {
    throw NumericalError(
        "tcad_environment_capacitance: grid too coarse to resolve the "
        "wire (increase cells_per_side)");
  }
  if (neighbors) {
    c_per_m += env.coupling_factor *
               (-caps.matrix(static_cast<std::size_t>(wire),
                             static_cast<std::size_t>(left)) -
                caps.matrix(static_cast<std::size_t>(wire),
                            static_cast<std::size_t>(right)));
  }
  return c_per_m / domain_y;
}

double mna_line_delay_s(const core::DriverLineLoad& cfg, double vdd_v,
                        double edge_time_s, int segments, int time_steps) {
  CNTI_EXPECTS(vdd_v > 0, "vdd must be positive");
  CNTI_EXPECTS(edge_time_s > 0, "edge time must be positive");
  CNTI_EXPECTS(segments >= 2, "need at least two line segments");
  CNTI_EXPECTS(time_steps >= 2, "need at least two time steps");

  circuit::Circuit ckt;
  const circuit::NodeId in = ckt.node("in");
  const circuit::NodeId drv = ckt.node("drv");
  const circuit::NodeId out = ckt.node("out");
  ckt.add_vsource("vin", in, 0, circuit::bus_edge_wave(vdd_v, edge_time_s));
  ckt.add_resistor("rdrv", in, drv, cfg.driver_resistance_ohm);
  if (cfg.driver_output_capacitance_f > 0) {
    ckt.add_capacitor("cdrv", drv, 0, cfg.driver_output_capacitance_f);
  }
  circuit::add_distributed_line(ckt, "ln", drv, out, cfg.line, cfg.length_m,
                                segments);
  ckt.add_capacitor("cl", out, 0, cfg.load_capacitance_f);

  // Same window policy as the bus analyses: enough time constants for the
  // edge to settle, floored in edge times, shifted by the 5-edge-time
  // stimulus delay of bus_edge_wave.
  const double r_total = cfg.driver_resistance_ohm +
                         cfg.line.series_resistance_ohm +
                         cfg.line.resistance_per_m * cfg.length_m;
  const double c_total = cfg.line.capacitance_per_m * cfg.length_m +
                         cfg.load_capacitance_f +
                         cfg.driver_output_capacitance_f;
  circuit::TransientOptions opt;
  opt.t_stop_s =
      5.0 * edge_time_s + std::max(20.0 * edge_time_s, 12.0 * r_total * c_total);
  opt.dt_s = opt.t_stop_s / time_steps;
  const circuit::TransientResult res =
      circuit::simulate_transient(ckt, opt, {in, out});

  const double d = circuit::propagation_delay(res, in, out, vdd_v / 2.0,
                                              vdd_v / 2.0, /*rising_in=*/true);
  if (d < 0) {
    throw NumericalError(
        "mna_line_delay_s: output never crossed 50% within the window");
  }
  return d;
}

ThermalReport thermal_stage(const TechnologySpec& tech,
                            const WorkloadSpec& workload,
                            const core::MwcntLine& line) {
  CNTI_EXPECTS(workload.operating_current_ua >= 0,
               "operating current must be >= 0");
  const double length_m = units::from_um(workload.length_um);
  const double diameter_m = units::from_nm(tech.outer_diameter_nm);
  const double area_m2 = M_PI * diameter_m * diameter_m / 4.0;

  thermal::LineThermalSpec spec;
  spec.length_m = length_m;
  spec.cross_section_m2 = area_m2;
  spec.thermal_conductivity = workload.thermal_conductivity_w_mk;
  spec.ambient_k = tech.temperature_k;
  // Flatten the compact model (contacts + scattering) into the uniform
  // per-length resistance the 1-D solver expects.
  spec.resistance_per_m = line.resistance(length_m) / length_m;
  spec.substrate_coupling = workload.substrate_coupling_w_mk;

  ThermalReport out;
  const double current_a = units::from_uA(workload.operating_current_ua);
  const auto sol = thermal::solve_self_heating(spec, current_a);
  out.peak_rise_k = sol.peak_rise_k;
  out.hot_resistance_kohm = units::to_kOhm(sol.hot_resistance_ohm);
  out.thermal_runaway = sol.thermal_runaway;
  out.ampacity_ua = units::to_uA(thermal::thermal_ampacity(
      spec, tech.temperature_k + workload.max_temperature_rise_k));

  const double j_a_m2 = current_a / area_m2;
  out.current_density_a_cm2 = units::to_A_per_cm2(j_a_m2);
  out.cnt_em_immune = thermal::cnt_em_immune(j_a_m2);
  out.cu_reference_mttf_s = thermal::black_mttf_s(
      j_a_m2, tech.temperature_k + sol.peak_rise_k);
  return out;
}

}  // namespace cnti::scenario
