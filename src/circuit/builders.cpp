#include "circuit/builders.hpp"

#include <algorithm>
#include <cmath>

#include "circuit/measure.hpp"
#include "core/line_model.hpp"

namespace cnti::circuit {

NodeId add_inverter(Circuit& ckt, const std::string& name, NodeId in,
                    NodeId out, NodeId vdd, const Technology45nm& tech,
                    double size) {
  CNTI_EXPECTS(size > 0, "inverter size must be positive");
  MosfetParams n = tech.nmos;
  MosfetParams p = tech.pmos;
  n.width_m *= size;
  n.cgs_f *= size;
  n.cgd_f *= size;
  p.width_m *= size;
  p.cgs_f *= size;
  p.cgd_f *= size;
  ckt.add_mosfet(name + ".mn", out, in, 0, n);
  ckt.add_mosfet(name + ".mp", out, in, vdd, p);
  return vdd;
}

void add_distributed_line(Circuit& ckt, const std::string& name, NodeId in,
                          NodeId out, const core::LineRlc& line,
                          double length_m, int segments) {
  CNTI_EXPECTS(segments >= 1, "need at least one segment");
  const auto segs = core::discretize_line(line, length_m, segments);
  const double r_end = line.series_resistance_ohm / 2.0;

  NodeId prev = in;
  int counter = 0;
  const auto next_node = [&] {
    return ckt.node(name + ".n" + std::to_string(counter++));
  };

  // Near-end lumped resistance (contacts + quantum).
  if (r_end > 0) {
    const NodeId n = next_node();
    ckt.add_resistor(name + ".rc1", prev, n, r_end);
    prev = n;
  }
  for (int s = 0; s < segments; ++s) {
    const NodeId n = (s == segments - 1 && r_end <= 0) ? out : next_node();
    ckt.add_resistor(name + ".r" + std::to_string(s), prev, n,
                     segs[static_cast<std::size_t>(s)].resistance_ohm);
    // pi-section: half capacitance at each side of the segment resistor.
    const double c_half =
        segs[static_cast<std::size_t>(s)].capacitance_f / 2.0;
    if (c_half > 0) {
      ckt.add_capacitor(name + ".ca" + std::to_string(s), prev, 0, c_half);
      ckt.add_capacitor(name + ".cb" + std::to_string(s), n, 0, c_half);
    }
    prev = n;
  }
  if (r_end > 0) {
    ckt.add_resistor(name + ".rc2", prev, out, r_end);
  }
}

Fig11Circuit build_fig11_benchmark(const Fig11Options& opt) {
  Fig11Circuit out;
  Circuit& ckt = out.ckt;
  out.vdd_v = opt.tech.vdd_v;

  const NodeId vdd = ckt.node("vdd");
  out.input = ckt.node("in");
  out.line_in = ckt.node("line_in");
  out.line_out = ckt.node("line_out");
  out.output = ckt.node("out");

  ckt.add_vsource("vsupply", vdd, 0, DcWave{opt.tech.vdd_v});

  // Auto-scale the pulse to the slowest expected time constant so both
  // edges complete within one period.
  double pw = opt.pulse_width_s;
  if (pw <= 0) {
    core::DriverLineLoad est;
    est.driver_resistance_ohm = 5e3 / opt.driver_size;
    est.line = opt.line;
    est.length_m = opt.length_m;
    est.load_capacitance_f = 1e-15;
    pw = std::max(2e-9, 40.0 * core::elmore_delay(est));
  }
  PulseWave pulse;
  pulse.v1 = 0.0;
  pulse.v2 = opt.tech.vdd_v;
  pulse.delay_s = pw / 40.0;
  pulse.rise_s = pw / 100.0;
  pulse.fall_s = pw / 100.0;
  pulse.width_s = pw;
  pulse.period_s = 2.0 * pw;
  out.pulse_width_s = pw;
  out.pulse_period_s = pulse.period_s;
  ckt.add_vsource("vin", out.input, 0, pulse);

  add_inverter(ckt, "drv", out.input, out.line_in, vdd, opt.tech,
               opt.driver_size);
  add_distributed_line(ckt, "line", out.line_in, out.line_out, opt.line,
                       opt.length_m, opt.segments);
  add_inverter(ckt, "rcv", out.line_out, out.output, vdd, opt.tech,
               opt.receiver_size);
  // Fan-out load on the receiver.
  const NodeId dummy = ckt.node("load");
  add_inverter(ckt, "fan", out.output, dummy, vdd, opt.tech,
               4.0 * opt.receiver_size);
  return out;
}

double measure_fig11_delay(const Fig11Options& opt, int time_steps) {
  const Fig11Circuit bench = build_fig11_benchmark(opt);
  TransientOptions topt;
  topt.t_stop_s = bench.pulse_period_s;
  topt.dt_s = topt.t_stop_s / time_steps;
  topt.mna = opt.mna;
  const TransientResult res =
      simulate_transient(bench.ckt, topt, {bench.input, bench.output});
  const double v_mid = bench.vdd_v / 2.0;
  // Second input edge (falling) happens after delay + width.
  const double t_second = bench.pulse_width_s / 40.0 +
                          bench.pulse_width_s / 2.0;
  return average_propagation_delay(res, bench.input, bench.output, v_mid,
                                   t_second);
}

}  // namespace cnti::circuit
