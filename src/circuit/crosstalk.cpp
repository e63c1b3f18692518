#include "circuit/crosstalk.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "numerics/interp.hpp"

namespace cnti::circuit {

namespace {

/// Receiver input load terminating every line's far end [F].
constexpr double kReceiverLoadF = 0.2e-15;

/// Simulation window long enough for the aggressor edge to settle:
/// 12 time constants of the total drive resistance into the total line
/// (+ coupling) capacitance, floored at 20 edge times. The single source
/// of the window policy — the pair analysis, the bus analysis and the ROM
/// layer (via bus_settle_time_s) must all stay on the same grid.
double settle_time_s(double r_total_ohm, double c_total_f,
                     double edge_time_s) {
  return std::max(20.0 * edge_time_s, 12.0 * r_total_ohm * c_total_f);
}

TransientOptions settle_window(double r_total_ohm, double c_total_f,
                               double edge_time_s, int time_steps,
                               const MnaOptions& mna) {
  TransientOptions opt;
  opt.t_stop_s = settle_time_s(r_total_ohm, c_total_f, edge_time_s);
  opt.dt_s = opt.t_stop_s / time_steps;
  opt.mna = mna;
  return opt;
}

}  // namespace

BusCrosstalkResult scan_bus_noise(const std::vector<double>& time,
                                  std::span<const std::vector<double>> far,
                                  int aggressor, double vdd_v) {
  const int lines = static_cast<int>(far.size());
  CNTI_EXPECTS(lines >= 2, "need at least two lines");
  CNTI_EXPECTS(aggressor >= 0 && aggressor < lines,
               "aggressor index out of range");
  BusCrosstalkResult out;
  // With zero coupling every victim waveform is exactly 0; report the
  // first victim instead of leaving the -1 sentinel in a valid result.
  out.worst_victim = aggressor == 0 ? 1 : 0;
  for (int l = 0; l < lines; ++l) {
    if (l == aggressor) continue;
    const std::vector<double>& vn = far[static_cast<std::size_t>(l)];
    CNTI_EXPECTS(vn.size() == time.size(), "waveform/time size mismatch");
    for (std::size_t i = 0; i < time.size(); ++i) {
      if (std::abs(vn[i]) > std::abs(out.peak_noise_v)) {
        out.peak_noise_v = vn[i];
        out.peak_time_s = time[i];
        out.worst_victim = l;
      }
    }
  }
  // first_crossing_time returns -1 when the level is never reached inside
  // the window. A negative "delay" silently poisons downstream statistics
  // (Monte Carlo summaries, CSV reports), so it surfaces as a quiet NaN
  // instead: report writers emit it as null / an empty cell and the
  // statistical layer rejects-and-counts it.
  const double crossing = numerics::first_crossing_time(
      time, far[static_cast<std::size_t>(aggressor)], vdd_v / 2.0,
      /*rising=*/true);
  out.aggressor_delay_s =
      crossing < 0.0 ? std::numeric_limits<double>::quiet_NaN() : crossing;
  return out;
}

PulseWave bus_edge_wave(double vdd_v, double edge_time_s) {
  PulseWave pulse;
  pulse.v1 = 0.0;
  pulse.v2 = vdd_v;
  pulse.delay_s = 5.0 * edge_time_s;
  pulse.rise_s = edge_time_s;
  pulse.fall_s = edge_time_s;
  pulse.width_s = 1.0;  // single edge within the window
  pulse.period_s = 2.0;
  return pulse;
}

double bus_settle_time_s(const BusTopology& topology, const BusDrive& drive) {
  // A middle line sees neighbour coupling on both sides.
  const double r_total = drive.driver_ohm +
                         topology.line.series_resistance_ohm +
                         topology.line.resistance_per_m * topology.length_m;
  // The receiver load hangs off the same drive path, so it belongs in the
  // RC estimate: heavy-load scenarios (load >> line capacitance) would
  // otherwise get a window that ends before the aggressor settles.
  const double c_total =
      (topology.line.capacitance_per_m + 2.0 * topology.coupling_cap_per_m) *
          topology.length_m +
      drive.receiver_load_f;
  return settle_time_s(r_total, c_total, drive.edge_time_s);
}

CrosstalkResult analyze_crosstalk(const CrosstalkConfig& cfg,
                                  int time_steps) {
  CNTI_EXPECTS(cfg.segments >= 2, "need at least two segments");
  CNTI_EXPECTS(cfg.length_m > 0, "length must be positive");
  CNTI_EXPECTS(cfg.coupling_cap_per_m >= 0, "coupling must be >= 0");

  Circuit ckt;
  const NodeId agg_in = ckt.node("agg_in");
  const NodeId vic_far = ckt.node("vic_far");
  const NodeId agg_far = ckt.node("agg_far");
  const NodeId agg_drv = ckt.node("agg_drv");
  const NodeId vic_drv = ckt.node("vic_drv");

  // Aggressor: pulse source behind its driver resistance.
  ckt.add_vsource("vagg", agg_in, 0,
                  bus_edge_wave(cfg.vdd_v, cfg.edge_time_s));
  ckt.add_resistor("ragg", agg_in, agg_drv, cfg.aggressor_driver_ohm);
  // Victim: held at ground through its driver.
  ckt.add_resistor("rvic", 0, vic_drv, cfg.victim_driver_ohm);

  // Build the two ladders with per-node coupling.
  const auto seg_v =
      core::discretize_line(cfg.victim, cfg.length_m, cfg.segments);
  const auto seg_a =
      core::discretize_line(cfg.aggressor, cfg.length_m, cfg.segments);
  const double cc_per_seg =
      cfg.coupling_cap_per_m * cfg.length_m / cfg.segments;
  const double rv_end = cfg.victim.series_resistance_ohm / 2.0;
  const double ra_end = cfg.aggressor.series_resistance_ohm / 2.0;

  NodeId v_prev = vic_drv, a_prev = agg_drv;
  if (rv_end > 0) {
    const NodeId n = ckt.node("v_c1");
    ckt.add_resistor("rvc1", v_prev, n, rv_end);
    v_prev = n;
  }
  if (ra_end > 0) {
    const NodeId n = ckt.node("a_c1");
    ckt.add_resistor("rac1", a_prev, n, ra_end);
    a_prev = n;
  }
  for (int s = 0; s < cfg.segments; ++s) {
    const std::string is = std::to_string(s);
    const NodeId vn = ckt.node("v" + is);
    const NodeId an = ckt.node("a" + is);
    ckt.add_resistor("rv" + is, v_prev, vn,
                     seg_v[static_cast<std::size_t>(s)].resistance_ohm);
    ckt.add_resistor("ra" + is, a_prev, an,
                     seg_a[static_cast<std::size_t>(s)].resistance_ohm);
    const double cv = seg_v[static_cast<std::size_t>(s)].capacitance_f;
    const double ca = seg_a[static_cast<std::size_t>(s)].capacitance_f;
    ckt.add_capacitor("cv" + is, vn, 0, cv);
    ckt.add_capacitor("ca" + is, an, 0, ca);
    if (cc_per_seg > 0) {
      ckt.add_capacitor("cc" + is, vn, an, cc_per_seg);
    }
    v_prev = vn;
    a_prev = an;
  }
  ckt.add_resistor("rvc2", v_prev, vic_far, rv_end > 0 ? rv_end : 1.0);
  ckt.add_resistor("rac2", a_prev, agg_far, ra_end > 0 ? ra_end : 1.0);
  // Receiver loads.
  ckt.add_capacitor("clv", vic_far, 0, kReceiverLoadF);
  ckt.add_capacitor("cla", agg_far, 0, kReceiverLoadF);

  const TransientOptions opt = settle_window(
      cfg.aggressor_driver_ohm + cfg.aggressor.series_resistance_ohm +
          cfg.aggressor.resistance_per_m * cfg.length_m,
      (cfg.aggressor.capacitance_per_m + cfg.coupling_cap_per_m) *
          cfg.length_m,
      cfg.edge_time_s, time_steps, cfg.mna);
  const TransientResult res = simulate_transient(ckt, opt, {vic_far, agg_far});
  const BusCrosstalkResult scan =
      scan_bus_noise(res.time(), res.waveforms(), /*aggressor=*/1, cfg.vdd_v);
  return {scan.peak_noise_v, scan.peak_time_s, scan.aggressor_delay_s};
}

BusNetlist build_bus_netlist(const BusTopology& cfg) {
  CNTI_EXPECTS(cfg.lines >= 2, "need at least two lines");
  CNTI_EXPECTS(cfg.segments >= 2, "need at least two segments");
  CNTI_EXPECTS(cfg.length_m > 0, "length must be positive");
  CNTI_EXPECTS(cfg.coupling_cap_per_m >= 0, "coupling must be >= 0");

  BusNetlist out;
  out.topology = cfg;
  Circuit& ckt = out.ckt;
  const std::size_t nl = static_cast<std::size_t>(cfg.lines);

  // Line input terminals (driver attach points).
  std::vector<NodeId> head(nl);
  for (int l = 0; l < cfg.lines; ++l) {
    head[static_cast<std::size_t>(l)] = ckt.node("drv" + std::to_string(l));
  }
  out.head = head;

  const auto segs = core::discretize_line(cfg.line, cfg.length_m,
                                          cfg.segments);
  const double cc_per_seg =
      cfg.coupling_cap_per_m * cfg.length_m / cfg.segments;
  const double r_end = cfg.line.series_resistance_ohm / 2.0;
  if (r_end > 0) {
    for (int l = 0; l < cfg.lines; ++l) {
      const NodeId n = ckt.node("c1_" + std::to_string(l));
      ckt.add_resistor("rc1_" + std::to_string(l),
                       head[static_cast<std::size_t>(l)], n, r_end);
      head[static_cast<std::size_t>(l)] = n;
    }
  }

  // Segment-major node creation keeps neighbour coupling close to the
  // diagonal, so the sparse LU fill stays near-banded (bandwidth ~ lines,
  // not ~ segments).
  for (int s = 0; s < cfg.segments; ++s) {
    std::vector<NodeId> cur(nl);
    const std::string is = std::to_string(s);
    for (int l = 0; l < cfg.lines; ++l) {
      const std::string tag = std::to_string(l) + "_" + is;
      const NodeId n = ckt.node("b" + tag);
      ckt.add_resistor("r" + tag, head[static_cast<std::size_t>(l)], n,
                       segs[static_cast<std::size_t>(s)].resistance_ohm);
      ckt.add_capacitor("c" + tag, n, 0,
                        segs[static_cast<std::size_t>(s)].capacitance_f);
      cur[static_cast<std::size_t>(l)] = n;
    }
    if (cc_per_seg > 0) {
      for (int l = 0; l + 1 < cfg.lines; ++l) {
        ckt.add_capacitor("cc" + std::to_string(l) + "_" + is,
                          cur[static_cast<std::size_t>(l)],
                          cur[static_cast<std::size_t>(l + 1)], cc_per_seg);
      }
    }
    head = cur;
  }

  out.far.resize(nl);
  for (int l = 0; l < cfg.lines; ++l) {
    const NodeId n = ckt.node("far" + std::to_string(l));
    ckt.add_resistor("rc2_" + std::to_string(l),
                     head[static_cast<std::size_t>(l)], n,
                     r_end > 0 ? r_end : 1.0);
    out.far[static_cast<std::size_t>(l)] = n;
  }
  return out;
}

BusCrosstalkResult analyze_bus_crosstalk(BusNetlist bus,
                                         const BusTopology& topology,
                                         const BusDrive& drive,
                                         int time_steps) {
  const int agg =
      drive.aggressor < 0 ? topology.lines / 2 : drive.aggressor;
  CNTI_EXPECTS(agg >= 0 && agg < topology.lines,
               "aggressor index out of range");
  const BusTopology& built = bus.topology;
  CNTI_EXPECTS(built.line.series_resistance_ohm ==
                       topology.line.series_resistance_ohm &&
                   built.line.resistance_per_m ==
                       topology.line.resistance_per_m &&
                   built.line.capacitance_per_m ==
                       topology.line.capacitance_per_m &&
                   built.line.inductance_per_m ==
                       topology.line.inductance_per_m &&
                   built.coupling_cap_per_m == topology.coupling_cap_per_m &&
                   built.length_m == topology.length_m &&
                   built.lines == topology.lines &&
                   built.segments == topology.segments,
               "bare bus netlist was built from a different topology");
  CNTI_EXPECTS(drive.receiver_load_f >= 0, "receiver load must be >= 0");
  Circuit& ckt = bus.ckt;

  // Aggressor stimulus behind its driver; victims held quiet; receiver
  // loads at every far end.
  const NodeId agg_in = ckt.node("bus_in");
  ckt.add_vsource("vbus", agg_in, 0,
                  bus_edge_wave(drive.vdd_v, drive.edge_time_s));
  for (int l = 0; l < topology.lines; ++l) {
    ckt.add_resistor("rdrv" + std::to_string(l), l == agg ? agg_in : 0,
                     bus.head[static_cast<std::size_t>(l)], drive.driver_ohm);
    if (drive.receiver_load_f > 0) {  // a zero load stamps nothing
      ckt.add_capacitor("cl" + std::to_string(l),
                        bus.far[static_cast<std::size_t>(l)], 0,
                        drive.receiver_load_f);
    }
  }

  TransientOptions opt;
  opt.t_stop_s = bus_settle_time_s(topology, drive);
  opt.dt_s = opt.t_stop_s / time_steps;
  opt.mna = drive.mna;
  const TransientResult res = simulate_transient(ckt, opt, bus.far);

  BusCrosstalkResult out =
      scan_bus_noise(res.time(), res.waveforms(), agg, drive.vdd_v);
  out.unknowns = ckt.node_count() + 1;  // + the aggressor source branch
  return out;
}

}  // namespace cnti::circuit
