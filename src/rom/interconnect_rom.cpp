#include "rom/interconnect_rom.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "numerics/interp.hpp"
#include "obs/obs.hpp"
#include "rom/detail.hpp"

namespace cnti::rom {

namespace {

using circuit::BusCrosstalkResult;
using numerics::MatrixD;
using numerics::SparseMatrix;

int resolve_aggressor(const circuit::BusTopology& topology,
                      const circuit::BusDrive& drive) {
  const int agg = drive.aggressor < 0 ? topology.lines / 2 : drive.aggressor;
  CNTI_EXPECTS(agg < topology.lines, "bus ROM: aggressor index out of range");
  return agg;
}

/// State layout and element values of a bus, in build_bus_netlist's node
/// order: heads, contact nodes when the line has series resistance, the
/// ladder segment-major, the far ends. Every series element joins states
/// exactly `nl` apart, every coupling capacitor neighbours in one segment.
struct Layout {
  explicit Layout(const circuit::BusTopology& t)
      : nl(static_cast<std::size_t>(t.lines)),
        ladder(t.line.series_resistance_ohm > 0 ? 2 * nl : nl),
        far(ladder + static_cast<std::size_t>(t.segments) * nl),
        n(far + nl),
        g_seg(1.0 / (t.line.resistance_per_m * t.length_m / t.segments)),
        c_seg(t.line.capacitance_per_m * t.length_m / t.segments),
        cc_seg(t.coupling_cap_per_m * t.length_m / t.segments),
        g_end(ladder > nl ? 1.0 / (t.line.series_resistance_ohm / 2.0)
                          : 1.0) {}

  /// Whether states a and a + 1 share a coupling capacitor.
  bool coupled(std::size_t a) const {
    return a >= ladder && a + 1 < far && (a - ladder) % nl != nl - 1;
  }

  std::size_t nl, ladder, far, n;
  /// Segment conductance and capacitances; g_end is a contact resistor's
  /// conductance, or the 1 Ohm far stub's of a contact-free line.
  double g_seg, c_seg, cc_seg, g_end;
};

/// Sorted CSR of a symmetric stamp: ground(r) to ground at every state,
/// plus element(a) between a and a + d wherever joins(a).
template <typename Joins, typename Element, typename Ground>
SparseMatrix stamp_csr(std::size_t n, std::size_t d, Joins joins,
                       Element element, Ground ground) {
  std::vector<std::size_t> row_ptr(n + 1, 0), col;
  std::vector<double> val;
  col.reserve(3 * n);
  val.reserve(3 * n);
  for (std::size_t r = 0; r < n; ++r) {
    const bool lo = r >= d && joins(r - d), hi = joins(r);
    const double x_lo = lo ? element(r - d) : 0.0;
    const double x_hi = hi ? element(r) : 0.0;
    if (lo) {
      col.push_back(r - d);
      val.push_back(-x_lo);
    }
    col.push_back(r);
    val.push_back(ground(r) + x_lo + x_hi);
    if (hi) {
      col.push_back(r + d);
      val.push_back(-x_hi);
    }
    row_ptr[r + 1] = col.size();
  }
  return SparseMatrix(n, n, std::move(row_ptr), std::move(col),
                      std::move(val));
}

}  // namespace

BusTheta bus_theta(const BusTechPoint& p, double driver_siemens,
                   double load_f) {
  return {1.0, 1.0 / p.resistance_scale, driver_siemens,
          p.capacitance_scale, p.coupling_scale, load_f};
}

SparseMatrix BusStateSpace::g(const BusTheta& t) const {
  const Layout b(topology);
  return stamp_csr(
      b.n, b.nl, [&](std::size_t a) { return a + b.nl < b.n; },
      [&](std::size_t a) {  // the series element from a to a + nl
        if (a + b.nl < b.ladder) return t[0] * b.g_end;  // head contact
        return a < b.far - b.nl ? t[1] * b.g_seg : t[0] * b.g_end;
      },
      [&](std::size_t r) {
        return t[0] * detail::kGminFloor + (r < b.nl ? t[2] : 0.0);
      });
}

SparseMatrix BusStateSpace::c(const BusTheta& t) const {
  const Layout b(topology);
  return stamp_csr(
      b.n, 1, [&](std::size_t a) { return b.coupled(a); },
      [&](std::size_t) { return t[4] * b.cc_seg; },
      [&](std::size_t r) {
        return r >= b.far ? t[5] : r >= b.ladder ? t[3] * b.c_seg : 0.0;
      });
}

BusStateSpace stamp_bus(const circuit::BusTopology& topology) {
  CNTI_EXPECTS(topology.lines >= 2, "need at least two lines");
  CNTI_EXPECTS(topology.segments >= 2, "need at least two segments");
  CNTI_EXPECTS(topology.length_m > 0, "length must be positive");
  CNTI_EXPECTS(topology.coupling_cap_per_m >= 0, "coupling must be >= 0");
  CNTI_EXPECTS(topology.line.resistance_per_m > 0,
               "line resistance must be positive");
  CNTI_EXPECTS(topology.line.capacitance_per_m >= 0,
               "line capacitance must be >= 0");
  const Layout b(topology);
  BusStateSpace out;
  out.topology = topology;
  for (std::size_t l = 0; l < b.nl; ++l) {
    out.head_states.push_back(l);
    out.far_states.push_back(b.far + l);
  }
  return out;
}

StateSpace bare_bus_ports(const BusStateSpace& bare) {
  const std::size_t nl = bare.head_states.size();
  const BusTheta theta = bus_theta({}, 0.0, 0.0);
  StateSpace ss;
  ss.g = bare.g(theta);
  ss.c = bare.c(theta);
  ss.nodes = ss.size = bare.size();
  const std::size_t n = static_cast<std::size_t>(ss.size);
  ss.b = MatrixD(n, 2 * nl);
  ss.l = MatrixD(n, 2 * nl);
  for (std::size_t l = 0; l < nl; ++l) {
    ss.b(bare.head_states[l], l) = ss.l(bare.head_states[l], l) = 1.0;
    ss.b(bare.far_states[l], nl + l) = ss.l(bare.far_states[l], nl + l) = 1.0;
  }
  for (std::size_t l = 0; l < nl; ++l) {
    ss.input_names.push_back("head" + std::to_string(l));
  }
  for (std::size_t l = 0; l < nl; ++l) {
    ss.input_names.push_back("far" + std::to_string(l));
  }
  ss.output_names = ss.input_names;
  return ss;
}

StateSpace terminate_bus(const BusStateSpace& bare,
                         const circuit::BusDrive& drive) {
  CNTI_EXPECTS(drive.driver_ohm > 0, "bus ROM: driver resistance must be > 0");
  CNTI_EXPECTS(drive.receiver_load_f >= 0, "bus ROM: load must be >= 0");
  const int agg = resolve_aggressor(bare.topology, drive);
  const std::size_t nl = bare.far_states.size();
  StateSpace ss;
  const BusTheta theta =
      bus_theta({}, 1.0 / drive.driver_ohm, drive.receiver_load_f);
  ss.g = bare.g(theta);
  ss.c = bare.c(theta);
  ss.nodes = ss.size = bare.size();
  const std::size_t n = static_cast<std::size_t>(ss.size);
  ss.b = MatrixD(n, 1);
  ss.b(bare.head_states[static_cast<std::size_t>(agg)], 0) = 1.0;
  ss.input_names.push_back("head" + std::to_string(agg));
  ss.l = MatrixD(n, nl);
  for (std::size_t l = 0; l < nl; ++l) {
    ss.l(bare.far_states[l], l) = 1.0;
    ss.output_names.push_back("far" + std::to_string(l));
  }
  return ss;
}

ReducedModel reduce_driven_bus(const BusStateSpace& bare,
                               const circuit::BusDrive& drive) {
  PrimaOptions opt;
  opt.order = kDrivenBusOrder;
  opt.expansion_rad_per_s =
      20.0 / circuit::bus_settle_time_s(bare.topology, drive);
  return prima_reduce(terminate_bus(bare, drive), opt);
}

BusCrosstalkResult evaluate_bus_drive(const BusStateSpace& bare,
                                      const circuit::BusDrive& drive,
                                      int time_steps) {
  BusScenario sc;
  sc.driver_ohm = drive.driver_ohm;
  sc.receiver_load_f = drive.receiver_load_f;
  sc.vdd_v = drive.vdd_v;
  sc.edge_time_s = drive.edge_time_s;
  return evaluate_driven_bus(reduce_driven_bus(bare, drive),
                             resolve_aggressor(bare.topology, drive), sc,
                             circuit::bus_settle_time_s(bare.topology, drive),
                             time_steps);
}

ReducedModel terminate_bare_bus(const ReducedModel& bare, int lines,
                                int aggressor, const BusScenario& sc) {
  CNTI_EXPECTS(sc.driver_ohm > 0, "bus ROM: driver resistance must be > 0");
  CNTI_EXPECTS(sc.receiver_load_f >= 0, "bus ROM: load must be >= 0");
  CNTI_EXPECTS(aggressor >= 0 && aggressor < lines,
               "bus ROM: aggressor index out of range");
  CNTI_EXPECTS(bare.inputs() >= 2 * lines && bare.outputs() >= 2 * lines,
               "bus ROM: bare model is missing head/far ports");
  const int nl = lines;

  // Terminations: every head sees its driver's output conductance (the
  // aggressor's Thevenin source becomes a Norton drive at the same port),
  // every far end its receiver load. Port k is input k and output k by
  // construction in bare_bus_ports.
  std::vector<PortTermination> loads;
  loads.reserve(static_cast<std::size_t>(2 * nl));
  for (int l = 0; l < nl; ++l) {
    loads.push_back({l, l, 1.0 / sc.driver_ohm, 0.0});
  }
  for (int l = 0; l < nl; ++l) {
    loads.push_back({nl + l, nl + l, 0.0, sc.receiver_load_f});
  }
  MatrixD g = bare.gr();
  MatrixD c = bare.cr();
  detail::fold_terminations(g, c, bare.br(), bare.lr(), loads);

  // Only the aggressor head is driven and only the far ends are read, so
  // the driven model keeps just that input column and those outputs.
  const std::size_t q = g.rows();
  MatrixD b(q, 1);
  MatrixD l_far(q, static_cast<std::size_t>(nl));
  for (std::size_t i = 0; i < q; ++i) {
    b(i, 0) = bare.br()(i, static_cast<std::size_t>(aggressor));
    for (int l = 0; l < nl; ++l) {
      l_far(i, static_cast<std::size_t>(l)) =
          bare.lr()(i, static_cast<std::size_t>(nl + l));
    }
  }
  return ReducedModel(
      std::move(g), std::move(c), std::move(b), std::move(l_far),
      {bare.input_names()[static_cast<std::size_t>(aggressor)]},
      std::vector<std::string>(bare.output_names().begin() + nl,
                               bare.output_names().begin() + 2 * nl),
      bare.full_order());
}

BusCrosstalkResult evaluate_driven_bus(const ReducedModel& driven,
                                       int aggressor, const BusScenario& sc,
                                       double t_stop_s, int time_steps) {
  CNTI_EXPECTS(time_steps >= 2, "bus ROM: need at least two time steps");
  const int nl = driven.outputs();
  CNTI_EXPECTS(aggressor >= 0 && aggressor < nl,
               "bus ROM: aggressor index out of range");
  CNTI_EXPECTS(driven.inputs() == 1,
               "bus ROM: driven model needs exactly the aggressor input");
  static const obs::Counter evaluations = obs::counter("cnti.rom.evaluations");
  static const obs::Histogram eval_hist =
      obs::histogram("cnti.rom.evaluate_ns");
  evaluations.add();
  const obs::ObsSpan eval_span("rom.evaluate", "rom", eval_hist);

  // Norton drive: i(t) = v_edge(t) / R_driver into the aggressor head.
  circuit::PulseWave edge = circuit::bus_edge_wave(sc.vdd_v, sc.edge_time_s);
  edge.v2 /= sc.driver_ohm;
  const ReducedModel::Transient tr =
      driven.simulate({edge}, t_stop_s, t_stop_s / time_steps);

  BusCrosstalkResult out;
  out.unknowns = driven.order();
  out.worst_victim = aggressor == 0 ? 1 : 0;
  for (int l = 0; l < nl; ++l) {
    if (l == aggressor) continue;
    const auto& vn = tr.outputs[static_cast<std::size_t>(l)];
    for (std::size_t i = 0; i < tr.time.size(); ++i) {
      if (std::abs(vn[i]) > std::abs(out.peak_noise_v)) {
        out.peak_noise_v = vn[i];
        out.peak_time_s = tr.time[i];
        out.worst_victim = l;
      }
    }
  }
  // Same sentinel policy as analyze_bus_crosstalk: never-crossed is a
  // quiet NaN, not a negative delay.
  const double crossing = numerics::first_crossing_time(
      tr.time, tr.outputs[static_cast<std::size_t>(aggressor)],
      sc.vdd_v / 2.0, /*rising=*/true);
  out.aggressor_delay_s =
      crossing < 0.0 ? std::numeric_limits<double>::quiet_NaN() : crossing;
  return out;
}

}  // namespace cnti::rom
