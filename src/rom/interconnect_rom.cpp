#include "rom/interconnect_rom.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
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

/// The bus in its line modes. G = I_N (x) G_line and
/// C = I_N (x) C_line + T_N (x) D_cc, with T_N the path Laplacian of the N
/// lines, so the orthonormal DCT-II that diagonalizes T_N turns the bus
/// into N decoupled RC chains of `len` states each: head, contact (when
/// the line has series resistance), the ladder, far end. Every chain has
/// the same series elements; mode k's ladder capacitors gain
/// lambda_k * cc_seg, lambda_k = 4 sin^2(pi k / 2N).
struct Chain {
  explicit Chain(const circuit::BusTopology& t)
      : lines(static_cast<std::size_t>(t.lines)),
        ladder(t.line.series_resistance_ohm > 0 ? 2 : 1),
        len(ladder + static_cast<std::size_t>(t.segments) + 1),
        g_seg(1.0 / (t.line.resistance_per_m * t.length_m / t.segments)),
        c_seg(t.line.capacitance_per_m * t.length_m / t.segments),
        cc_seg(t.coupling_cap_per_m * t.length_m / t.segments),
        g_end(ladder > 1 ? 1.0 / (t.line.series_resistance_ohm / 2.0)
                         : 1.0) {}

  std::size_t lines, ladder, len;
  /// Segment conductance and capacitances; g_end is a contact resistor's
  /// conductance, or the 1 Ohm far stub's of a contact-free line.
  double g_seg, c_seg, cc_seg, g_end;
};

/// Q(l, k): line l's weight in mode k of the orthonormal DCT-II.
double line_mode(std::size_t lines, std::size_t l, std::size_t k) {
  const double n = static_cast<double>(lines);
  return std::sqrt((k == 0 ? 1.0 : 2.0) / n) *
         std::cos(std::numbers::pi * static_cast<double>(k) *
                  static_cast<double>(2 * l + 1) / (2.0 * n));
}

/// Column `col` of the port map `m` gets line l's head (or far end) in
/// mode coordinates: Q(l, k) at position 0 (or len - 1) of every mode k.
void put_line_port(MatrixD& m, std::size_t col, const BusStateSpace& bus,
                   std::size_t l, bool far) {
  const std::size_t lines = static_cast<std::size_t>(bus.topology.lines);
  const std::size_t len = bus.chain();
  for (std::size_t k = 0; k < lines; ++k) {
    m(k * len + (far ? len - 1 : 0), col) = line_mode(lines, l, k);
  }
}

}  // namespace

BusTheta bus_theta(const BusTechPoint& p, double driver_siemens,
                   double load_f) {
  return {1.0, 1.0 / p.resistance_scale, driver_siemens,
          p.capacitance_scale, p.coupling_scale, load_f};
}

std::size_t BusStateSpace::chain() const { return Chain(topology).len; }

SparseMatrix BusStateSpace::g(const BusTheta& t) const {
  const Chain ch(topology);
  // The element from position p to p + 1: a contact resistor (or the far
  // stub) at either end of the chain, a segment in between.
  const auto element = [&](std::size_t p) {
    return p + 1 < ch.ladder || p + 2 == ch.len ? t[0] * ch.g_end
                                                : t[1] * ch.g_seg;
  };
  const std::size_t n = ch.lines * ch.len;
  std::vector<std::size_t> row_ptr(n + 1, 0), col;
  std::vector<double> val;
  col.reserve(3 * n);
  val.reserve(3 * n);
  const auto put = [&](std::size_t c, double v) {
    col.push_back(c);
    val.push_back(v);
  };
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t p = r % ch.len;
    const double lo = p > 0 ? element(p - 1) : 0.0;
    const double hi = p + 1 < ch.len ? element(p) : 0.0;
    if (p > 0) put(r - 1, -lo);
    put(r, t[0] * detail::kGminFloor + (p == 0 ? t[2] : 0.0) + lo + hi);
    if (p + 1 < ch.len) put(r + 1, -hi);
    row_ptr[r + 1] = col.size();
  }
  return SparseMatrix(n, n, std::move(row_ptr), std::move(col),
                      std::move(val));
}

SparseMatrix BusStateSpace::c(const BusTheta& t) const {
  const Chain ch(topology);
  const std::size_t n = ch.lines * ch.len;
  std::vector<std::size_t> row_ptr(n + 1), col(n);
  std::iota(row_ptr.begin(), row_ptr.end(), 0);
  std::iota(col.begin(), col.end(), 0);
  std::vector<double> val(n, 0.0);
  for (std::size_t k = 0; k < ch.lines; ++k) {
    const double s = std::sin(std::numbers::pi * static_cast<double>(k) /
                              (2.0 * static_cast<double>(ch.lines)));
    const double ladder_c = t[3] * ch.c_seg + t[4] * (4.0 * s * s) * ch.cc_seg;
    std::fill(val.begin() + k * ch.len + ch.ladder,
              val.begin() + (k + 1) * ch.len - 1, ladder_c);
    val[(k + 1) * ch.len - 1] = t[5];
  }
  return SparseMatrix(n, n, std::move(row_ptr), std::move(col),
                      std::move(val));
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
  return BusStateSpace{topology};
}

StateSpace bare_bus_ports(const BusStateSpace& bare) {
  const std::size_t nl = static_cast<std::size_t>(bare.topology.lines);
  const BusTheta theta = bus_theta({}, 0.0, 0.0);
  StateSpace ss;
  ss.g = bare.g(theta);
  ss.c = bare.c(theta);
  ss.nodes = ss.size = bare.size();
  const std::size_t n = static_cast<std::size_t>(ss.size);
  ss.b = MatrixD(n, 2 * nl);
  ss.input_names.resize(2 * nl);
  for (std::size_t l = 0; l < nl; ++l) {
    put_line_port(ss.b, l, bare, l, false);
    put_line_port(ss.b, nl + l, bare, l, true);
    ss.input_names[l] = "head" + std::to_string(l);
    ss.input_names[nl + l] = "far" + std::to_string(l);
  }
  ss.l = ss.b;
  ss.output_names = ss.input_names;
  return ss;
}

StateSpace terminate_bus(const BusStateSpace& bare,
                         const circuit::BusDrive& drive) {
  CNTI_EXPECTS(drive.driver_ohm > 0, "bus ROM: driver resistance must be > 0");
  CNTI_EXPECTS(drive.receiver_load_f >= 0, "bus ROM: load must be >= 0");
  const int agg = resolve_aggressor(bare.topology, drive);
  const std::size_t nl = static_cast<std::size_t>(bare.topology.lines);
  StateSpace ss;
  const BusTheta theta =
      bus_theta({}, 1.0 / drive.driver_ohm, drive.receiver_load_f);
  ss.g = bare.g(theta);
  ss.c = bare.c(theta);
  ss.nodes = ss.size = bare.size();
  const std::size_t n = static_cast<std::size_t>(ss.size);
  ss.b = MatrixD(n, 1);
  put_line_port(ss.b, 0, bare, static_cast<std::size_t>(agg), false);
  ss.input_names.push_back("head" + std::to_string(agg));
  ss.l = MatrixD(n, nl);
  for (std::size_t l = 0; l < nl; ++l) {
    put_line_port(ss.l, l, bare, l, true);
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

  // The same scan as analyze_bus_crosstalk, so the KPIs compare
  // field for field.
  BusCrosstalkResult out =
      circuit::scan_bus_noise(tr.time, tr.outputs, aggressor, sc.vdd_v);
  out.unknowns = driven.order();
  return out;
}

}  // namespace cnti::rom
