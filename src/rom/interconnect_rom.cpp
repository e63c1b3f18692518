#include "rom/interconnect_rom.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
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

  // The one stamp formula, per chain position p; g()/c() write it
  // mode-major into CSR and the per-drive mode reduction reads it
  // position-major.

  /// The conductance linking positions p and p + 1 (G(p, p + 1) = -link):
  /// a contact resistor (or the far stub) at either end, a segment between.
  double link(const BusTheta& t, std::size_t p) const {
    return p + 1 < ladder || p + 2 == len ? t[0] * g_end : t[1] * g_seg;
  }
  /// G(p, p): the g_min floor, the driver at the head, both links.
  double g_diag(const BusTheta& t, std::size_t p) const {
    return t[0] * detail::kGminFloor + (p == 0 ? t[2] : 0.0) +
           (p > 0 ? link(t, p - 1) : 0.0) + (p + 1 < len ? link(t, p) : 0.0);
  }
  /// Mode k's ladder capacitance: the segment's plus
  /// lambda_k = 4 sin^2(pi k / 2N) times the coupling's.
  double ladder_c(const BusTheta& t, std::size_t k) const {
    const double s = std::sin(std::numbers::pi * static_cast<double>(k) /
                              (2.0 * static_cast<double>(lines)));
    return t[3] * c_seg + t[4] * (4.0 * s * s) * cc_seg;
  }
  /// C(p, p) of a mode whose ladder capacitance is `ladder_cap`: none on
  /// the head or contact, the receiver load on the far end (C is
  /// diagonal).
  double c_diag(const BusTheta& t, std::size_t p, double ladder_cap) const {
    return p < ladder ? 0.0 : p + 1 == len ? t[5] : ladder_cap;
  }

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

/// out[k] = sum_p a[p * nm + k] * b[p * nm + k]: the dot product within
/// each mode of two position-major vectors of n entries.
void mode_dots(const double* __restrict__ a, const double* __restrict__ b,
               double* __restrict__ out, std::size_t n, std::size_t nm) {
  std::fill(out, out + nm, 0.0);
  for (std::size_t i = 0; i < n; i += nm) {
    for (std::size_t k = 0; k < nm; ++k) out[k] += a[i + k] * b[i + k];
  }
}

/// y[p * nm + k] -= a[k] * x[p * nm + k]: one axpy within each mode.
void subtract_modes(const double* __restrict__ a, const double* __restrict__ x,
                    double* __restrict__ y, std::size_t n, std::size_t nm) {
  for (std::size_t i = 0; i < n; i += nm) {
    for (std::size_t k = 0; k < nm; ++k) y[i + k] -= a[k] * x[i + k];
  }
}

/// Stage 1 of reduce_driven_bus: PRIMA of every line mode on its own.
/// Mode k of the terminated bus is a one-input chain — a unit current into
/// its head, its far-end voltage out — that does not depend on the
/// aggressor. The N chains are reduced together in position-major order
/// (entry p * N + k is position p of mode k), so every inner loop runs
/// over the modes: one lockstep tridiagonal Cholesky of K = G + s0 C
/// (reciprocal pivots, as numerics::BandCholesky keeps them), kModeOrder
/// Krylov levels of one lockstep solve each, CGS2 within each mode with
/// PRIMA's relative deflation test, and each mode's V^T G V and V^T C V.
/// A mode that deflates stops growing, so its block comes out smaller.
/// Returns the terminated bus projected onto blkdiag(V_k): mode k's block
/// after mode k - 1's, each block exactly symmetric (upper triangle
/// computed, then mirrored), input rows Q(agg, k) V_k(head, :) and output
/// rows Q(l, k) V_k(far, :).
StateSpace reduce_line_modes(const BusStateSpace& bare, const BusTheta& t,
                             double s0, std::size_t agg) {
  static const obs::Counter factorizations =
      obs::counter("cnti.solver.factorizations");
  static const obs::Counter solves = obs::counter("cnti.solver.solves");
  static const obs::Gauge nnz_gauge = obs::gauge("cnti.solver.nnz_lu");
  static const obs::Histogram factor_hist =
      obs::histogram("cnti.solver.factor_ns");
  static const obs::Histogram solve_hist =
      obs::histogram("cnti.solver.solve_ns");
  const obs::ObsSpan modes_span("prima.modes", "rom");

  const Chain ch(bare.topology);
  const std::size_t nm = ch.lines, len = ch.len, n = nm * len;
  // The chain's G is the same in every mode: diag[p] and link[p] (0 past
  // the far end). C is diagonal and depends on the mode.
  std::vector<double> diag(len), link(len, 0.0), cap(n);
  for (std::size_t p = 0; p < len; ++p) {
    diag[p] = ch.g_diag(t, p);
    if (p + 1 < len) link[p] = ch.link(t, p);
  }
  for (std::size_t k = 0; k < nm; ++k) {
    const double ladder_cap = ch.ladder_c(t, k);
    for (std::size_t p = 0; p < len; ++p) {
      cap[p * nm + k] = ch.c_diag(t, p, ladder_cap);
    }
  }

  // K = L L^T, every chain at once: sub = L(p, p - 1), pivot = 1 / L(p, p).
  std::vector<double> sub(n, 0.0), pivot(n);
  {
    const obs::ObsSpan span("chain_cholesky.factorize", "solver",
                            factor_hist);
    for (std::size_t p = 0; p < len; ++p) {
      const std::size_t i = p * nm;
      bool positive = true;
      for (std::size_t k = 0; k < nm; ++k) {
        double d = diag[p] + s0 * cap[i + k];
        if (p > 0) {
          sub[i + k] = -link[p - 1] * pivot[i - nm + k];
          d -= sub[i + k] * sub[i + k];
        }
        positive = positive && d > 0.0;
        pivot[i + k] = 1.0 / std::sqrt(d);
      }
      if (!positive) {
        throw NumericalError(
            "bus ROM: line-mode pencil is not positive definite (pivot <= 0)");
      }
    }
    factorizations.add();
    nnz_gauge.set(static_cast<double>(2 * n));
  }
  // L L^T x = rhs in place, every chain at once.
  const auto solve = [&](std::vector<double>& x) {
    solves.add();
    const obs::ObsSpan span("chain_cholesky.solve", "solver", solve_hist);
    for (std::size_t k = 0; k < nm; ++k) x[k] *= pivot[k];
    for (std::size_t i = nm; i < n; i += nm) {
      for (std::size_t k = 0; k < nm; ++k) {
        x[i + k] = (x[i + k] - sub[i + k] * x[i - nm + k]) * pivot[i + k];
      }
    }
    for (std::size_t k = n - nm; k < n; ++k) x[k] *= pivot[k];
    for (std::size_t i = n - nm; i > 0;) {
      const std::size_t next = i;
      i -= nm;
      for (std::size_t k = 0; k < nm; ++k) {
        x[i + k] = (x[i + k] - sub[next + k] * x[next + k]) * pivot[i + k];
      }
    }
  };

  // Level 0 is K^{-1} e_head, level j K^{-1} C v_{j-1}, orthonormalized
  // within each mode. A deflated mode's slots stay zero, so its right-hand
  // sides and its later levels are zero too.
  std::vector<std::vector<double>> basis;  // [level][p * nm + k]
  std::vector<std::size_t> order(nm, 0);   // levels each mode kept
  std::vector<double> w(n), before(nm), after(nm), scale(nm);
  std::vector<std::vector<double>> h;
  for (int level = 0; level < kModeOrder; ++level) {
    if (basis.empty()) {
      std::fill(w.begin(), w.end(), 0.0);
      std::fill(w.begin(), w.begin() + static_cast<std::ptrdiff_t>(nm), 1.0);
    } else {
      for (std::size_t i = 0; i < n; ++i) w[i] = cap[i] * basis.back()[i];
    }
    solve(w);
    mode_dots(w.data(), w.data(), before.data(), n, nm);
    h.resize(basis.size(), std::vector<double>(nm));
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t j = 0; j < basis.size(); ++j) {
        mode_dots(basis[j].data(), w.data(), h[j].data(), n, nm);
      }
      for (std::size_t j = 0; j < basis.size(); ++j) {
        subtract_modes(h[j].data(), basis[j].data(), w.data(), n, nm);
      }
    }
    mode_dots(w.data(), w.data(), after.data(), n, nm);
    bool grew = false;
    for (std::size_t k = 0; k < nm; ++k) {
      const double norm = std::sqrt(after[k]);
      const bool kept =
          norm > PrimaOptions{}.deflation_tol * std::sqrt(before[k]);
      scale[k] = kept ? 1.0 / norm : 0.0;
      order[k] += kept ? 1 : 0;
      grew = grew || kept;
    }
    if (!grew) break;
    std::vector<double>& v = basis.emplace_back(n);
    for (std::size_t i = 0; i < n; i += nm) {
      for (std::size_t k = 0; k < nm; ++k) v[i + k] = w[i + k] * scale[k];
    }
  }

  // Each mode's V^T G V and V^T C V, upper triangle only:
  // entry (i, j), i <= j, of mode k at [(i * m + j) * nm + k].
  const std::size_t m = basis.size();
  std::vector<double> gr(m * m * nm), cr(m * m * nm), gv(n), cv(n);
  for (std::size_t j = 0; j < m; ++j) {
    const std::vector<double>& vj = basis[j];
    for (std::size_t p = 0; p < len; ++p) {
      const std::size_t i = p * nm;
      const std::size_t lo = p > 0 ? i - nm : i;
      const std::size_t hi = p + 1 < len ? i + nm : i;
      const double g_lo = p > 0 ? link[p - 1] : 0.0;
      for (std::size_t k = 0; k < nm; ++k) {
        gv[i + k] = diag[p] * vj[i + k] - g_lo * vj[lo + k] -
                    link[p] * vj[hi + k];
      }
    }
    for (std::size_t r = 0; r < n; ++r) cv[r] = cap[r] * vj[r];
    for (std::size_t i = 0; i <= j; ++i) {
      const std::size_t at = (i * m + j) * nm;
      mode_dots(basis[i].data(), gv.data(), &gr[at], n, nm);
      mode_dots(basis[i].data(), cv.data(), &cr[at], n, nm);
    }
  }

  // The block-diagonal system, mode k's order[k] states after mode
  // k - 1's; line l's head (far end) is Q(l, k) times the mode's head (far
  // end) row of V_k.
  const std::size_t n2 = std::accumulate(order.begin(), order.end(),
                                         std::size_t{0});
  StateSpace ss;
  ss.nodes = ss.size = static_cast<int>(n2);
  ss.b = MatrixD(n2, 1);
  ss.l = MatrixD(n2, nm);
  std::vector<std::size_t> row_ptr{0}, col;
  std::vector<double> g_val, c_val, q(nm);
  std::size_t off = 0;
  for (std::size_t k = 0; k < nm; ++k) {
    for (std::size_t l = 0; l < nm; ++l) q[l] = line_mode(nm, l, k);
    for (std::size_t i = 0; i < order[k]; ++i) {
      for (std::size_t j = 0; j < order[k]; ++j) {
        const std::size_t at =
            (std::min(i, j) * m + std::max(i, j)) * nm + k;
        col.push_back(off + j);
        g_val.push_back(gr[at]);
        c_val.push_back(cr[at]);
      }
      row_ptr.push_back(col.size());
      ss.b(off + i, 0) = q[agg] * basis[i][k];
      for (std::size_t l = 0; l < nm; ++l) {
        ss.l(off + i, l) = q[l] * basis[i][n - nm + k];
      }
    }
    off += order[k];
  }
  ss.g = SparseMatrix(n2, n2, row_ptr, col, std::move(g_val));
  ss.c = SparseMatrix(n2, n2, std::move(row_ptr), std::move(col),
                      std::move(c_val));
  ss.input_names.push_back("head" + std::to_string(agg));
  for (std::size_t l = 0; l < nm; ++l) {
    ss.output_names.push_back("far" + std::to_string(l));
  }
  return ss;
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
    if (p > 0) put(r - 1, -ch.link(t, p - 1));
    put(r, ch.g_diag(t, p));
    if (p + 1 < ch.len) put(r + 1, -ch.link(t, p));
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
  std::vector<double> val(n);
  for (std::size_t k = 0; k < ch.lines; ++k) {
    const double ladder_cap = ch.ladder_c(t, k);
    for (std::size_t p = 0; p < ch.len; ++p) {
      val[k * ch.len + p] = ch.c_diag(t, p, ladder_cap);
    }
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
  CNTI_EXPECTS(drive.driver_ohm > 0, "bus ROM: driver resistance must be > 0");
  CNTI_EXPECTS(drive.receiver_load_f >= 0, "bus ROM: load must be >= 0");
  const int agg = resolve_aggressor(bare.topology, drive);
  PrimaOptions opt;
  opt.order = kDrivenBusOrder;
  opt.expansion_rad_per_s =
      20.0 / circuit::bus_settle_time_s(bare.topology, drive);
  const detail::ReductionScope scope;
  const ReducedModel rm = detail::prima_krylov(
      reduce_line_modes(
          bare, bus_theta({}, 1.0 / drive.driver_ohm, drive.receiver_load_f),
          opt.expansion_rad_per_s, static_cast<std::size_t>(agg)),
      opt);
  return ReducedModel(rm.gr(), rm.cr(), rm.br(), rm.lr(), rm.input_names(),
                      rm.output_names(), bare.size());
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
