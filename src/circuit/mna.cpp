#include "circuit/mna.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>

#include "numerics/ordering.hpp"
#include "numerics/sparse.hpp"
#include "numerics/sparse_lu.hpp"

namespace cnti::circuit {

namespace {

using numerics::CsrAssembler;
using numerics::LuFactorization;
using numerics::MatrixD;
using numerics::SparseLu;

/// Always-on conductance from every node to ground; keeps matrices
/// non-singular with floating gates/capacitive nodes.
constexpr double kGminFloor = 1e-12;

/// Linearized MOSFET at an operating point: channel current drain->source
/// and its derivatives w.r.t. the three terminal voltages.
struct MosLin {
  double ids = 0.0;
  double d_vd = 0.0;
  double d_vg = 0.0;
  double d_vs = 0.0;
};

/// Square-law NMOS with vds >= 0 (caller handles swapping/mirroring):
/// returns {ids, gm, gds}.
struct SquareLaw {
  double ids = 0.0, gm = 0.0, gds = 0.0;
};

SquareLaw nmos_square_law(double vgs, double vds, double vt, double beta,
                          double lambda) {
  SquareLaw out;
  const double vov = vgs - vt;
  if (vov <= 0.0) {
    return out;  // cutoff (gmin floor supplies leakage conductance)
  }
  const double clm = 1.0 + lambda * vds;
  if (vds < vov) {  // triode
    out.ids = beta * (vov * vds - 0.5 * vds * vds) * clm;
    out.gm = beta * vds * clm;
    out.gds = beta * ((vov - vds) * clm +
                      lambda * (vov * vds - 0.5 * vds * vds));
  } else {  // saturation
    out.ids = 0.5 * beta * vov * vov * clm;
    out.gm = beta * vov * clm;
    out.gds = 0.5 * beta * vov * vov * lambda;
  }
  return out;
}

MosLin eval_mosfet(const MosfetParams& p, double vd, double vg, double vs) {
  // PMOS mirrors to NMOS in negated coordinates:
  // ids_p(vd,vg,vs) = -ids_n(-vd,-vg,-vs) with vt_n = |vt_p|; by the chain
  // rule the derivatives transfer with unchanged sign.
  if (p.is_pmos) {
    MosfetParams n = p;
    n.is_pmos = false;
    n.vt_v = std::abs(p.vt_v);
    const MosLin m = eval_mosfet(n, -vd, -vg, -vs);
    return {-m.ids, m.d_vd, m.d_vg, m.d_vs};
  }
  // Symmetric device: swap drain/source when vds < 0.
  if (vd < vs) {
    const MosLin m = eval_mosfet(p, vs, vg, vd);
    return {-m.ids, -m.d_vs, -m.d_vg, -m.d_vd};
  }
  const SquareLaw sq = nmos_square_law(vg - vs, vd - vs, p.vt_v, p.beta(),
                                       p.lambda_per_v);
  return {sq.ids, sq.gds, sq.gm, -(sq.gm + sq.gds)};
}

/// Index map: unknowns are node voltages 1..N, then vsource branch
/// currents, then inductor branch currents. A circuit without MOSFETs is
/// linear: its matrix does not depend on the solution.
struct Layout {
  int nodes = 0;
  int vsrc_offset = 0;
  int ind_offset = 0;
  int size = 0;
  bool linear = false;

  explicit Layout(const Circuit& ckt) {
    linear = ckt.mosfets().empty();
    nodes = ckt.node_count();
    vsrc_offset = nodes;
    ind_offset = vsrc_offset + static_cast<int>(ckt.vsources().size());
    size = ind_offset + static_cast<int>(ckt.inductors().size());
  }

  /// Row/column of a node voltage, or -1 for ground.
  static int nv(NodeId n) { return n - 1; }
};

/// Dense linear backend: stamps into a MatrixD and factorizes it from
/// scratch (the historical engine; kept as the sparse path's oracle).
class DenseBackend {
 public:
  explicit DenseBackend(int size) : n_(static_cast<std::size_t>(size)) {}

  void begin() { a_ = MatrixD(n_, n_); }
  void add(int r, int c, double v) {
    a_(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += v;
  }
  void end() {}

  bool factored() const { return lu_.has_value(); }
  void factor() { lu_.emplace(std::move(a_)); }
  std::vector<double> solve(const std::vector<double>& b) const {
    return lu_->solve(b);
  }

 private:
  std::size_t n_;
  MatrixD a_;
  std::optional<LuFactorization<double>> lu_;
};

/// Sparse linear backend: the stamp stream freezes a CSR pattern on the
/// first assembly (stamp-slot replay afterwards) and the SparseLu reuses
/// its symbolic analysis across every subsequent factorization. An
/// approximate-minimum-degree column pre-permutation is computed from the
/// frozen pattern before the first factorization — once per topology, like
/// the symbolic analysis it feeds.
class SparseBackend {
 public:
  explicit SparseBackend(int size)
      : assembler_(static_cast<std::size_t>(size)) {}

  void begin() { assembler_.begin(); }
  void add(int r, int c, double v) {
    assembler_.add(static_cast<std::size_t>(r), static_cast<std::size_t>(c),
                   v);
  }
  void end() { assembler_.end(); }

  bool factored() const { return lu_.analyzed(); }
  void factor() {
    if (!ordered_) {
      // The pattern is frozen by the first end(); the stamp stream cannot
      // diverge afterwards, so the ordering holds for the backend's life.
      lu_.set_column_ordering(numerics::amd_ordering(assembler_.matrix()));
      ordered_ = true;
    }
    lu_.factorize(assembler_.matrix());
  }
  std::vector<double> solve(const std::vector<double>& b) const {
    return lu_.solve(b);
  }

 private:
  CsrAssembler assembler_;
  SparseLu lu_;
  bool ordered_ = false;
};

/// Backend-generic stamp helpers that skip the ground row/column.
template <typename Backend>
void stamp_g(Backend& a, NodeId i, NodeId j, double g) {
  const int ri = Layout::nv(i), rj = Layout::nv(j);
  if (ri >= 0) a.add(ri, ri, g);
  if (rj >= 0) a.add(rj, rj, g);
  if (ri >= 0 && rj >= 0) {
    a.add(ri, rj, -g);
    a.add(rj, ri, -g);
  }
}

/// Stamp sink that drops matrix entries: a factored linear system only
/// needs its right-hand side re-assembled.
struct DiscardMatrix {
  void begin() {}
  void add(int, int, double) {}
  void end() {}
};

template <typename Backend>
void stamp_entry(Backend& a, int row, int col, double v) {
  if (row >= 0 && col >= 0) a.add(row, col, v);
}

void stamp_rhs(std::vector<double>& b, int row, double v) {
  if (row >= 0) b[static_cast<std::size_t>(row)] += v;
}

/// kAuto's crossover in MNA unknowns (node voltages + source/inductor
/// branch currents): below it the dense engine wins on constant factors.
constexpr int kSparseThreshold = 192;

/// Resolves kAuto against the system size.
bool use_sparse(const MnaOptions& mna, int size) {
  switch (mna.solver) {
    case SolverKind::kDense:
      return false;
    case SolverKind::kSparse:
      return true;
    case SolverKind::kAuto:
      return size >= kSparseThreshold;
  }
  return false;
}

/// Shared nonlinear-system assembly for DC and one transient step.
class Assembler {
 public:
  Assembler(const Circuit& ckt, const Layout& layout)
      : ckt_(ckt), layout_(layout) {}

  /// Assemble Jacobian and rhs at candidate solution x into `backend`.
  /// `companion` adds reactive-element companion stamps (transient only).
  /// The stamp stream below is a fixed sequence for a fixed circuit — the
  /// sparse backend's pattern-frozen replay depends on that.
  template <typename Backend, typename CompanionFn>
  void assemble(const std::vector<double>& x, double time_s, double gmin,
                Backend& a, std::vector<double>& b,
                const CompanionFn& companion) const {
    a.begin();
    b.assign(static_cast<std::size_t>(layout_.size), 0.0);

    for (int n = 1; n <= layout_.nodes; ++n) {
      a.add(n - 1, n - 1, gmin + kGminFloor);
    }
    for (const auto& r : ckt_.resistors()) {
      stamp_g(a, r.a, r.b, 1.0 / r.ohms);
    }
    for (std::size_t k = 0; k < ckt_.vsources().size(); ++k) {
      const auto& v = ckt_.vsources()[k];
      const int br = layout_.vsrc_offset + static_cast<int>(k);
      stamp_entry(a, Layout::nv(v.plus), br, 1.0);
      stamp_entry(a, Layout::nv(v.minus), br, -1.0);
      stamp_entry(a, br, Layout::nv(v.plus), 1.0);
      stamp_entry(a, br, Layout::nv(v.minus), -1.0);
      stamp_rhs(b, br, waveform_value(v.wave, time_s));
    }
    for (const auto& i : ckt_.isources()) {
      const double val = waveform_value(i.wave, time_s);
      stamp_rhs(b, Layout::nv(i.plus), -val);
      stamp_rhs(b, Layout::nv(i.minus), val);
    }
    for (const auto& m : ckt_.mosfets()) {
      const double vd = voltage(x, m.drain);
      const double vg = voltage(x, m.gate);
      const double vs = voltage(x, m.source);
      const MosLin lin = eval_mosfet(m.params, vd, vg, vs);
      // Current enters drain, leaves source. Norton form:
      // i(v) ~ i0 + sum dv_k * (v_k - v_k0). All four conductance stamps
      // are issued even in cutoff (value 0) so the pattern is region-free.
      const double i0 =
          lin.ids - lin.d_vd * vd - lin.d_vg * vg - lin.d_vs * vs;
      const int rd = Layout::nv(m.drain), rs = Layout::nv(m.source);
      stamp_entry(a, rd, Layout::nv(m.drain), lin.d_vd);
      stamp_entry(a, rd, Layout::nv(m.gate), lin.d_vg);
      stamp_entry(a, rd, Layout::nv(m.source), lin.d_vs);
      stamp_entry(a, rs, Layout::nv(m.drain), -lin.d_vd);
      stamp_entry(a, rs, Layout::nv(m.gate), -lin.d_vg);
      stamp_entry(a, rs, Layout::nv(m.source), -lin.d_vs);
      stamp_rhs(b, rd, -i0);
      stamp_rhs(b, rs, i0);
    }
    companion(a, b);
    a.end();
  }

  static double voltage(const std::vector<double>& x, NodeId n) {
    return n == 0 ? 0.0 : x[static_cast<std::size_t>(n - 1)];
  }

  /// Newton iteration until the update norm drops below tolerance. The
  /// backend persists across iterations (and across calls for one
  /// simulation), so symbolic reuse carries over timesteps.
  ///
  /// A linear circuit takes one solve. Its matrix depends only on the
  /// circuit, dt and gmin (always 0: it skips the DC ladder), all fixed
  /// for one backend's life, so the factors of its first call serve every
  /// later one and only the right-hand side is re-assembled. A confirming
  /// second iteration would reproduce the same x bit for bit.
  template <typename Backend, typename CompanionFn>
  std::vector<double> newton(Backend& backend, std::vector<double> x,
                             double time_s, double gmin, int max_iter,
                             double tol, const CompanionFn& companion,
                             int* iterations_out = nullptr) const {
    std::vector<double> b;
    if (layout_.linear) {
      if (backend.factored()) {
        DiscardMatrix rhs_only;
        assemble(x, time_s, gmin, rhs_only, b, companion);
      } else {
        assemble(x, time_s, gmin, backend, b, companion);
        backend.factor();
      }
      if (iterations_out) *iterations_out = 1;
      return backend.solve(b);
    }
    for (int it = 0; it < max_iter; ++it) {
      assemble(x, time_s, gmin, backend, b, companion);
      backend.factor();
      const std::vector<double> x_new = backend.solve(b);
      double delta = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        delta = std::max(delta, std::abs(x_new[i] - x[i]));
      }
      x = x_new;
      if (delta < tol) {
        if (iterations_out) *iterations_out = it + 1;
        return x;
      }
    }
    throw NumericalError("MNA Newton iteration did not converge");
  }

 private:
  const Circuit& ckt_;
  const Layout& layout_;
};

template <typename Backend>
DcResult solve_dc_with(Backend& backend, const Circuit& ckt,
                       const Layout& layout, double time_s) {
  const Assembler assembler(ckt, layout);

  // DC: capacitors open; inductors are 0 V branches so their currents are
  // well-defined. Stamp inductors like voltage sources with value 0.
  const auto companion = [&](auto& a, std::vector<double>& b) {
    (void)b;
    for (std::size_t k = 0; k < ckt.inductors().size(); ++k) {
      const auto& l = ckt.inductors()[k];
      const int br = layout.ind_offset + static_cast<int>(k);
      stamp_entry(a, Layout::nv(l.a), br, 1.0);
      stamp_entry(a, Layout::nv(l.b), br, -1.0);
      stamp_entry(a, br, Layout::nv(l.a), 1.0);
      stamp_entry(a, br, Layout::nv(l.b), -1.0);
    }
  };

  // g_min stepping: solve with a strong shunt first, then relax. The
  // previous solution seeds the next Newton run. A linear circuit has
  // nothing to continue through: it runs the last level only.
  static constexpr double kGminLadder[] = {1e-3, 1e-6, 1e-9, 0.0};
  const std::span<const double> ladder =
      layout.linear ? std::span(kGminLadder).last(1) : std::span(kGminLadder);
  std::vector<double> x(static_cast<std::size_t>(layout.size), 0.0);
  int total_iters = 0;
  for (const double gmin : ladder) {
    int iters = 0;
    x = assembler.newton(backend, std::move(x), time_s, gmin, 200, 1e-12,
                         companion, &iters);
    total_iters += iters;
  }

  DcResult out;
  out.newton_iterations = total_iters;
  out.node_voltages.assign(static_cast<std::size_t>(layout.nodes) + 1, 0.0);
  for (int n = 1; n <= layout.nodes; ++n) {
    out.node_voltages[static_cast<std::size_t>(n)] =
        x[static_cast<std::size_t>(n - 1)];
  }
  for (std::size_t k = 0; k < ckt.vsources().size(); ++k) {
    out.vsource_currents.push_back(
        x[static_cast<std::size_t>(layout.vsrc_offset) + k]);
  }
  for (std::size_t k = 0; k < ckt.inductors().size(); ++k) {
    out.inductor_currents.push_back(
        x[static_cast<std::size_t>(layout.ind_offset) + k]);
  }
  return out;
}

template <typename Backend>
TransientResult simulate_transient_with(Backend& backend, const Circuit& ckt,
                                        const Layout& layout,
                                        const TransientOptions& opt,
                                        const std::vector<NodeId>& probes) {
  const Assembler assembler(ckt, layout);
  const double dt = opt.dt_s;

  // Initial condition: DC operating point at t = 0 (its companion pattern
  // differs from the transient one, so it runs on its own backend).
  const DcResult dc = solve_dc(ckt, 0.0, opt.mna);
  std::vector<double> x(static_cast<std::size_t>(layout.size), 0.0);
  for (int n = 1; n <= layout.nodes; ++n) {
    x[static_cast<std::size_t>(n - 1)] =
        dc.node_voltages[static_cast<std::size_t>(n)];
  }
  for (std::size_t k = 0; k < ckt.inductors().size(); ++k) {
    x[static_cast<std::size_t>(layout.ind_offset) + k] =
        dc.inductor_currents[k];
  }

  // Reactive-element history.
  std::vector<double> cap_v_prev(ckt.capacitors().size(), 0.0);
  std::vector<double> cap_i_prev(ckt.capacitors().size(), 0.0);
  std::vector<double> ind_i_prev(ckt.inductors().size(), 0.0);
  std::vector<double> ind_v_prev(ckt.inductors().size(), 0.0);
  for (std::size_t k = 0; k < ckt.capacitors().size(); ++k) {
    const auto& c = ckt.capacitors()[k];
    cap_v_prev[k] = Assembler::voltage(x, c.a) - Assembler::voltage(x, c.b);
    cap_i_prev[k] = 0.0;  // DC steady state
  }
  for (std::size_t k = 0; k < ckt.inductors().size(); ++k) {
    ind_i_prev[k] = dc.inductor_currents[k];
    ind_v_prev[k] = 0.0;
  }

  const auto companion = [&](auto& a, std::vector<double>& b) {
    for (std::size_t k = 0; k < ckt.capacitors().size(); ++k) {
      const auto& c = ckt.capacitors()[k];
      const double geq = 2.0 * c.farads / dt;
      const double ieq = geq * cap_v_prev[k] + cap_i_prev[k];
      stamp_g(a, c.a, c.b, geq);
      stamp_rhs(b, Layout::nv(c.a), ieq);
      stamp_rhs(b, Layout::nv(c.b), -ieq);
    }
    for (std::size_t k = 0; k < ckt.inductors().size(); ++k) {
      const auto& l = ckt.inductors()[k];
      const int br = layout.ind_offset + static_cast<int>(k);
      const double req = 2.0 * l.henries / dt;
      const double veq = -req * ind_i_prev[k] - ind_v_prev[k];
      // Branch row: v_a - v_b - req * i = veq.
      stamp_entry(a, Layout::nv(l.a), br, 1.0);
      stamp_entry(a, Layout::nv(l.b), br, -1.0);
      stamp_entry(a, br, Layout::nv(l.a), 1.0);
      stamp_entry(a, br, Layout::nv(l.b), -1.0);
      stamp_entry(a, br, br, -req);
      stamp_rhs(b, br, veq);
    }
  };

  // Tolerate floating-point slop in t_stop/dt so exact divisions do not
  // gain a spurious extra step.
  const auto steps = static_cast<std::size_t>(
      std::ceil(opt.t_stop_s / dt - 1e-9)) + 1;
  std::vector<double> time(steps);
  std::vector<std::vector<double>> volt(probes.size(),
                                        std::vector<double>(steps, 0.0));
  const auto record = [&](std::size_t step, double t) {
    time[step] = t;
    for (std::size_t p = 0; p < probes.size(); ++p) {
      volt[p][step] = Assembler::voltage(x, probes[p]);
    }
  };
  record(0, 0.0);

  for (std::size_t step = 1; step < steps; ++step) {
    const double t = static_cast<double>(step) * dt;
    x = assembler.newton(backend, std::move(x), t, 0.0,
                         opt.max_newton_iterations, opt.newton_tolerance,
                         companion);
    // Update element history.
    for (std::size_t k = 0; k < ckt.capacitors().size(); ++k) {
      const auto& c = ckt.capacitors()[k];
      const double v =
          Assembler::voltage(x, c.a) - Assembler::voltage(x, c.b);
      const double geq = 2.0 * c.farads / dt;
      const double i = geq * (v - cap_v_prev[k]) - cap_i_prev[k];
      cap_v_prev[k] = v;
      cap_i_prev[k] = i;
    }
    for (std::size_t k = 0; k < ckt.inductors().size(); ++k) {
      const auto& l = ckt.inductors()[k];
      ind_i_prev[k] = x[static_cast<std::size_t>(layout.ind_offset) + k];
      ind_v_prev[k] =
          Assembler::voltage(x, l.a) - Assembler::voltage(x, l.b);
    }
    record(step, t);
  }

  return TransientResult(std::move(time), probes, std::move(volt));
}

}  // namespace

DcResult solve_dc(const Circuit& ckt, double time_s, const MnaOptions& mna) {
  const Layout layout(ckt);
  if (use_sparse(mna, layout.size)) {
    SparseBackend backend(layout.size);
    return solve_dc_with(backend, ckt, layout, time_s);
  }
  DenseBackend backend(layout.size);
  return solve_dc_with(backend, ckt, layout, time_s);
}

TransientResult simulate_transient(const Circuit& ckt,
                                   const TransientOptions& opt,
                                   const std::vector<NodeId>& probes) {
  CNTI_EXPECTS(opt.t_stop_s > 0, "t_stop must be positive");
  CNTI_EXPECTS(opt.dt_s > 0 && opt.dt_s < opt.t_stop_s,
               "dt must be positive and below t_stop");
  for (const NodeId n : probes) {
    CNTI_EXPECTS(n >= 0 && n <= ckt.node_count(), "probe node out of range");
  }
  const Layout layout(ckt);
  if (use_sparse(opt.mna, layout.size)) {
    SparseBackend backend(layout.size);
    return simulate_transient_with(backend, ckt, layout, opt, probes);
  }
  DenseBackend backend(layout.size);
  return simulate_transient_with(backend, ckt, layout, opt, probes);
}

}  // namespace cnti::circuit
