// Tests for the PRIMA model-order-reduction subsystem: state-space
// extraction contracts, exactness on systems the reduced order can
// represent fully, differential cross-validation against ac_analysis
// (frequency domain) and the sparse-MNA transient engine (time domain),
// passivity property tests (Cr = Cr^T >= 0 and Gr + Gr^T >= 0, which put
// the reduced poles in the left half-plane), the choice between the banded
// Cholesky and the sparse LU for the Krylov solves, port-termination
// folding, and deterministic parallel scenario sweeps over a shared reduced
// model. The transfer, moment and passivity oracles are test-local.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "circuit/ac.hpp"
#include "circuit/builders.hpp"
#include "circuit/crosstalk.hpp"
#include "circuit/mna.hpp"
#include "core/mwcnt_line.hpp"
#include "core/sweep_engine.hpp"
#include "numerics/interp.hpp"
#include "numerics/matrix.hpp"
#include "numerics/solvers.hpp"
#include "numerics/sparse.hpp"
#include "numerics/sparse_lu.hpp"
#include "obs/obs.hpp"
#include "rom/detail.hpp"
#include "rom/interconnect_rom.hpp"
#include "rom/parametrized_rom.hpp"
#include "rom/prima.hpp"
#include "scenario/engine.hpp"
#include "scenario/statistical.hpp"

namespace cir = cnti::circuit;
namespace cc = cnti::core;
namespace obs = cnti::obs;
namespace rom = cnti::rom;
namespace scenario = cnti::scenario;

namespace {

// --- Shared fixtures -----------------------------------------------------

/// vsource -> R -> C lowpass; full MNA order 3 (2 nodes + 1 branch).
cir::Circuit rc_lowpass(cir::NodeId* out) {
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  *out = ckt.node("out");
  ckt.add_vsource("vin", in, 0, cir::DcWave{0.0});
  ckt.add_resistor("r1", in, *out, 1e3);
  ckt.add_capacitor("c1", *out, 0, 1e-12);
  return ckt;
}

/// Driver + distributed MWCNT line + load, the golden RC line of the AC
/// suite.
cir::Circuit mwcnt_line_circuit(double nc, cir::NodeId* out) {
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  *out = ckt.node("out");
  ckt.add_vsource("vin", in, 0, cir::DcWave{0.0});
  cir::add_distributed_line(ckt, "ln", in, *out,
                            cc::make_paper_mwcnt(10, nc, 100e3).rlc(),
                            200e-6, 12);
  ckt.add_capacitor("cl", *out, 0, 1e-15);
  return ckt;
}

rom::ReducedModel reduce_observing(const cir::Circuit& ckt, cir::NodeId out,
                                   int order) {
  rom::StateSpaceOptions opt;
  opt.observe = {out};
  return rom::prima_reduce(rom::extract_state_space(ckt, opt),
                           {.order = order});
}

/// H(j 2 pi f) of one input/output pair of a reduced model over a grid:
/// one complex solve of (Gr + j w Cr) x = Br[:, input] per frequency, in
/// the AcResult form of cir::ac_analysis.
cir::AcResult rom_transfer(const rom::ReducedModel& m,
                           const std::vector<double>& freqs_hz, int output,
                           int input) {
  using C = std::complex<double>;
  const std::size_t q = static_cast<std::size_t>(m.order());
  const auto in = static_cast<std::size_t>(input);
  const auto out = static_cast<std::size_t>(output);
  cir::AcResult res;
  res.frequency_hz = freqs_hz;
  for (const double f : freqs_hz) {
    cnti::numerics::MatrixC a(q, q);
    std::vector<C> rhs(q);
    for (std::size_t i = 0; i < q; ++i) {
      for (std::size_t j = 0; j < q; ++j) {
        a(i, j) = C(m.gr()(i, j), 2.0 * M_PI * f * m.cr()(i, j));
      }
      rhs[i] = m.br()(i, in);
    }
    const auto x = cnti::numerics::LuFactorization<C>(a).solve(rhs);
    C y = 0.0;
    for (std::size_t i = 0; i < q; ++i) y += m.lr()(i, out) * x[i];
    res.transfer.push_back(y);
  }
  return res;
}

/// Transfer moments about s = 0 of input 0 -> output 0: H(s) = m0 + m1 s +
/// ..., m0 = Lr^T Gr^-1 Br and m1 = -Lr^T Gr^-1 Cr Gr^-1 Br.
struct Moments {
  double m0 = 0.0, m1 = 0.0;
  double elmore() const { return -m1 / m0; }
};

Moments first_moments(const rom::ReducedModel& m) {
  const cnti::numerics::LuFactorization<double> lu(m.gr());
  const std::size_t q = static_cast<std::size_t>(m.order());
  std::vector<double> b(q), l(q);
  for (std::size_t i = 0; i < q; ++i) {
    b[i] = m.br()(i, 0);
    l[i] = m.lr()(i, 0);
  }
  const std::vector<double> r0 = lu.solve(b);
  const std::vector<double> r1 = lu.solve(m.cr() * r0);
  Moments out;
  for (std::size_t i = 0; i < q; ++i) {
    out.m0 += l[i] * r0[i];
    out.m1 -= l[i] * r1[i];
  }
  return out;
}

/// The model with shunt port terminations folded into Gr/Cr.
rom::ReducedModel terminate(const rom::ReducedModel& m,
                            const std::vector<rom::PortTermination>& loads) {
  cnti::numerics::MatrixD g = m.gr(), c = m.cr();
  rom::detail::fold_terminations(g, c, m.br(), m.lr(), loads);
  return rom::ReducedModel(std::move(g), std::move(c), m.br(), m.lr(),
                           m.input_names(), m.output_names(), m.full_order());
}

/// True when s is symmetric and positive semidefinite up to a relative
/// tolerance: a diagonally pivoted Cholesky that stops once the largest
/// remaining diagonal is below tol * max|s|; the Schur complement left
/// then has to be below that level in every entry.
bool psd_within(cnti::numerics::MatrixD s, double tol) {
  const std::size_t n = s.rows();
  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      scale = std::max(scale, std::abs(s(i, j)));
    }
  }
  const double floor = tol * scale;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (std::abs(s(i, j) - s(j, i)) > floor) return false;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = k;
    for (std::size_t i = k + 1; i < n; ++i) {
      if (s(i, i) > s(p, p)) p = i;
    }
    if (s(p, p) <= floor) {
      for (std::size_t i = k; i < n; ++i) {
        for (std::size_t j = k; j < n; ++j) {
          if (std::abs(s(i, j)) > floor) return false;
        }
      }
      return true;
    }
    for (std::size_t i = 0; i < n; ++i) std::swap(s(i, k), s(i, p));
    for (std::size_t j = 0; j < n; ++j) std::swap(s(k, j), s(p, j));
    const double d = std::sqrt(s(k, k));
    for (std::size_t i = k + 1; i < n; ++i) s(i, k) /= d;
    for (std::size_t i = k + 1; i < n; ++i) {
      for (std::size_t j = k + 1; j <= i; ++j) {
        s(i, j) -= s(i, k) * s(j, k);
        s(j, i) = s(i, j);
      }
    }
  }
  return true;
}

/// PRIMA's passivity certificate, which puts every finite pole of the
/// model in the closed left half-plane: Cr = Cr^T >= 0 and Gr + Gr^T >= 0.
void expect_passive(const rom::ReducedModel& m) {
  EXPECT_TRUE(psd_within(m.cr(), 1e-12)) << "Cr";
  cnti::numerics::MatrixD g = m.gr();
  g += m.gr().transpose();
  EXPECT_TRUE(psd_within(std::move(g), 1e-12)) << "Gr + Gr^T";
}

double max_db_error(const cir::AcResult& a, const cir::AcResult& b,
                    double f_max_hz) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.frequency_hz.size(); ++i) {
    if (a.frequency_hz[i] > f_max_hz) break;
    worst = std::max(worst, std::abs(a.magnitude_db(i) - b.magnitude_db(i)));
  }
  return worst;
}

cir::BusTopology paper_bus(int lines, int segments) {
  cir::BusTopology t;
  t.line = cc::make_paper_mwcnt(10, 4.0, 20e3).rlc();
  t.coupling_cap_per_m = 30e-12;
  t.length_m = 100e-6;
  t.lines = lines;
  t.segments = segments;
  return t;
}

/// The full sparse-MNA reference transient of one bus drive.
cir::BusCrosstalkResult full_mna(const cir::BusTopology& topology,
                                 const cir::BusDrive& drive,
                                 int time_steps) {
  return cir::analyze_bus_crosstalk(cir::build_bus_netlist(topology),
                                    topology, drive, time_steps);
}

// --- State-space extraction contracts ------------------------------------

TEST(StateSpace, RejectsNonlinearAndDegenerateCircuits) {
  cir::Circuit mos;
  const auto d = mos.node("d");
  mos.add_vsource("v", d, 0, cir::DcWave{1.0});
  mos.add_mosfet("m1", d, mos.node("g"), 0, cir::MosfetParams{});
  EXPECT_THROW(rom::extract_state_space(mos), cnti::PreconditionError);

  cir::Circuit no_inputs;
  no_inputs.add_resistor("r", no_inputs.node("a"), 0, 1e3);
  EXPECT_THROW(rom::extract_state_space(no_inputs),
               cnti::PreconditionError);

  cir::NodeId out = 0;
  const auto ckt = rc_lowpass(&out);
  rom::StateSpaceOptions bad_port;
  bad_port.ports = {{"p", 99}};
  EXPECT_THROW(rom::extract_state_space(ckt, bad_port),
               cnti::PreconditionError);
}

TEST(StateSpace, ShapesNamesAndIndexLookup) {
  cir::NodeId out = 0;
  const auto ckt = rc_lowpass(&out);
  rom::StateSpaceOptions opt;
  opt.observe = {out};
  opt.ports = {{"load_port", out}};
  const auto ss = rom::extract_state_space(ckt, opt);
  EXPECT_EQ(ss.nodes, 2);
  EXPECT_EQ(ss.size, 3);  // 2 nodes + 1 vsource branch
  ASSERT_EQ(ss.inputs(), 2);   // vin + port
  ASSERT_EQ(ss.outputs(), 2);  // port + observed node
  EXPECT_EQ(ss.input_index("vin"), 0);
  EXPECT_EQ(ss.input_index("load_port"), 1);
  EXPECT_EQ(ss.output_index("load_port"), 0);
  EXPECT_EQ(ss.output_index("out"), 1);
  EXPECT_THROW(ss.input_index("nope"), cnti::PreconditionError);
  EXPECT_EQ(ss.g.rows(), 3u);
  EXPECT_EQ(ss.c.rows(), 3u);
  EXPECT_EQ(ss.b.rows(), 3u);
  EXPECT_EQ(ss.l.cols(), 2u);
}

TEST(StateSpace, PassiveStructure) {
  // G + G^T PSD and C = C^T PSD are what PRIMA's stability guarantee
  // rests on; probe both quadratic forms with a deterministic pseudo-
  // random vector sweep.
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  const auto out = ckt.node("out");
  ckt.add_vsource("vin", in, 0, cir::DcWave{0.0});
  ckt.add_resistor("r1", in, mid, 50.0);
  ckt.add_inductor("l1", mid, out, 1e-9);
  ckt.add_capacitor("c1", out, 0, 2e-12);
  ckt.add_capacitor("c2", mid, out, 1e-12);
  const auto ss = rom::extract_state_space(ckt);
  const std::size_t n = static_cast<std::size_t>(ss.size);
  unsigned state = 42u;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> x(n);
    for (auto& v : x) {
      state = state * 1664525u + 1013904223u;
      v = static_cast<double>(state >> 8) / (1u << 24) - 0.5;
    }
    const auto gx = ss.g * x;
    const auto cx = ss.c * x;
    double xgx = 0.0, xcx = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      xgx += x[i] * gx[i];
      xcx += x[i] * cx[i];
    }
    EXPECT_GE(xgx, -1e-15) << "G + G^T not PSD";
    EXPECT_GE(xcx, -1e-24) << "C not PSD";
    // C symmetry: compare against the transposed quadratic pairing on a
    // second vector.
    std::vector<double> y(n);
    for (auto& v : y) {
      state = state * 1664525u + 1013904223u;
      v = static_cast<double>(state >> 8) / (1u << 24) - 0.5;
    }
    const auto cy = ss.c * y;
    double xcy = 0.0, ycx = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      xcy += x[i] * cy[i];
      ycx += y[i] * cx[i];
    }
    EXPECT_NEAR(xcy, ycx, 1e-24);
  }
}

// --- Exactness at full order ---------------------------------------------

TEST(Prima, RcLowPassIsExactAtMatchingOrder) {
  cir::NodeId out = 0;
  const auto ckt = rc_lowpass(&out);
  const auto rm = reduce_observing(ckt, out, 3);
  EXPECT_LE(rm.order(), 3);
  EXPECT_EQ(rm.full_order(), 3);

  const auto freqs = cir::log_frequency_grid(1e6, 1e11, 10);
  const auto ref = cir::ac_analysis(ckt, "vin", out, freqs);
  const auto got = rom_transfer(rm, freqs, 0, 0);
  EXPECT_LT(max_db_error(ref, got, 1e11), 1e-9);

  // Moments: H(s) = 1/(1 + sRC) => m0 = 1, m1 = -RC, Elmore delay RC. The
  // engine-matching g_min floor shifts both by a ~2 R g_min = 2e-9
  // relative part.
  const Moments m = first_moments(rm);
  EXPECT_NEAR(m.m0, 1.0, 1e-8);
  EXPECT_NEAR(m.m1, -1e-9, 1e-17);
  EXPECT_NEAR(m.elmore(), 1e-9, 1e-15);
}

TEST(Prima, ElmoreDelayMatchesHandComputedLadderSum) {
  // 3-stage RC ladder behind a driver: Elmore = sum_i R_upstream,i * C_i.
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  ckt.add_vsource("vin", in, 0, cir::DcWave{0.0});
  const double r[3] = {100.0, 200.0, 400.0};
  const double c[3] = {1e-15, 2e-15, 0.5e-15};
  cir::NodeId prev = in;
  for (int s = 0; s < 3; ++s) {
    const std::string is = std::to_string(s);
    const auto n = ckt.node("n" + is);
    ckt.add_resistor("r" + is, prev, n, r[s]);
    ckt.add_capacitor("c" + is, n, 0, c[s]);
    prev = n;
  }
  double expected = 0.0;
  double r_up = 0.0;
  for (int s = 0; s < 3; ++s) {
    r_up += r[s];
    expected += r_up * c[s];
  }  // Elmore sum: R_upstream * C at every tap.
  const auto rm = reduce_observing(ckt, prev, 4);
  EXPECT_NEAR(first_moments(rm).elmore(), expected, 1e-6 * expected);
}

TEST(Prima, KrylovDeflationStopsAtFullOrder) {
  cir::NodeId out = 0;
  const auto ckt = rc_lowpass(&out);
  // Asking for order 16 on a full order 3 system must deflate, not pad.
  const auto rm = reduce_observing(ckt, out, 16);
  EXPECT_LE(rm.order(), 3);
  const auto freqs = cir::log_frequency_grid(1e6, 1e10, 5);
  const auto ref = cir::ac_analysis(ckt, "vin", out, freqs);
  EXPECT_LT(max_db_error(ref, rom_transfer(rm, freqs, 0, 0), 1e10), 1e-9);
}

// --- Factor choice: banded Cholesky vs sparse LU --------------------------

/// The cnti.solver.nnz_lu gauge after prima_reduce(ss) at DC, next to the
/// entries a sparse LU of K = G holds, with the factorization count it took.
struct FactorRecord {
  double gauge_nnz = 0.0;
  double lu_nnz = 0.0;
  std::uint64_t factorizations = 0;
};

FactorRecord reduce_and_record_factor(const rom::StateSpace& ss) {
  const obs::Counter factorizations =
      obs::counter("cnti.solver.factorizations");
  const std::uint64_t before = factorizations.value();
  (void)rom::prima_reduce(ss, {.order = 4});
  FactorRecord rec;
  rec.factorizations = factorizations.value() - before;
  rec.gauge_nnz = obs::gauge("cnti.solver.nnz_lu").value();
  cnti::numerics::SparseLu lu;
  lu.factorize(ss.g);
  rec.lu_nnz = static_cast<double>(lu.nnz_l() + lu.nnz_u());
  return rec;
}

/// RC ladder of `n` nodes driven by a port at its head; `wrap` adds a
/// resistor from the head to the tail, which makes the symmetric pencil
/// n - 1 wide.
rom::StateSpace rc_ladder_ports(int n, bool wrap) {
  cir::Circuit ckt;
  std::vector<cir::NodeId> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back(ckt.node("n" + std::to_string(i)));
    ckt.add_capacitor("c" + std::to_string(i), nodes.back(), 0, 1e-15);
    if (i > 0) {
      ckt.add_resistor("r" + std::to_string(i), nodes[nodes.size() - 2],
                       nodes.back(), 100.0);
    }
  }
  if (wrap) ckt.add_resistor("rwrap", nodes.front(), nodes.back(), 1e3);
  rom::StateSpaceOptions opt;
  opt.ports = {{"in", nodes.front()}};
  opt.observe = {nodes.back()};
  return rom::extract_state_space(ckt, opt);
}

TEST(Prima, NonSymmetricPencilReducesThroughSparseLu) {
  // The vsource branch row makes K non-symmetric: PRIMA must take the LU.
  cir::NodeId out = 0;
  const auto ckt = mwcnt_line_circuit(4.0, &out);
  rom::StateSpaceOptions opt;
  opt.observe = {out};
  const FactorRecord rec =
      reduce_and_record_factor(rom::extract_state_space(ckt, opt));
  EXPECT_EQ(rec.factorizations, 1u);
  EXPECT_EQ(rec.gauge_nnz, rec.lu_nnz);
}

TEST(Prima, SymmetricPencilPicksTheFactorByHalfBandwidth) {
  const int n = static_cast<int>(rom::kBandMaxHalfWidth) + 8;
  // Nearest-neighbour ladder: half-bandwidth 1, so the band holds 2 n.
  const FactorRecord narrow =
      reduce_and_record_factor(rc_ladder_ports(n, false));
  EXPECT_EQ(narrow.factorizations, 1u);
  EXPECT_EQ(narrow.gauge_nnz, 2.0 * n);
  // The head-to-tail resistor makes it n - 1 > kBandMaxHalfWidth wide.
  const FactorRecord wide = reduce_and_record_factor(rc_ladder_ports(n, true));
  EXPECT_EQ(wide.factorizations, 1u);
  EXPECT_EQ(wide.gauge_nnz, wide.lu_nnz);
  EXPECT_NE(wide.gauge_nnz, static_cast<double>(n) * n);
}

// --- Frequency-domain cross-validation (golden RC / RLC lines) -----------

TEST(Prima, MwcntRcLineMatchesAcAnalysisInBand) {
  // ROM vs ac_analysis on the golden 200 um doped MWCNT line: <= 0.1 dB
  // up to well past the 3 dB bandwidth (the matched-moment band).
  for (const double nc : {2.0, 10.0}) {
    cir::NodeId out = 0;
    const auto ckt = mwcnt_line_circuit(nc, &out);
    const auto rm = reduce_observing(ckt, out, 10);
    const auto freqs = cir::log_frequency_grid(1e6, 1e12, 20);
    const auto ref = cir::ac_analysis(ckt, "vin", out, freqs);
    const auto got = rom_transfer(rm, freqs, 0, 0);
    const double f3db = cir::bandwidth_3db(ref);
    ASSERT_GT(f3db, 0.0);
    EXPECT_LT(max_db_error(ref, got, 3.0 * f3db), 0.1)
        << "Nc = " << nc << ", f3db = " << f3db;
    // The interoperable AcResult lets bandwidth_3db run on ROM output.
    EXPECT_NEAR(cir::bandwidth_3db(got), f3db, 0.02 * f3db);
  }
}

TEST(Prima, RlcLadderWithKineticInductanceMatchesAcAnalysis) {
  // Series-L ladder (kinetic inductance visible at high frequency): the
  // descriptor form carries the inductor branches, so the ROM must track
  // the RLC response, not just the RC envelope.
  const auto line = cc::make_paper_mwcnt(10, 2, 0.0).rlc();
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("vin", in, 0, cir::DcWave{0.0});
  const int segs = 8;
  const auto parts = cc::discretize_line(line, 10e-6, segs);
  cir::NodeId prev = in;
  for (int s = 0; s < segs; ++s) {
    const std::string is = std::to_string(s);
    const auto mid = ckt.node("m" + is);
    const auto nxt = (s == segs - 1) ? out : ckt.node("n" + is);
    ckt.add_resistor("r" + is, prev, mid,
                     parts[static_cast<std::size_t>(s)].resistance_ohm);
    ckt.add_inductor("l" + is, mid, nxt,
                     line.inductance_per_m * 10e-6 / segs);
    ckt.add_capacitor("c" + is, nxt, 0,
                      parts[static_cast<std::size_t>(s)].capacitance_f);
    prev = nxt;
  }
  const auto rm = reduce_observing(ckt, out, 20);
  const auto freqs = cir::log_frequency_grid(1e8, 2e11, 20);
  const auto ref = cir::ac_analysis(ckt, "vin", out, freqs);
  const auto got = rom_transfer(rm, freqs, 0, 0);
  EXPECT_LT(max_db_error(ref, got, 2e11), 0.1);
}

// --- Stability property tests --------------------------------------------

TEST(Prima, ReducedPolesStayInLeftHalfPlane) {
  // Congruence projection of a passive network: the passivity certificate
  // (and with it Re(p) <= 0 for every finite pole) must hold at any order
  // budget, including aggressive truncation.
  std::vector<std::pair<std::string, cir::Circuit>> circuits;
  {
    cir::NodeId out = 0;
    circuits.emplace_back("mwcnt_rc", mwcnt_line_circuit(4.0, &out));
  }
  {
    cir::Circuit rlc;
    const auto in = rlc.node("in");
    const auto mid = rlc.node("mid");
    const auto out = rlc.node("out");
    rlc.add_vsource("vin", in, 0, cir::DcWave{0.0});
    rlc.add_resistor("r1", in, mid, 10.0);
    rlc.add_inductor("l1", mid, out, 1e-9);
    rlc.add_capacitor("c1", out, 0, 1e-12);
    circuits.emplace_back("series_rlc", std::move(rlc));
  }
  for (auto& [name, ckt] : circuits) {
    for (const int order : {2, 4, 8, 16}) {
      SCOPED_TRACE(testing::Message() << name << " at order " << order);
      expect_passive(reduce_observing(ckt, ckt.node("out"), order));
    }
  }
}

TEST(Prima, TerminatedBusRomStaysStable) {
  // Termination folding is a congruence update of a passive network, so
  // the passivity certificate must survive any nonnegative driver/load
  // attachment.
  const rom::ParametrizedBusRom bus(paper_bus(4, 12), rom::BusTechBox{});
  const rom::ReducedModel bare = bus.model_at({});
  for (const double r : {500.0, 5e3, 50e3}) {
    for (const double cl : {0.0, 0.2e-15, 5e-15}) {
      std::vector<rom::PortTermination> loads;
      for (int l = 0; l < 4; ++l) loads.push_back({l, l, 1.0 / r, 0.0});
      for (int l = 0; l < 4; ++l) loads.push_back({4 + l, 4 + l, 0.0, cl});
      SCOPED_TRACE(testing::Message() << "r = " << r << ", cl = " << cl);
      expect_passive(terminate(bare, loads));
    }
  }
}

// --- Port termination folding --------------------------------------------

TEST(Prima, PortTerminationReproducesInCircuitLoad) {
  // Reduce a bare R line with a port at its far end, fold a load C into
  // the reduced model, and compare against the circuit with the same C
  // netlisted before extraction.
  cir::Circuit bare;
  const auto in = bare.node("in");
  const auto out = bare.node("out");
  bare.add_vsource("vin", in, 0, cir::DcWave{0.0});
  bare.add_resistor("r1", in, out, 1e3);

  cir::Circuit loaded = bare;
  loaded.add_capacitor("cl", out, 0, 1e-12);

  rom::StateSpaceOptions opt;
  opt.ports = {{"far", out}};
  const auto rm_bare = rom::prima_reduce(
      rom::extract_state_space(bare, opt), {.order = 4});
  const auto rm_terminated = terminate(
      rm_bare, {{rm_bare.input_index("far"), rm_bare.output_index("far"), 0.0,
                 1e-12}});

  const auto freqs = cir::log_frequency_grid(1e6, 1e10, 10);
  const auto ref = cir::ac_analysis(loaded, "vin", out, freqs);
  // Input 0 is vin, output 0 the port voltage.
  const auto got = rom_transfer(rm_terminated, freqs, 0, 0);
  EXPECT_LT(max_db_error(ref, got, 1e10), 1e-6);
}

// --- Time-domain cross-validation against the MNA engine -----------------

TEST(Prima, StepResponseMatchesTransientEngineOnRcLadder) {
  // 40-stage RC ladder behind a pulsed driver: ROM transient vs the MNA
  // engine on the identical time grid.
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  cir::PulseWave pulse = cir::bus_edge_wave(1.0, 20e-12);
  ckt.add_vsource("vin", in, 0, pulse);
  cir::NodeId prev = in;
  const int stages = 40;
  for (int s = 0; s < stages; ++s) {
    const std::string is = std::to_string(s);
    const auto n = ckt.node("n" + is);
    ckt.add_resistor("r" + is, prev, n, 100.0);
    ckt.add_capacitor("c" + is, n, 0, 2e-15);
    prev = n;
  }
  const cir::NodeId out = prev;

  cir::TransientOptions topt;
  topt.t_stop_s = 2e-9;
  topt.dt_s = 2e-12;
  const auto full = cir::simulate_transient(ckt, topt, {out});

  const auto rm = reduce_observing(ckt, out, 12);
  const auto red =
      rm.simulate({pulse}, topt.t_stop_s, topt.dt_s);

  ASSERT_EQ(red.time.size(), full.time().size());
  const auto& vf = full.voltage(out);
  const auto& vr = red.outputs[0];
  double worst = 0.0;
  for (std::size_t i = 0; i < red.time.size(); ++i) {
    worst = std::max(worst, std::abs(vf[i] - vr[i]));
  }
  EXPECT_LT(worst, 1e-3);  // 0.1% of the 1 V swing, everywhere

  const double d_full = cnti::numerics::first_crossing_time(
      full.time(), vf, 0.5, /*rising=*/true);
  const double d_rom = cnti::numerics::first_crossing_time(
      red.time, vr, 0.5, /*rising=*/true);
  EXPECT_NEAR(d_rom, d_full, 0.002 * d_full);
}

class BusRomVsFullMna : public ::testing::TestWithParam<int> {};

TEST_P(BusRomVsFullMna, NoiseAndDelayWithinOnePercent) {
  // Acceptance-grade differential: the bare bus ROM (a degenerate-box
  // ParametrizedBusRom: one reduction, drives folded in afterwards) vs the
  // full sparse-MNA transient on nominal and off-nominal driver/load
  // scenarios.
  const int lines = GetParam();
  const int segments = lines >= 16 ? 128 : 48;
  const cir::BusTopology topology = paper_bus(lines, segments);
  const rom::ParametrizedBusRom bus(topology, rom::BusTechBox{});
  EXPECT_LT(bus.order(), bus.full_order() / 4);

  struct Scenario {
    double driver_ohm;
    double load_f;
  };
  for (const auto& sc : {Scenario{5e3, 0.2e-15}, Scenario{1.5e3, 1e-15}}) {
    cir::BusDrive drive;
    drive.driver_ohm = sc.driver_ohm;
    drive.receiver_load_f = sc.load_f;
    const auto full = full_mna(topology, drive, 600);

    rom::BusScenario rsc;
    rsc.driver_ohm = sc.driver_ohm;
    rsc.receiver_load_f = sc.load_f;
    const auto red = bus.evaluate({}, rsc, 600);

    EXPECT_EQ(red.worst_victim, full.worst_victim);
    EXPECT_NEAR(red.peak_noise_v, full.peak_noise_v,
                0.01 * std::abs(full.peak_noise_v));
    EXPECT_NEAR(red.aggressor_delay_s, full.aggressor_delay_s,
                0.01 * full.aggressor_delay_s);
  }
}

INSTANTIATE_TEST_SUITE_P(BusSizes, BusRomVsFullMna,
                         ::testing::Values(4, 8, 16),
                         [](const ::testing::TestParamInfo<int>& param) {
                           return "lines" + std::to_string(param.param);
                         });

// --- Contracts and error paths -------------------------------------------

TEST(ReducedModel, EvaluationContracts) {
  cir::NodeId out = 0;
  const auto ckt = rc_lowpass(&out);
  const auto rm = reduce_observing(ckt, out, 3);
  EXPECT_THROW(rm.simulate({}, 1e-9, 1e-12), cnti::PreconditionError);
  EXPECT_THROW(rm.simulate({cir::DcWave{0.0}}, 1e-9, 2e-9),
               cnti::PreconditionError);
  EXPECT_THROW(terminate(rm, {{9, 0, 1e-3, 0.0}}), cnti::PreconditionError);
  EXPECT_THROW(terminate(rm, {{0, 0, -1e-3, 0.0}}), cnti::PreconditionError);
  EXPECT_THROW(rom::prima_reduce(rom::extract_state_space(ckt), {.order = 0}),
               cnti::PreconditionError);
}

TEST(ReducedModel, StepResponseSettlesToDcGain) {
  cir::NodeId out = 0;
  const auto ckt = rc_lowpass(&out);
  const auto rm = reduce_observing(ckt, out, 3);
  cir::PwlWave step;
  step.points = {{0.0, 0.0}, {4e-18, 1.0}};
  const auto tr = rm.simulate({step}, 20e-9, 4e-12);
  EXPECT_NEAR(tr.outputs[0].back(), 1.0, 1e-6);
  EXPECT_NEAR(tr.outputs[0].front(), 0.0, 1e-12);
  // 50% crossing of the unit step at RC ln 2 (tolerance covers the
  // trapezoidal discretization and linear crossing interpolation).
  const double d = cnti::numerics::first_crossing_time(
      tr.time, tr.outputs[0], 0.5, /*rising=*/true);
  EXPECT_NEAR(d, std::log(2.0) * 1e-9, 0.01 * 1e-9);
}

// --- Deterministic parallel scenario sweeps ------------------------------

TEST(RomSweep, ParallelScenarioSweepIsThreadCountInvariant) {
  // One shared reduced bus evaluated across a driver x load grid through
  // the sweep engine: results must be bit-identical at any thread count
  // (and data-race-free under TSan).
  const rom::ParametrizedBusRom bus(paper_bus(4, 16), rom::BusTechBox{});
  const cnti::core::SweepGrid grid(
      {{"driver_ohm", {1e3, 3e3, 10e3}}, {"load_f", {0.1e-15, 0.5e-15}}});
  const auto eval = [&bus](const cnti::core::SweepPoint& p) {
    rom::BusScenario sc;
    sc.driver_ohm = p.at("driver_ohm");
    sc.receiver_load_f = p.at("load_f");
    return bus.evaluate({}, sc, 200).peak_noise_v;
  };
  const auto serial =
      cnti::core::run_sweep(grid, eval, {.threads = 1, .grain = 1});
  const auto parallel =
      cnti::core::run_sweep(grid, eval, {.threads = 3, .grain = 1});
  ASSERT_EQ(serial.size(), grid.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "sweep point " << i;
  }
  // And the sweep found a nonzero noise landscape.
  EXPECT_GT(*std::max_element(serial.begin(), serial.end()), 0.0);
}

// --- Propagator kernel vs the per-step LU algorithm ----------------------

/// The trapezoidal algorithm simulate() replaced, kept as the differential
/// oracle: DC start by an LU solve of Gr, then every step one matvec with
/// 2C/dt - G and one LU solve of 2C/dt + G, over every input column.
rom::ReducedModel::Transient per_step_lu_reference(
    const rom::ReducedModel& rm, const std::vector<cir::Waveform>& waves,
    double t_stop_s, double dt_s) {
  using cnti::numerics::LuFactorization;
  using cnti::numerics::MatrixD;
  const auto input_at = [&](double t) {
    std::vector<double> u(waves.size());
    for (std::size_t k = 0; k < waves.size(); ++k) {
      u[k] = cir::waveform_value(waves[k], t);
    }
    return u;
  };
  std::vector<double> u_prev = input_at(0.0);
  std::vector<double> x =
      LuFactorization<double>(rm.gr()).solve(rm.br() * u_prev);
  MatrixD lhs = rm.cr();
  lhs *= 2.0 / dt_s;
  MatrixD rhs_mat = lhs;
  lhs += rm.gr();
  rhs_mat -= rm.gr();
  const LuFactorization<double> step_lu(lhs);

  const auto steps =
      static_cast<std::size_t>(std::ceil(t_stop_s / dt_s - 1e-9)) + 1;
  const auto p = static_cast<std::size_t>(rm.outputs());
  rom::ReducedModel::Transient out;
  out.time.resize(steps);
  out.outputs.assign(p, std::vector<double>(steps, 0.0));
  const MatrixD lt = rm.lr().transpose();
  const auto record = [&](std::size_t step, double t) {
    out.time[step] = t;
    const std::vector<double> y = lt * x;
    for (std::size_t j = 0; j < p; ++j) out.outputs[j][step] = y[j];
  };
  record(0, 0.0);
  for (std::size_t step = 1; step < steps; ++step) {
    const double t = static_cast<double>(step) * dt_s;
    const std::vector<double> u = input_at(t);
    std::vector<double> usum(u.size());
    for (std::size_t k = 0; k < u.size(); ++k) usum[k] = u_prev[k] + u[k];
    std::vector<double> rhs = rhs_mat * x;
    const std::vector<double> bu = rm.br() * usum;
    for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] += bu[i];
    x = step_lu.solve(rhs);
    u_prev = u;
    record(step, t);
  }
  return out;
}

/// Every sample of every output within `rel` of the reference, relative to
/// the transient's signal level (the largest |output| over all outputs and
/// samples): rounding differences scale with the state, not with the
/// smallest far-victim waveform.
void expect_transients_match(const rom::ReducedModel::Transient& got,
                               const rom::ReducedModel::Transient& ref,
                               double rel) {
  EXPECT_EQ(got.time, ref.time);
  EXPECT_EQ(got.outputs.size(), ref.outputs.size());
  double scale = 0.0;
  for (const auto& out : ref.outputs) {
    for (const double v : out) scale = std::max(scale, std::abs(v));
  }
  EXPECT_GT(scale, 0.0);
  for (std::size_t j = 0; j < ref.outputs.size(); ++j) {
    for (std::size_t i = 0; i < ref.outputs[j].size(); ++i) {
      EXPECT_LE(std::abs(got.outputs[j][i] - ref.outputs[j][i]), rel * scale)
          << "output " << j << ", sample " << i;
    }
  }
}

TEST(RomKernel, PropagatorMatchesPerStepLuOnRcLadder) {
  // 30-stage RC ladder ROM driven from a nonzero initial level, so the DC
  // start solve is exercised too.
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  ckt.add_vsource("vin", in, 0, cir::DcWave{0.0});
  cir::NodeId prev = in;
  for (int s = 0; s < 30; ++s) {
    const std::string is = std::to_string(s);
    const auto n = ckt.node("n" + is);
    ckt.add_resistor("r" + is, prev, n, 150.0);
    ckt.add_capacitor("c" + is, n, 0, 3e-15);
    prev = n;
  }
  const auto rm = reduce_observing(ckt, prev, 10);
  cir::PulseWave pulse = cir::bus_edge_wave(1.0, 20e-12);
  pulse.v1 = 0.2;
  const std::vector<cir::Waveform> waves = {pulse};
  const auto got = rm.simulate(waves, 1e-9, 2e-12);
  const auto ref = per_step_lu_reference(rm, waves, 1e-9, 2e-12);
  EXPECT_GT(ref.outputs[0].front(), 0.1);  // the DC start ran
  expect_transients_match(got, ref, 1e-11);
}

TEST(RomKernel, PropagatorMatchesPerStepLuOnTerminatedPaperBus) {
  // The terminated 16-line paper bus with every port of the model kept,
  // a Norton edge on the centre head and 31 undriven ports; then the same
  // with a quiet-high victim, a driven DC input that runs the DC start.
  const rom::ParametrizedBusRom bus(paper_bus(16, 128), rom::BusTechBox{});
  rom::BusScenario sc;
  sc.driver_ohm = 3e3;
  sc.receiver_load_f = 0.5e-15;
  std::vector<rom::PortTermination> loads;
  for (int l = 0; l < 16; ++l) {
    loads.push_back({l, l, 1.0 / sc.driver_ohm, 0.0});
    loads.push_back({16 + l, 16 + l, 0.0, sc.receiver_load_f});
  }
  const rom::ReducedModel term = terminate(bus.model_at({}), loads);
  std::vector<cir::Waveform> waves(32, cir::DcWave{0.0});
  cir::PulseWave edge = cir::bus_edge_wave(sc.vdd_v, sc.edge_time_s);
  edge.v2 /= sc.driver_ohm;
  const int aggressor = 8;  // centre line of the default config
  waves[aggressor] = edge;
  const double t_stop = bus.window_s({}, sc);
  const auto ref = per_step_lu_reference(term, waves, t_stop, t_stop / 600);
  expect_transients_match(term.simulate(waves, t_stop, t_stop / 600), ref,
                          1e-11);

  // evaluate() simulates a model sliced to the aggressor input and the
  // far-end outputs; its KPIs must match the same measurement on the
  // full-port reference.
  const auto got = bus.evaluate({}, sc, 600);
  double peak = 0.0;
  double peak_time = 0.0;
  int victim = -1;
  for (int l = 0; l < 16; ++l) {
    if (l == aggressor) continue;
    const auto& vn = ref.outputs[static_cast<std::size_t>(16 + l)];
    for (std::size_t i = 0; i < vn.size(); ++i) {
      if (std::abs(vn[i]) > std::abs(peak)) {
        peak = vn[i];
        peak_time = ref.time[i];
        victim = l;
      }
    }
  }
  const double delay = cnti::numerics::first_crossing_time(
      ref.time, ref.outputs[16 + aggressor], sc.vdd_v / 2.0,
      /*rising=*/true);
  EXPECT_EQ(got.worst_victim, victim);
  EXPECT_EQ(got.peak_time_s, peak_time);
  EXPECT_NEAR(got.peak_noise_v, peak, 1e-11 * std::abs(peak));
  EXPECT_NEAR(got.aggressor_delay_s, delay, 1e-11 * delay);

  waves[3] = cir::DcWave{sc.vdd_v / sc.driver_ohm};
  expect_transients_match(
      term.simulate(waves, t_stop, t_stop / 600),
      per_step_lu_reference(term, waves, t_stop, t_stop / 600), 1e-11);
}

// --- Projection basis retention --------------------------------------------

TEST(Prima, BasisIsRetainedAndSurvivesTermination) {
  const cir::BusTopology topology = paper_bus(4, 12);
  rom::PrimaOptions opt;
  opt.order = 24;
  opt.expansion_rad_per_s =
      20.0 / cir::bus_settle_time_s(topology, cir::BusDrive{});
  opt.keep_basis = true;
  const rom::ReducedModel m = rom::prima_reduce(
      rom::bare_bus_ports(rom::stamp_bus(topology)), opt);
  ASSERT_TRUE(m.has_basis());
  EXPECT_EQ(static_cast<int>(m.basis().size()), m.order());
  for (const auto& col : m.basis()) {
    EXPECT_EQ(static_cast<int>(col.size()), m.full_order());
  }
  // Terminations are reduced-space updates, so the retained V still
  // describes the terminated model: folding a head conductance g into Gr
  // equals projecting G + g e e^T through V, where V^T e = u.
  const rom::StateSpace ss =
      rom::bare_bus_ports(rom::stamp_bus(topology));
  std::vector<double> u(m.basis().size(), 0.0);
  for (std::size_t k = 0; k < u.size(); ++k) {
    for (std::size_t i = 0; i < m.basis()[k].size(); ++i) {
      u[k] += m.basis()[k][i] * ss.b(i, 0);
    }
  }
  const double g = 1e-4;
  const rom::ReducedModel term = terminate(m, {{0, 0, g, 0.0}});
  double scale = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    for (std::size_t j = 0; j < u.size(); ++j) {
      scale = std::max(scale, std::abs(m.gr()(i, j)));
    }
  }
  for (std::size_t i = 0; i < u.size(); ++i) {
    for (std::size_t j = 0; j < u.size(); ++j) {
      EXPECT_NEAR(term.gr()(i, j), m.gr()(i, j) + g * u[i] * u[j],
                  1e-12 * scale);
    }
  }

  // Without keep_basis (the prima_reduce default) nothing is stored.
  cir::NodeId out = 0;
  cir::Circuit ckt = rc_lowpass(&out);
  const rom::ReducedModel plain =
      rom::prima_reduce(rom::extract_state_space(ckt), {.order = 2});
  EXPECT_FALSE(plain.has_basis());
}

// --- Per-drive reduction of the terminated bus ---------------------------

/// Test-local orthonormal DCT-II: Q(l, k) is line l's weight in line mode
/// k of an N-line bus.
double dct(int lines, int l, int k) {
  const double pi = std::acos(-1.0);
  return std::sqrt((k == 0 ? 1.0 : 2.0) / lines) *
         std::cos(pi * k * (2 * l + 1) / (2.0 * lines));
}

/// P^T A P of an extracted nodal matrix A (state i = node i + 1), dense
/// n x n in mode-major chain order: P maps modal state k * len + p to the
/// node at chain position p of line l with weight Q(l, k).
std::vector<double> modal_oracle(const cnti::numerics::SparseMatrix& a,
                                 const std::vector<int>& line_of,
                                 const std::vector<int>& pos_of, int lines,
                                 int len) {
  const std::size_t n = a.rows();
  std::vector<double> m(n * n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t t = a.row_ptr()[r]; t < a.row_ptr()[r + 1]; ++t) {
      const std::size_t c = a.col_indices()[t];
      const double v = a.values()[t];
      for (int k = 0; k < lines; ++k) {
        const double qr = dct(lines, line_of[r], k) * v;
        const std::size_t row =
            static_cast<std::size_t>(k * len + pos_of[r]) * n;
        for (int kc = 0; kc < lines; ++kc) {
          m[row + static_cast<std::size_t>(kc * len + pos_of[c])] +=
              qr * dct(lines, line_of[c], kc);
        }
      }
    }
  }
  return m;
}

/// Largest |stamp - oracle| over every (i, j), relative to
/// sqrt(|oracle_ii| |oracle_jj|); an entry whose scale is zero must match
/// exactly (it then counts as 1 when it does not).
double max_scaled_diff(const cnti::numerics::SparseMatrix& stamp,
                       const std::vector<double>& oracle) {
  const std::size_t n = stamp.rows();
  std::vector<double> d(n * n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t t = stamp.row_ptr()[r]; t < stamp.row_ptr()[r + 1];
         ++t) {
      d[r * n + stamp.col_indices()[t]] += stamp.values()[t];
    }
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double diff = std::abs(d[i * n + j] - oracle[i * n + j]);
      const double scale =
          std::sqrt(std::abs(oracle[i * n + i] * oracle[j * n + j]));
      worst = std::max(worst, scale > 0.0 ? diff / scale
                                          : (diff > 0.0 ? 1.0 : 0.0));
    }
  }
  return worst;
}

TEST(DrivenBus, StampMatchesExtractedNetlist) {
  // The modal stamp writes G(theta) and C(theta) straight into CSR in the
  // line modes. At any coefficients they must equal P^T G P and P^T C P of
  // the netlist's extraction at the matching technology point, with the
  // drive stamped as circuit elements (a zero load stamps no far-end
  // capacitor): N decoupled chains and a diagonal C, to rounding.
  cir::BusTopology contact_free = paper_bus(4, 8);
  contact_free.line.series_resistance_ohm = 0.0;  // the 1 Ohm far stub
  cir::BusTopology uncoupled = paper_bus(4, 8);
  uncoupled.coupling_cap_per_m = 0.0;
  const std::pair<cir::BusTopology, rom::BusTechPoint> cases[] = {
      {paper_bus(2, 16), {}},
      {paper_bus(4, 8), {}},
      {paper_bus(4, 8), {0.87, 1.13, 0.71}},
      {paper_bus(16, 64), {1.19, 0.93, 1.27}},
      {paper_bus(32, 8), {}},
      {paper_bus(32, 8), {0.93, 1.08, 1.16}},
      {contact_free, {}},
      {contact_free, {0.9, 1.1, 1.2}},
      {uncoupled, {1.1, 0.9, 1.0}},
  };
  constexpr double kDriverOhm = 3e3;
  for (const auto& [topology, p] : cases) {
    const rom::BusStateSpace bus = rom::stamp_bus(topology);
    const int lines = topology.lines;
    const bool contact = topology.line.series_resistance_ohm > 0;
    const int ladder = contact ? 2 : 1;
    const int len = ladder + topology.segments + 1;
    ASSERT_EQ(bus.chain(), static_cast<std::size_t>(len));
    for (const double load : {0.0, 0.7e-15}) {
      SCOPED_TRACE(testing::Message()
                   << lines << " x " << topology.segments << ", R_s "
                   << topology.line.series_resistance_ohm << ", Cc "
                   << topology.coupling_cap_per_m << ", scales "
                   << p.resistance_scale << "/" << p.capacitance_scale << "/"
                   << p.coupling_scale << ", load " << load);
      cir::BusTopology at = topology;
      at.line.resistance_per_m *= p.resistance_scale;
      at.line.capacitance_per_m *= p.capacitance_scale;
      at.coupling_cap_per_m *= p.coupling_scale;
      cir::BusNetlist net = cir::build_bus_netlist(at);
      const int nodes = net.ckt.node_count();
      // Line and chain position of every nodal state, by node name.
      std::vector<int> line_of(static_cast<std::size_t>(nodes), -1);
      std::vector<int> pos_of(static_cast<std::size_t>(nodes), -1);
      const auto place = [&](cir::NodeId id, int l, int pos) {
        line_of[static_cast<std::size_t>(id - 1)] = l;
        pos_of[static_cast<std::size_t>(id - 1)] = pos;
      };
      for (int l = 0; l < lines; ++l) {
        const auto ul = static_cast<std::size_t>(l);
        place(net.head[ul], l, 0);
        if (contact) place(net.ckt.node("c1_" + std::to_string(l)), l, 1);
        for (int seg = 0; seg < topology.segments; ++seg) {
          place(net.ckt.node("b" + std::to_string(l) + "_" +
                             std::to_string(seg)),
                l, ladder + seg);
        }
        place(net.far[ul], l, len - 1);
        net.ckt.add_resistor("rdrv" + std::to_string(l), net.head[ul], 0,
                             kDriverOhm);
        if (load > 0) {
          net.ckt.add_capacitor("cl" + std::to_string(l), net.far[ul], 0,
                                load);
        }
      }
      ASSERT_EQ(net.ckt.node_count(), nodes);  // every name was a node
      ASSERT_EQ(std::count(pos_of.begin(), pos_of.end(), -1), 0);
      rom::StateSpaceOptions opt;
      opt.include_sources = false;
      opt.ports = {{"head0", net.head[0]}};
      const rom::StateSpace ref = rom::extract_state_space(net.ckt, opt);

      const rom::BusTheta theta = rom::bus_theta(p, 1.0 / kDriverOhm, load);
      ASSERT_EQ(bus.size(), ref.size);
      EXPECT_LE(max_scaled_diff(bus.g(theta), modal_oracle(ref.g, line_of,
                                                           pos_of, lines,
                                                           len)),
                1e-13);
      EXPECT_LE(max_scaled_diff(bus.c(theta), modal_oracle(ref.c, line_of,
                                                           pos_of, lines,
                                                           len)),
                1e-13);
    }
  }

  // terminate_bus is the nominal point under the drive; its input is
  // column agg of Q on every mode's head and its outputs are the columns
  // of Q on every mode's far end.
  for (const int lines : {2, 4, 16}) {
    SCOPED_TRACE(lines);
    const rom::BusStateSpace bus = rom::stamp_bus(paper_bus(lines, 8));
    const std::size_t len = bus.chain();
    cir::BusDrive drive;
    drive.aggressor = lines - 1;
    drive.driver_ohm = kDriverOhm;
    drive.receiver_load_f = 0.7e-15;
    const rom::StateSpace got = rom::terminate_bus(bus, drive);
    const rom::BusTheta theta =
        rom::bus_theta({}, 1.0 / kDriverOhm, drive.receiver_load_f);
    EXPECT_EQ(got.g.values(), bus.g(theta).values());
    EXPECT_EQ(got.c.values(), bus.c(theta).values());
    ASSERT_EQ(got.inputs(), 1);
    ASSERT_EQ(got.outputs(), lines);
    for (std::size_t r = 0; r < static_cast<std::size_t>(got.size); ++r) {
      const int k = static_cast<int>(r / len);
      const std::size_t pos = r % len;
      EXPECT_NEAR(got.b(r, 0), pos == 0 ? dct(lines, lines - 1, k) : 0.0,
                  1e-15);
      for (int l = 0; l < lines; ++l) {
        EXPECT_NEAR(got.l(r, static_cast<std::size_t>(l)),
                    pos == len - 1 ? dct(lines, l, k) : 0.0, 1e-15);
      }
    }
  }
}

TEST(DrivenBus, PerDriveRomMatchesFullMnaAcrossDrives) {
  // The scenario engine's reduced-order noise path: 12 Krylov vectors of
  // the terminated one-input bus, expanded at the drive's own settle-time
  // corner, vs the full sparse-MNA transient over strong and weak drivers,
  // no load and a heavy one, an edge and the centre aggressor.
  const cir::BusTopology topology = paper_bus(16, 64);
  const rom::BusStateSpace bare = rom::stamp_bus(topology);
  for (const double ohm : {200.0, 100e3}) {
    for (const double load : {0.0, 5e-15}) {
      for (const int aggressor : {0, 8}) {
        SCOPED_TRACE(testing::Message() << ohm << " Ohm, " << load
                                        << " F, aggressor " << aggressor);
        cir::BusDrive drive;
        drive.aggressor = aggressor;
        drive.driver_ohm = ohm;
        drive.receiver_load_f = load;
        EXPECT_EQ(rom::reduce_driven_bus(bare, drive).order(), 12);
        const auto red = rom::evaluate_bus_drive(bare, drive, 600);
        const auto full = full_mna(topology, drive, 600);
        EXPECT_EQ(red.worst_victim, full.worst_victim);
        EXPECT_NEAR(red.peak_noise_v, full.peak_noise_v,
                    1e-4 * std::abs(full.peak_noise_v));
        EXPECT_NEAR(red.aggressor_delay_s, full.aggressor_delay_s,
                    1e-4 * full.aggressor_delay_s);
      }
    }
  }
}

TEST(DrivenBus, PerDriveReductionIsTwoFactorizationsAndSeventeenSolves) {
  // One drive is one reduction in two stages. Stage 1 factors all 16 mode
  // chains at once (half-bandwidth 1) and solves once per Krylov level;
  // stage 2 factors the 16 x 5-state block-diagonal model as a band of
  // half-bandwidth 4 (nnz_lu = 80 * 5) and solves once per vector. The
  // reduction is counted once, and one reduce_ns sample ("prima.reduce")
  // spans both stages, stage 1 as its "prima.modes" child.
  const cir::BusTopology topology = paper_bus(16, 64);
  const rom::BusStateSpace bare = rom::stamp_bus(topology);
  const obs::Counter reductions = obs::counter("cnti.rom.reductions");
  const obs::Counter factorizations =
      obs::counter("cnti.solver.factorizations");
  const obs::Counter refactorizations =
      obs::counter("cnti.solver.refactorizations");
  const obs::Counter solves = obs::counter("cnti.solver.solves");
  const auto reduce_samples = [] {
    return obs::metrics_snapshot().histograms["cnti.rom.reduce_ns"].count;
  };
  const std::uint64_t n0 = reductions.value();
  const std::uint64_t f0 = factorizations.value();
  const std::uint64_t r0 = refactorizations.value();
  const std::uint64_t s0 = solves.value();
  const std::uint64_t h0 = reduce_samples();
  cir::BusDrive drive;
  drive.driver_ohm = 2e3;
  drive.receiver_load_f = 0.5e-15;
  obs::TraceSession session;
  const rom::ReducedModel rm = rom::reduce_driven_bus(bare, drive);
  const std::vector<obs::TraceEvent> events = session.stop();
  EXPECT_EQ(rm.order(), rom::kDrivenBusOrder);
  EXPECT_EQ(rm.full_order(), bare.size());
  EXPECT_EQ(reductions.value() - n0, 1u);
  EXPECT_EQ(factorizations.value() - f0, 2u);
  EXPECT_EQ(refactorizations.value() - r0, 0u);
  EXPECT_EQ(solves.value() - s0,
            static_cast<std::uint64_t>(rom::kModeOrder +
                                       rom::kDrivenBusOrder));
  EXPECT_EQ(reduce_samples() - h0, 1u);
  EXPECT_EQ(obs::gauge("cnti.solver.nnz_lu").value(),
            static_cast<double>(topology.lines * rom::kModeOrder *
                                rom::kModeOrder));

  const auto named = [&](const char* name) {
    std::vector<obs::TraceEvent> out;
    for (const obs::TraceEvent& e : events) {
      if (std::string(e.name) == name) out.push_back(e);
    }
    return out;
  };
  const auto reduce = named("prima.reduce");
  const auto modes = named("prima.modes");
  ASSERT_EQ(reduce.size(), 1u);
  ASSERT_EQ(modes.size(), 1u);
  EXPECT_GE(modes[0].t0_ns, reduce[0].t0_ns);
  EXPECT_LE(modes[0].t0_ns + modes[0].dur_ns,
            reduce[0].t0_ns + reduce[0].dur_ns);
  EXPECT_EQ(named("chain_cholesky.factorize").size(), 1u);
  EXPECT_EQ(named("chain_cholesky.solve").size(),
            static_cast<std::size_t>(rom::kModeOrder));
  EXPECT_EQ(named("band_cholesky.factorize").size(), 1u);
  EXPECT_EQ(named("band_cholesky.solve").size(),
            static_cast<std::size_t>(rom::kDrivenBusOrder));
}

/// The sparse-MNA reference of one bus drive (the transient
/// analyze_bus_crosstalk runs, on the same grid), with the relative gap
/// between its two largest victim peaks. Where two victims peak within
/// rounding of each other, a reduced model may name either one the worst.
struct MnaReference {
  cir::BusCrosstalkResult kpi;
  double victim_gap = 1.0;
};

MnaReference mna_reference(const cir::BusTopology& topology,
                           const cir::BusDrive& drive, int time_steps) {
  cir::BusNetlist bus = cir::build_bus_netlist(topology);
  const int agg = drive.aggressor < 0 ? topology.lines / 2 : drive.aggressor;
  const cir::NodeId in = bus.ckt.node("bus_in");
  bus.ckt.add_vsource("vbus", in, 0,
                      cir::bus_edge_wave(drive.vdd_v, drive.edge_time_s));
  for (int l = 0; l < topology.lines; ++l) {
    const auto ul = static_cast<std::size_t>(l);
    bus.ckt.add_resistor("rdrv" + std::to_string(l), l == agg ? in : 0,
                         bus.head[ul], drive.driver_ohm);
    if (drive.receiver_load_f > 0) {
      bus.ckt.add_capacitor("cl" + std::to_string(l), bus.far[ul], 0,
                            drive.receiver_load_f);
    }
  }
  cir::TransientOptions opt;
  opt.t_stop_s = cir::bus_settle_time_s(topology, drive);
  opt.dt_s = opt.t_stop_s / time_steps;
  const cir::TransientResult res = cir::simulate_transient(bus.ckt, opt,
                                                           bus.far);
  MnaReference out{
      cir::scan_bus_noise(res.time(), res.waveforms(), agg, drive.vdd_v)};
  std::vector<double> peaks;
  for (int l = 0; l < topology.lines; ++l) {
    if (l == agg) continue;
    double peak = 0.0;
    for (const double v : res.waveforms()[static_cast<std::size_t>(l)]) {
      peak = std::max(peak, std::abs(v));
    }
    peaks.push_back(peak);
  }
  std::sort(peaks.rbegin(), peaks.rend());
  if (peaks.size() > 1) out.victim_gap = (peaks[0] - peaks[1]) / peaks[0];
  return out;
}

/// The per-drive ROM of `topology` against MNA over strong and weak
/// drivers, no load and a heavy one, an edge and the centre aggressor:
/// peak noise and delay within `tol` relative, and the same worst victim
/// wherever MNA's top two victim peaks differ by more than 1e-4.
void expect_per_drive_rom_matches_mna(const cir::BusTopology& topology,
                                      double tol) {
  const rom::BusStateSpace bare = rom::stamp_bus(topology);
  for (const double ohm : {200.0, 100e3}) {
    for (const double load : {0.0, 5e-15}) {
      for (const int aggressor : {0, topology.lines / 2}) {
        SCOPED_TRACE(testing::Message() << ohm << " Ohm, " << load
                                        << " F, aggressor " << aggressor);
        cir::BusDrive drive;
        drive.aggressor = aggressor;
        drive.driver_ohm = ohm;
        drive.receiver_load_f = load;
        const auto red = rom::evaluate_bus_drive(bare, drive, 600);
        const MnaReference full = mna_reference(topology, drive, 600);
        EXPECT_NEAR(red.peak_noise_v, full.kpi.peak_noise_v,
                    tol * std::abs(full.kpi.peak_noise_v));
        EXPECT_NEAR(red.aggressor_delay_s, full.kpi.aggressor_delay_s,
                    tol * full.kpi.aggressor_delay_s);
        if (full.victim_gap > 1e-4) {
          EXPECT_EQ(red.worst_victim, full.kpi.worst_victim);
        }
      }
    }
  }
}

cir::BusTopology paper_bus_of_length(int lines, int segments,
                                     double length_m) {
  cir::BusTopology t = paper_bus(lines, segments);
  t.length_m = length_m;
  return t;
}

TEST(DrivenBus, TwoStageMatchesSingleStageReduction) {
  // The two-stage reduction against one PRIMA run on the whole terminated
  // bus at the same order and expansion point, on the drive grid of
  // PerDriveRomMatchesFullMnaAcrossDrives: the KPIs agree to 1e-5 (about
  // 5e-9 measured; 3 Krylov levels per mode read about 1e-3).
  const cir::BusTopology topology = paper_bus(16, 64);
  const rom::BusStateSpace bare = rom::stamp_bus(topology);
  for (const double ohm : {200.0, 100e3}) {
    for (const double load : {0.0, 5e-15}) {
      for (const int aggressor : {0, 8}) {
        SCOPED_TRACE(testing::Message() << ohm << " Ohm, " << load
                                        << " F, aggressor " << aggressor);
        cir::BusDrive drive;
        drive.aggressor = aggressor;
        drive.driver_ohm = ohm;
        drive.receiver_load_f = load;
        rom::BusScenario sc;
        sc.driver_ohm = ohm;
        sc.receiver_load_f = load;
        const double window = cir::bus_settle_time_s(topology, drive);
        rom::PrimaOptions opt;
        opt.order = rom::kDrivenBusOrder;
        opt.expansion_rad_per_s = 20.0 / window;
        const rom::ReducedModel one =
            rom::prima_reduce(rom::terminate_bus(bare, drive), opt);
        const rom::ReducedModel two = rom::reduce_driven_bus(bare, drive);
        EXPECT_EQ(two.order(), one.order());
        EXPECT_EQ(two.full_order(), one.full_order());
        EXPECT_EQ(two.input_names(), one.input_names());
        EXPECT_EQ(two.output_names(), one.output_names());
        const auto a = rom::evaluate_driven_bus(one, aggressor, sc, window,
                                                600);
        const auto b = rom::evaluate_driven_bus(two, aggressor, sc, window,
                                                600);
        EXPECT_NEAR(b.peak_noise_v, a.peak_noise_v,
                    1e-5 * std::abs(a.peak_noise_v));
        EXPECT_NEAR(b.aggressor_delay_s, a.aggressor_delay_s,
                    1e-5 * a.aggressor_delay_s);
        EXPECT_EQ(b.worst_victim, a.worst_victim);
      }
    }
  }
}

TEST(DrivenBus, PerDriveRomMatchesFullMnaAcrossBusShapes) {
  // Shorter and longer paper buses, a wider and a narrower one. A centre
  // aggressor's two neighbours peak within 1e-8 of each other on 16 lines
  // (1e-13 on 32, 4e-4 to 4e-5 on 8), so where that gap is under 1e-4
  // the worst victim is left uncompared: the ROM names the other
  // neighbour on the 160 um bus once and on the 32-line bus every time.
  for (const cir::BusTopology& topology :
       {paper_bus_of_length(16, 64, 40e-6), paper_bus_of_length(16, 64, 160e-6),
        paper_bus(16, 128), paper_bus(32, 64), paper_bus(8, 32)}) {
    SCOPED_TRACE(testing::Message() << topology.lines << " x "
                                    << topology.segments << ", "
                                    << topology.length_m << " m");
    expect_per_drive_rom_matches_mna(topology, 1e-4);
  }
}

TEST(DrivenBus, PerDriveRomMatchesFullMnaOnLongBuses) {
  // Millimetre lines: 5 Krylov levels per mode hold the 4 x 256 bus to
  // about 5e-5 (4 levels: 2.8e-4) and the 2 x 512 bus at 5 mm to 2.1e-4.
  SCOPED_TRACE("4 x 256, 1 mm");
  expect_per_drive_rom_matches_mna(paper_bus_of_length(4, 256, 1e-3), 1e-4);
  SCOPED_TRACE("2 x 512, 5 mm");
  expect_per_drive_rom_matches_mna(paper_bus_of_length(2, 512, 5e-3), 1e-3);
}

TEST(DrivenBus, ShortChainsDeflateBeforeTheLastLevel) {
  // Two segments give 5-state chains whose C has rank 3 (2 without a
  // load), so every mode's Krylov space ends before kModeOrder levels: the
  // stage-2 band comes out smaller than lines * kModeOrder states of
  // half-bandwidth kModeOrder - 1, and the reduction is still exact to
  // rounding.
  for (const int lines : {2, 4}) {
    SCOPED_TRACE(lines);
    const cir::BusTopology topology = paper_bus(lines, 2);
    cir::BusDrive drive;
    drive.driver_ohm = 2e3;
    drive.receiver_load_f = 0.5e-15;
    const rom::ReducedModel rm =
        rom::reduce_driven_bus(rom::stamp_bus(topology), drive);
    EXPECT_LT(obs::gauge("cnti.solver.nnz_lu").value(),
              static_cast<double>(lines * rom::kModeOrder * rom::kModeOrder));
    EXPECT_EQ(rm.full_order(), lines * 5);
    expect_per_drive_rom_matches_mna(topology, 1e-6);
  }
}

TEST(DrivenBus, ParametrizedCornerFactorsAtHalfBandwidthOne) {
  // The driven statistical ROM's corners reduce the same modal stamp, so
  // each of the 8 corners is one band factor of two entries per state.
  const cir::BusTopology topology = paper_bus(16, 128);
  cir::BusDrive drive;
  drive.driver_ohm = 2e3;
  drive.receiver_load_f = 0.5e-15;
  const obs::Counter factorizations =
      obs::counter("cnti.solver.factorizations");
  const std::uint64_t f0 = factorizations.value();
  rom::BusTechBox box;
  box.lo = {0.9, 0.9, 0.9};
  box.hi = {1.1, 1.1, 1.1};
  const rom::ParametrizedBusRom prom(topology, box, drive);
  EXPECT_EQ(prom.corners(), 8);
  EXPECT_EQ(factorizations.value() - f0, 8u);
  EXPECT_EQ(obs::gauge("cnti.solver.nnz_lu").value(),
            static_cast<double>(prom.full_order()) * 2.0);
}

// --- Corner-anchored parametrized bus ROM --------------------------------

TEST(ParamRom, DegenerateBoxIsBitwiseBusRom) {
  // A fully collapsed box (lo == hi == nominal) has a single corner, keeps
  // that corner's PRIMA basis verbatim and must reproduce a plain bare
  // bus reduction (6 * lines vectors at the default drive's settle-time
  // corner, the drive folded in afterwards): order and window bit for
  // bit. model_at sums the projected components instead of projecting
  // the summed G/C, so the KPIs agree to rounding (1e-12 relative).
  const cir::BusTopology topology = paper_bus(4, 8);
  const rom::ParametrizedBusRom prom(topology, rom::BusTechBox{});
  const rom::StateSpace ss =
      rom::bare_bus_ports(rom::stamp_bus(topology));
  rom::PrimaOptions opt;
  opt.order = std::min(6 * topology.lines, ss.size / 2);
  opt.expansion_rad_per_s =
      20.0 / cir::bus_settle_time_s(topology, cir::BusDrive{});
  const rom::ReducedModel bare = rom::prima_reduce(ss, opt);
  EXPECT_EQ(prom.corners(), 1);
  EXPECT_EQ(prom.order(), bare.order());
  EXPECT_EQ(prom.full_order(), bare.full_order());

  rom::BusScenario sc;
  sc.driver_ohm = 2e3;
  sc.receiver_load_f = 0.5e-15;
  cir::BusDrive drive;
  drive.driver_ohm = sc.driver_ohm;
  drive.receiver_load_f = sc.receiver_load_f;
  const double window = cir::bus_settle_time_s(topology, drive);
  const rom::BusTechPoint nominal;
  EXPECT_EQ(prom.window_s(nominal, sc), window);
  const int aggressor = topology.lines / 2;
  const auto a = prom.evaluate(nominal, sc, 300);
  const auto b = rom::evaluate_driven_bus(
      rom::terminate_bare_bus(bare, topology.lines, aggressor, sc), aggressor,
      sc, window, 300);
  EXPECT_NEAR(a.peak_noise_v, b.peak_noise_v,
              1e-12 * std::abs(b.peak_noise_v));
  EXPECT_NEAR(a.peak_time_s, b.peak_time_s, 1e-12 * b.peak_time_s);
  EXPECT_EQ(a.worst_victim, b.worst_victim);
  EXPECT_NEAR(a.aggressor_delay_s, b.aggressor_delay_s,
              1e-12 * b.aggressor_delay_s);
}

TEST(ParamRom, CornerAnchorsMatchFullMnaWithinOnePercent) {
  const cir::BusTopology topology = paper_bus(4, 8);
  rom::BusTechBox box;
  box.lo = {0.85, 0.90, 0.80};
  box.hi = {1.15, 1.10, 1.20};
  const rom::ParametrizedBusRom prom(topology, box);
  EXPECT_EQ(prom.corners(), 8);

  rom::BusScenario sc;
  for (const rom::BusTechPoint& p :
       {box.lo, box.hi, rom::BusTechPoint{0.85, 1.10, 0.80}}) {
    cir::BusDrive drive;
    const auto full = full_mna(prom.topology_at(p), drive, 400);
    const auto red = prom.evaluate(p, sc, 400);
    EXPECT_EQ(red.worst_victim, full.worst_victim);
    EXPECT_NEAR(red.peak_noise_v, full.peak_noise_v,
                0.01 * std::abs(full.peak_noise_v));
    EXPECT_NEAR(red.aggressor_delay_s, full.aggressor_delay_s,
                0.01 * full.aggressor_delay_s);
  }
}

TEST(ParamRom, InteriorProbesWithinOnePercentOfMna) {
  // The error-bound policy itself: deterministic non-anchor probes vs the
  // full sparse-MNA transient must stay inside the 1% acceptance band.
  const cir::BusTopology topology = paper_bus(4, 8);
  rom::BusTechBox box;
  box.lo = {0.85, 0.90, 0.80};
  box.hi = {1.15, 1.10, 1.20};
  const rom::ParametrizedBusRom prom(topology, box);
  const rom::ParamRomValidation v =
      prom.validate_against_mna(rom::BusScenario{}, 4, 400);
  EXPECT_EQ(v.probes, 4);
  EXPECT_LE(v.max_noise_rel_err, 0.01);
  EXPECT_LE(v.max_delay_rel_err, 0.01);
}

TEST(ParamRom, BlendedModelsStayStableAcrossTheBox) {
  // The model is a congruence projection of a passive network at every
  // interior point, so the passivity certificate must hold under any
  // nonnegative termination — not just at the anchors.
  const cir::BusTopology topology = paper_bus(4, 8);
  rom::BusTechBox box;
  box.lo = {0.7, 0.8, 0.6};
  box.hi = {1.3, 1.2, 1.4};
  const rom::ParametrizedBusRom prom(topology, box);
  for (const rom::BusTechPoint& p :
       {rom::BusTechPoint{0.7, 1.2, 1.0}, rom::BusTechPoint{1.0, 1.0, 1.0},
        rom::BusTechPoint{1.29, 0.81, 1.39}}) {
    const rom::ReducedModel m = prom.model_at(p);
    std::vector<rom::PortTermination> loads;
    for (int l = 0; l < 4; ++l) loads.push_back({l, l, 1.0 / 5e3, 0.0});
    for (int l = 0; l < 4; ++l) loads.push_back({4 + l, 4 + l, 0.0, 1e-15});
    SCOPED_TRACE(testing::Message() << "r_scale = " << p.resistance_scale);
    expect_passive(terminate(m, loads));
  }
}

TEST(ParamRom, RejectsBadBoxesAndOutOfBoxPoints) {
  const cir::BusTopology topology = paper_bus(4, 8);
  rom::BusTechBox zero;
  zero.lo.resistance_scale = 0.0;  // scales must stay positive
  EXPECT_THROW(rom::ParametrizedBusRom(topology, zero),
               cnti::PreconditionError);
  rom::BusTechBox inverted;
  inverted.lo.coupling_scale = 1.2;
  inverted.hi.coupling_scale = 0.8;
  EXPECT_THROW(rom::ParametrizedBusRom(topology, inverted),
               cnti::PreconditionError);

  rom::BusTechBox box;
  box.lo = {0.9, 0.9, 0.9};
  box.hi = {1.1, 1.1, 1.1};
  const rom::ParametrizedBusRom prom(topology, box);
  EXPECT_THROW(prom.model_at({1.2, 1.0, 1.0}), cnti::PreconditionError);
  EXPECT_THROW(prom.evaluate({1.0, 0.5, 1.0}, rom::BusScenario{}, 100),
               cnti::PreconditionError);
}

TEST(ParamRom, DrivenRomMatchesMnaOnThePaperBus) {
  // A fixed-drive study reduces the terminated bus as a one-input system:
  // on the 16 x 128 paper bus the merged order stays a small deterministic
  // count, and interior probes track the full sparse-MNA transient to
  // 0.1 % — for a weak driver with a light load and for a strong driver
  // with a heavy one, each expanded at its own settle-time corner. The
  // probes are not the points the order was chosen on (the box centre and
  // its lo / hi corners).
  const cir::BusTopology topology = paper_bus(16, 128);
  rom::BusTechBox box;
  box.lo = {0.85, 0.90, 0.80};
  box.hi = {1.15, 1.10, 1.20};
  for (const auto& [ohm, load_f] :
       {std::pair{10e3, 0.1e-15}, std::pair{1e3, 1e-15}}) {
    SCOPED_TRACE(ohm);
    cir::BusDrive drive;
    drive.driver_ohm = ohm;
    drive.receiver_load_f = load_f;
    const rom::ParametrizedBusRom prom(topology, box, drive);
    EXPECT_EQ(prom.corners(), 8);
    EXPECT_LE(prom.order(), 64);
    const rom::ReducedModel m = prom.model_at(rom::BusTechPoint{});
    EXPECT_EQ(m.inputs(), 1);
    EXPECT_EQ(m.outputs(), 16);

    rom::BusScenario sc;
    sc.driver_ohm = drive.driver_ohm;
    sc.receiver_load_f = drive.receiver_load_f;
    const rom::ParamRomValidation v = prom.validate_against_mna(sc, 3, 200);
    EXPECT_EQ(v.probes, 3);
    EXPECT_LE(v.max_noise_rel_err, 1e-3);
    EXPECT_LE(v.max_delay_rel_err, 1e-3);
  }
}

double rom_error_estimate() {
  return obs::metrics_snapshot().gauges.at("cnti.rom.error_estimate");
}

TEST(ParamRom, DrivenOrderGrowsUntilTheEstimateMeetsTheBound) {
  // The driven ROM adds one Krylov vector per corner at a time until the
  // KPIs move by at most 1e-5 between levels. The perfbench study's drive
  // meets that at three levels; the 10 kOhm / 0.1 fF drive on this
  // 16 x 128 bus still moves by more than 1e-5 at three levels, so the
  // loop must go deeper, and the order it keeps meets the bound.
  scenario::Scenario s;
  s.workload.bus_lines = 16;
  s.workload.bus_segments = 128;
  s.workload.coupling_cap_af_per_um = 30.0;
  s.analysis.noise = true;
  s.analysis.noise_model = scenario::NoiseModel::kReducedOrder;
  s.variability.samples = 1;
  s.variability.resistance_span = 0.15;
  s.variability.capacitance_span = 0.10;
  s.variability.coupling_span = 0.20;
  const auto study_rom = scenario::ScenarioEngine().statistical_rom(s);
  EXPECT_EQ(obs::metrics_snapshot().gauges.at("cnti.rom.order"),
            study_rom->order());
  EXPECT_LE(rom_error_estimate(), 1e-5);

  cir::BusDrive drive;
  drive.driver_ohm = 10e3;
  drive.receiver_load_f = 0.1e-15;
  const rom::ParametrizedBusRom deep(paper_bus(16, 128),
                                     scenario::tech_box(s.variability), drive);
  EXPECT_LE(rom_error_estimate(), 1e-5);
  EXPECT_GT(deep.order(), study_rom->order());
}

TEST(ParamRom, LevelModelIsTheLeadingBlockOfTheNextLevel) {
  // The order loop extends the merged basis a level at a time and reuses
  // a level's KPIs once the next level is projected. That is exact because
  // the projection of a basis prefix is bitwise the leading block of the
  // projection of the whole basis, for every bus component and port map.
  const cir::BusTopology topology = paper_bus(16, 128);
  cir::BusDrive drive;
  drive.driver_ohm = 10e3;
  drive.receiver_load_f = 0.1e-15;
  const rom::BusStateSpace bare = rom::stamp_bus(topology);
  const rom::StateSpace ss = rom::terminate_bus(bare, drive);
  rom::PrimaOptions opt;
  opt.order = 8;
  opt.expansion_rad_per_s = 20.0 / cir::bus_settle_time_s(topology, drive);
  opt.keep_basis = true;
  const std::vector<std::vector<double>> basis =
      rom::prima_reduce(ss, opt).basis();
  ASSERT_EQ(basis.size(), 8u);
  std::vector<cnti::numerics::SparseMatrix> parts;
  for (std::size_t k = 0; k < 6; ++k) {
    rom::BusTheta unit{};
    unit[k] = 1.0;
    parts.push_back(k < 3 ? bare.g(unit) : bare.c(unit));
  }
  std::vector<cnti::numerics::MatrixD> whole;
  for (const auto& a : parts) {
    whole.push_back(rom::detail::project_matrix(a, basis));
  }
  const cnti::numerics::MatrixD b_whole =
      rom::detail::project_ports(ss.b, basis);
  const cnti::numerics::MatrixD l_whole =
      rom::detail::project_ports(ss.l, basis);
  for (std::size_t q = 1; q < basis.size(); ++q) {
    SCOPED_TRACE(q);
    const std::vector<std::vector<double>> prefix(basis.begin(),
                                                  basis.begin() + q);
    for (std::size_t k = 0; k < parts.size(); ++k) {
      const cnti::numerics::MatrixD p =
          rom::detail::project_matrix(parts[k], prefix);
      for (std::size_t i = 0; i < q; ++i) {
        for (std::size_t j = 0; j < q; ++j) {
          ASSERT_EQ(p(i, j), whole[k](i, j));
        }
      }
    }
    const cnti::numerics::MatrixD b = rom::detail::project_ports(ss.b, prefix);
    const cnti::numerics::MatrixD l = rom::detail::project_ports(ss.l, prefix);
    for (std::size_t i = 0; i < q; ++i) {
      ASSERT_EQ(b(i, 0), b_whole(i, 0));
      for (std::size_t j = 0; j < l.cols(); ++j) {
        ASSERT_EQ(l(i, j), l_whole(i, j));
      }
    }
  }
}

TEST(ParamRom, OrderLoopEndsAtKrylovExhaustionAndAtTheCeiling) {
  // A 4 x 2 bus (20 states) runs out of new Krylov directions before the
  // estimate meets the bound: the loop keeps the last level, whose basis
  // spans the reachable states, so the model is exact to rounding. A
  // degenerate box on the 4 x 8 bus has one corner, so each level adds a
  // single vector and the loop stops at the 8-vector ceiling instead.
  cir::BusDrive drive;
  drive.driver_ohm = 3e3;
  drive.receiver_load_f = 0.5e-15;
  rom::BusScenario sc;
  sc.driver_ohm = drive.driver_ohm;
  sc.receiver_load_f = drive.receiver_load_f;
  rom::BusTechBox box;
  box.lo = {0.9, 0.9, 0.9};
  box.hi = {1.1, 1.1, 1.1};
  std::optional<rom::ParametrizedBusRom> small;
  ASSERT_NO_THROW(small.emplace(paper_bus(4, 2), box, drive));
  EXPECT_LT(small->order(), small->full_order());
  const rom::ParamRomValidation exact = small->validate_against_mna(sc, 3, 200);
  EXPECT_LE(exact.max_noise_rel_err, 1e-9);
  EXPECT_LE(exact.max_delay_rel_err, 1e-9);

  std::optional<rom::ParametrizedBusRom> single;
  ASSERT_NO_THROW(single.emplace(paper_bus(4, 8), rom::BusTechBox{}, drive));
  EXPECT_EQ(single->order(), 8);
  EXPECT_GT(rom_error_estimate(), 1e-5);
}

TEST(ParamRom, ErrorEstimateIsZeroAtKrylovExhaustion) {
  // On the 4 x 2 bus the level loop runs out of Krylov directions at
  // q = 17 of 20 states before any change between levels meets the bound.
  // The next level would be the kept one, so the estimate is 0, not the
  // 1.2e-4 change into the kept level, and the kept level stays q = 17,
  // exact against MNA to rounding.
  cir::BusDrive drive;
  drive.driver_ohm = 3e3;
  drive.receiver_load_f = 0.5e-15;
  rom::BusTechBox box;
  box.lo = {0.9, 0.9, 0.9};
  box.hi = {1.1, 1.1, 1.1};
  const rom::ParametrizedBusRom small(paper_bus(4, 2), box, drive);
  EXPECT_EQ(rom_error_estimate(), 0.0);
  EXPECT_EQ(small.order(), 17);
  EXPECT_EQ(small.full_order(), 20);
  rom::BusScenario sc;
  sc.driver_ohm = drive.driver_ohm;
  sc.receiver_load_f = drive.receiver_load_f;
  const rom::ParamRomValidation exact = small.validate_against_mna(sc, 3, 200);
  EXPECT_LE(exact.max_noise_rel_err, 1e-9);
  EXPECT_LE(exact.max_delay_rel_err, 1e-9);
}

TEST(ParamRom, DrivenRomAcceptsAZeroLoad) {
  // A zero receiver load is a zero coefficient in the driven corners and
  // stamps no capacitor in the full-MNA reference.
  const cir::BusTopology topology = paper_bus(4, 8);
  rom::BusTechBox box;
  box.lo = {0.9, 0.9, 0.9};
  box.hi = {1.1, 1.1, 1.1};
  cir::BusDrive drive;
  drive.driver_ohm = 3e3;
  drive.receiver_load_f = 0.0;
  const rom::ParametrizedBusRom prom(topology, box, drive);
  rom::BusScenario sc;
  sc.driver_ohm = drive.driver_ohm;
  sc.receiver_load_f = 0.0;
  const rom::ParamRomValidation v = prom.validate_against_mna(sc, 2, 200);
  EXPECT_EQ(v.probes, 2);
  EXPECT_LE(v.max_noise_rel_err, 1e-3);
  EXPECT_LE(v.max_delay_rel_err, 1e-3);

  drive.receiver_load_f = -1e-15;
  EXPECT_THROW(rom::ParametrizedBusRom(topology, box, drive),
               cnti::PreconditionError);
}

TEST(ParamRom, DrivenRomRejectsAMismatchedDrive) {
  const cir::BusTopology topology = paper_bus(4, 8);
  rom::BusTechBox box;
  box.lo = {0.9, 0.9, 0.9};
  box.hi = {1.1, 1.1, 1.1};
  cir::BusDrive drive;
  drive.driver_ohm = 3e3;
  drive.receiver_load_f = 0.5e-15;
  const rom::ParametrizedBusRom prom(topology, box, drive);

  rom::BusScenario sc;
  sc.driver_ohm = drive.driver_ohm;
  sc.receiver_load_f = drive.receiver_load_f;
  sc.vdd_v = 0.8;  // the stimulus is free: only the terminations are reduced
  EXPECT_NO_THROW(prom.evaluate(rom::BusTechPoint{}, sc, 100));
  rom::BusScenario other_driver = sc;
  other_driver.driver_ohm = 5e3;
  EXPECT_THROW(prom.evaluate(rom::BusTechPoint{}, other_driver, 100),
               cnti::PreconditionError);
  rom::BusScenario other_load = sc;
  other_load.receiver_load_f = 0.2e-15;
  EXPECT_THROW(prom.evaluate(rom::BusTechPoint{}, other_load, 100),
               cnti::PreconditionError);
}

TEST(ParamRom, WindowTracksTheTechnologyPoint) {
  // The simulated window must be bus_settle_time_s of the *scaled*
  // topology under the scenario's drive — receiver load included — so the
  // ROM grid can never diverge from the full-MNA grid at any sample.
  const cir::BusTopology topology = paper_bus(4, 8);
  rom::BusTechBox box;
  box.lo = {0.8, 0.8, 0.8};
  box.hi = {1.2, 1.2, 1.2};
  const rom::ParametrizedBusRom prom(topology, box);
  rom::BusScenario sc;
  sc.driver_ohm = 3e3;
  sc.receiver_load_f = 40e-15;
  const rom::BusTechPoint p{1.15, 0.85, 1.05};
  cir::BusDrive drive;
  drive.driver_ohm = sc.driver_ohm;
  drive.receiver_load_f = sc.receiver_load_f;
  drive.vdd_v = sc.vdd_v;
  drive.edge_time_s = sc.edge_time_s;
  EXPECT_EQ(prom.window_s(p, sc),
            cir::bus_settle_time_s(prom.topology_at(p), drive));
}

}  // namespace
