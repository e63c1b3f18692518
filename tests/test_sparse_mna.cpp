// Sparse circuit engine validation, in three parts:
//  1. SparseLu / CsrAssembler property tests — random diagonally-dominant
//     CSR systems and random RC-ladder MNA patterns are factored and
//     checked against the dense LuFactorization oracle to 1e-12; singular
//     inputs must throw NumericalError; refactorization must reuse the
//     symbolic analysis and survive pivot degradation by re-pivoting.
//  2. The dense-vs-sparse differential harness — every circuit scenario
//     (DC, an inverter VTC, RC/RLC/MOSFET transients, pair and bus
//     crosstalk) is run through both MNA backends and the full node
//     waveforms must agree to 1e-8 relative.
//  3. Path choice by linearity, by exact cnti.solver.* counts: a linear
//     circuit factors once per analysis and solves once per step, while a
//     MOSFET circuit keeps Newton and refactorizes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "circuit/builders.hpp"
#include "circuit/crosstalk.hpp"
#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "common/error.hpp"
#include "core/mwcnt_line.hpp"
#include "numerics/matrix.hpp"
#include "numerics/rng.hpp"
#include "numerics/sparse.hpp"
#include "numerics/sparse_lu.hpp"
#include "obs/obs.hpp"

namespace cir = cnti::circuit;
namespace cn = cnti::numerics;

namespace {

// ---------------------------------------------------------------------------
// SparseLu property tests against the dense oracle.
// ---------------------------------------------------------------------------

struct RandomSystem {
  cn::SparseMatrix sparse;
  cn::MatrixD dense;
  std::vector<double> b;
};

/// Random diagonally-dominant system with ~`offdiag_per_row` off-diagonal
/// entries per row, mirrored into a dense copy.
RandomSystem make_diag_dominant(cn::Rng& rng, std::size_t n,
                                int offdiag_per_row) {
  cn::SparseBuilder builder(n, n);
  cn::MatrixD dense(n, n);
  std::vector<double> row_sum(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = 0; k < offdiag_per_row; ++k) {
      const auto j = static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(n) - 1e-9));
      if (j == i) continue;
      const double v = rng.uniform(-1.0, 1.0);
      builder.add(i, j, v);
      dense(i, j) += v;
      row_sum[i] += std::abs(v);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double d = (row_sum[i] + 1.0) * (rng.uniform() < 0.5 ? -1.0 : 1.0);
    builder.add(i, i, d);
    dense(i, i) += d;
  }
  RandomSystem out;
  out.sparse = builder.build();
  out.dense = std::move(dense);
  out.b.resize(n);
  for (auto& v : out.b) v = rng.uniform(-2.0, 2.0);
  return out;
}

/// Random RC-ladder MNA pattern: a resistor chain with random shunts and a
/// voltage-source branch row appended — the classic [[G, B], [B^T, 0]]
/// saddle-point shape with a structurally zero branch diagonal, which
/// forces SparseLu's partial pivoting off the natural order.
RandomSystem make_rc_ladder_mna(cn::Rng& rng, std::size_t nodes) {
  const std::size_t n = nodes + 1;  // + one vsource branch current
  cn::SparseBuilder builder(n, n);
  cn::MatrixD dense(n, n);
  const auto add = [&](std::size_t r, std::size_t c, double v) {
    builder.add(r, c, v);
    dense(r, c) += v;
  };
  for (std::size_t i = 0; i + 1 < nodes; ++i) {
    const double g = 1.0 / rng.uniform(0.5, 50.0);  // series resistor
    add(i, i, g);
    add(i + 1, i + 1, g);
    add(i, i + 1, -g);
    add(i + 1, i, -g);
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    if (rng.uniform() < 0.5) add(i, i, 1.0 / rng.uniform(1.0, 100.0));
    add(i, i, 1e-12);  // gmin floor, as the MNA engine stamps it
  }
  // Voltage source at node 0: B columns/rows, zero branch diagonal.
  add(0, nodes, 1.0);
  add(nodes, 0, 1.0);
  RandomSystem out;
  out.sparse = builder.build();
  out.dense = std::move(dense);
  out.b.assign(n, 0.0);
  out.b[nodes] = rng.uniform(0.5, 2.0);  // source voltage
  return out;
}

void expect_matches_dense(const RandomSystem& sys, double tol) {
  const std::vector<double> x_sparse = cn::solve_sparse(sys.sparse, sys.b);
  const std::vector<double> x_dense =
      cn::LuFactorization<double>(sys.dense).solve(sys.b);
  double scale = 1.0;
  for (const double v : x_dense) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < x_dense.size(); ++i) {
    EXPECT_NEAR(x_sparse[i], x_dense[i], tol * scale) << "component " << i;
  }
}

TEST(SparseLu, FactorsRandomDiagonallyDominantSystems) {
  cn::Rng rng(42);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform(5.0, 120.0));
    const int offdiag = 1 + trial % 6;
    const RandomSystem sys = make_diag_dominant(rng, n, offdiag);
    expect_matches_dense(sys, 1e-12);
  }
}

TEST(SparseLu, FactorsRandomRcLadderMnaPatterns) {
  cn::Rng rng(2018);
  for (int trial = 0; trial < 40; ++trial) {
    const auto nodes = static_cast<std::size_t>(rng.uniform(3.0, 90.0));
    const RandomSystem sys = make_rc_ladder_mna(rng, nodes);
    expect_matches_dense(sys, 1e-12);
  }
}

TEST(SparseLu, SolvesMultipleRhsFromOneFactorization) {
  cn::Rng rng(7);
  const RandomSystem sys = make_diag_dominant(rng, 60, 4);
  cn::SparseLu lu;
  lu.factorize(sys.sparse);
  const cn::LuFactorization<double> dense_lu(sys.dense);
  for (int k = 0; k < 5; ++k) {
    std::vector<double> b(60);
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    const auto xs = lu.solve(b);
    const auto xd = dense_lu.solve(b);
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_NEAR(xs[i], xd[i], 1e-12);
    }
  }
}

TEST(SparseLu, NumericallySingularThrows) {
  cn::SparseBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 1, 1.0);  // rank 1
  cn::SparseLu lu;
  EXPECT_THROW(lu.factorize(builder.build()), cnti::NumericalError);
}

TEST(SparseLu, StructurallySingularThrows) {
  cn::SparseBuilder builder(3, 3);
  builder.add(0, 0, 2.0);
  builder.add(1, 1, 3.0);  // column 2 is empty
  builder.add(0, 1, 1.0);
  cn::SparseLu lu;
  EXPECT_THROW(lu.factorize(builder.build()), cnti::NumericalError);
}

TEST(SparseLu, ZeroPivotColumnThrows) {
  // Column 0 exists structurally but every entry is numerically zero.
  cn::SparseBuilder builder(2, 2);
  builder.add(0, 0, 0.0);
  builder.add(1, 0, 0.0);
  builder.add(0, 1, 1.0);
  builder.add(1, 1, 2.0);
  cn::SparseLu lu;
  EXPECT_THROW(lu.factorize(builder.build()), cnti::NumericalError);
}

TEST(SparseLu, RefactorizationReusesSymbolicAnalysis) {
  cn::Rng rng(11);
  RandomSystem sys = make_diag_dominant(rng, 50, 3);
  cn::SparseLu lu;
  lu.factorize(sys.sparse);
  EXPECT_FALSE(lu.reused_symbolic());

  // Same pattern, new values: must take the numeric-only path and still
  // agree with a dense factorization of the new values.
  cn::MatrixD dense(50, 50);
  auto& vals = sys.sparse.values();
  for (std::size_t r = 0; r < 50; ++r) {
    for (std::size_t k = sys.sparse.row_ptr()[r];
         k < sys.sparse.row_ptr()[r + 1]; ++k) {
      vals[k] *= rng.uniform(0.5, 1.5);
      dense(r, sys.sparse.col_indices()[k]) = vals[k];
    }
  }
  lu.factorize(sys.sparse);
  EXPECT_TRUE(lu.reused_symbolic());
  const auto xs = lu.solve(sys.b);
  const auto xd = cn::LuFactorization<double>(dense).solve(sys.b);
  double scale = 1.0;
  for (const double v : xd) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(xs[i], xd[i], 1e-12 * scale);
  }

  // A different pattern forces a fresh symbolic analysis.
  const RandomSystem other = make_diag_dominant(rng, 50, 5);
  lu.factorize(other.sparse);
  EXPECT_FALSE(lu.reused_symbolic());
}

TEST(SparseLu, RecoversAfterSingularFactorizationThrow) {
  // A successful factorization followed by a singular same-pattern update
  // must throw — and must NOT leave the object in a half-analyzed state:
  // solve() must reject it, and a later factorize() with good values must
  // rebuild from scratch and produce correct results.
  cn::SparseBuilder builder(2, 2);
  builder.add(0, 0, 4.0);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 1, 3.0);
  cn::SparseMatrix a = builder.build();
  cn::SparseLu lu;
  lu.factorize(a);

  cn::SparseMatrix singular = a;
  for (auto& v : singular.values()) v = 1.0;  // rank 1, same pattern
  EXPECT_THROW(lu.factorize(singular), cnti::NumericalError);
  EXPECT_FALSE(lu.analyzed());
  EXPECT_THROW(lu.solve({1.0, 2.0}), cnti::PreconditionError);

  lu.factorize(a);
  const auto x = lu.solve({5.0, 4.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);  // [[4,1],[1,3]] x = [5,4] -> [1,1]
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(SparseLu, RefactorizationRepivotsOnDegradedPivot) {
  // First factorization pivots on the dominant (0,0). The value update
  // shrinks that entry to 1e-14, so the reused pivot fails the threshold
  // test and factorize() must silently fall back to full re-pivoting.
  cn::SparseBuilder builder(2, 2);
  builder.add(0, 0, 10.0);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 1, 1.0);
  cn::SparseMatrix a = builder.build();
  cn::SparseLu lu;
  lu.factorize(a);

  cn::MatrixD dense(2, 2);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      if (r == 0 && a.col_indices()[k] == 0) a.values()[k] = 1e-14;
      dense(r, a.col_indices()[k]) = a.values()[k];
    }
  }
  lu.factorize(a);
  EXPECT_FALSE(lu.reused_symbolic());  // fell back to full factorization
  const std::vector<double> b = {1.0, 2.0};
  const auto xs = lu.solve(b);
  const auto xd = cn::LuFactorization<double>(dense).solve(b);
  EXPECT_NEAR(xs[0], xd[0], 1e-10);
  EXPECT_NEAR(xs[1], xd[1], 1e-10);
}

// ---------------------------------------------------------------------------
// CsrAssembler: pattern freeze + stamp-slot replay.
// ---------------------------------------------------------------------------

TEST(CsrAssembler, ReplayAccumulatesIntoFrozenPattern) {
  cn::CsrAssembler assembler(3);
  const auto stamp = [&](double scale) {
    assembler.begin();
    assembler.add(0, 0, 2.0 * scale);
    assembler.add(1, 1, 3.0 * scale);
    assembler.add(0, 1, -1.0 * scale);
    assembler.add(0, 0, 0.5 * scale);  // duplicate stamp, must sum
    assembler.add(2, 2, 1.0 * scale);
    return assembler.end();
  };
  const cn::SparseMatrix& first = stamp(1.0);
  EXPECT_TRUE(assembler.frozen());
  EXPECT_EQ(first.nnz(), 4u);  // duplicates collapse into one slot
  EXPECT_DOUBLE_EQ(first.at(0, 0), 2.5);

  const cn::SparseMatrix& second = stamp(2.0);
  EXPECT_DOUBLE_EQ(second.at(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(second.at(0, 1), -2.0);
  EXPECT_DOUBLE_EQ(second.at(1, 1), 6.0);
  EXPECT_EQ(second.nnz(), 4u);  // pattern unchanged
}

TEST(CsrAssembler, FirstAssemblySumsDuplicatesLikeEveryReplay) {
  // A linear circuit factors its first assembly and never a replay, so the
  // two must hold the same bits: duplicate stamps of mixed magnitude, whose
  // sum depends on the order, interleaved across a few entries.
  cn::Rng rng(5);
  std::vector<std::size_t> rows, cols;
  std::vector<double> vals;
  for (int k = 0; k < 200; ++k) {
    rows.push_back(static_cast<std::size_t>(k % 3));
    cols.push_back(static_cast<std::size_t>((k / 3) % 2));
    vals.push_back(rng.uniform(-1.0, 1.0) * std::pow(10.0, k % 7 - 3));
  }
  cn::CsrAssembler assembler(3);
  const auto stamp = [&] {
    assembler.begin();
    for (std::size_t k = 0; k < vals.size(); ++k) {
      assembler.add(rows[k], cols[k], vals[k]);
    }
    return assembler.end();
  };
  const std::vector<double> first = stamp().values();
  EXPECT_EQ(stamp().values(), first);
}

TEST(CsrAssembler, DivergingStampStreamThrows) {
  cn::CsrAssembler assembler(2);
  assembler.begin();
  assembler.add(0, 0, 1.0);
  assembler.add(1, 1, 1.0);
  assembler.end();

  assembler.begin();
  EXPECT_THROW(assembler.add(1, 0, 1.0), cnti::PreconditionError);
}

// ---------------------------------------------------------------------------
// Differential harness: every scenario through both MNA backends.
// ---------------------------------------------------------------------------

constexpr double kWaveformRelTol = 1e-8;

cir::MnaOptions dense_opts() {
  cir::MnaOptions o;
  o.solver = cir::SolverKind::kDense;
  return o;
}

/// The paper MWCNT line as a 50 um coupled bus.
cir::BusTopology mwcnt_bus(int lines, int segments) {
  cir::BusTopology t;
  t.line = cnti::core::make_paper_mwcnt(10, 4.0, 20e3).rlc();
  t.coupling_cap_per_m = 30e-12;
  t.length_m = 50e-6;
  t.lines = lines;
  t.segments = segments;
  return t;
}

cir::BusCrosstalkResult analyze_bus(const cir::BusTopology& topology,
                                    const cir::BusDrive& drive,
                                    int time_steps) {
  return cir::analyze_bus_crosstalk(cir::build_bus_netlist(topology),
                                    topology, drive, time_steps);
}

cir::MnaOptions sparse_opts() {
  cir::MnaOptions o;
  o.solver = cir::SolverKind::kSparse;
  return o;
}

/// Runs the transient with both backends and requires every node waveform
/// to agree to kWaveformRelTol relative to the largest voltage seen.
void expect_transient_agreement(const cir::Circuit& ckt,
                                cir::TransientOptions opt) {
  std::vector<cir::NodeId> every_node;
  for (cir::NodeId n = 0; n <= ckt.node_count(); ++n) every_node.push_back(n);
  opt.mna = dense_opts();
  const cir::TransientResult dense =
      cir::simulate_transient(ckt, opt, every_node);
  opt.mna = sparse_opts();
  const cir::TransientResult sparse =
      cir::simulate_transient(ckt, opt, every_node);

  ASSERT_EQ(dense.steps(), sparse.steps());
  double scale = 0.0;
  for (cir::NodeId n = 0; n <= ckt.node_count(); ++n) {
    for (const double v : dense.voltage(n)) {
      scale = std::max(scale, std::abs(v));
    }
  }
  scale = std::max(scale, 1e-6);
  double worst = 0.0;
  for (cir::NodeId n = 0; n <= ckt.node_count(); ++n) {
    const auto& vd = dense.voltage(n);
    const auto& vs = sparse.voltage(n);
    for (std::size_t i = 0; i < vd.size(); ++i) {
      worst = std::max(worst, std::abs(vd[i] - vs[i]));
    }
  }
  EXPECT_LE(worst / scale, kWaveformRelTol)
      << "worst abs divergence " << worst << " over scale " << scale;
}

cir::Circuit make_rc_ladder(int segments, double r_ohm, double c_f) {
  cir::Circuit ckt;
  cir::PulseWave pulse;
  pulse.v1 = 0.0;
  pulse.v2 = 1.0;
  pulse.delay_s = 10e-12;
  pulse.rise_s = 10e-12;
  pulse.fall_s = 10e-12;
  pulse.width_s = 1.0;
  pulse.period_s = 2.0;
  const auto in = ckt.node("in");
  ckt.add_vsource("vin", in, 0, pulse);
  cir::NodeId prev = in;
  for (int s = 0; s < segments; ++s) {
    const std::string is = std::to_string(s);
    const auto n = ckt.node("n" + is);
    ckt.add_resistor("r" + is, prev, n, r_ohm);
    ckt.add_capacitor("c" + is, n, 0, c_f);
    prev = n;
  }
  return ckt;
}

TEST(DenseSparseDifferential, RcLadderStepResponse) {
  const cir::Circuit ckt = make_rc_ladder(40, 150.0, 2e-15);
  cir::TransientOptions opt;
  opt.t_stop_s = 1.2e-9;
  opt.dt_s = 1e-12;
  expect_transient_agreement(ckt, opt);
}

TEST(DenseSparseDifferential, RlcLineWithInductors) {
  cir::Circuit ckt;
  cir::PulseWave pulse;
  pulse.v1 = 0.0;
  pulse.v2 = 1.0;
  pulse.delay_s = 20e-12;
  pulse.rise_s = 20e-12;
  pulse.fall_s = 20e-12;
  pulse.width_s = 1.0;
  pulse.period_s = 2.0;
  const auto in = ckt.node("in");
  ckt.add_vsource("vin", in, 0, pulse);
  cir::NodeId prev = in;
  for (int s = 0; s < 12; ++s) {
    const std::string is = std::to_string(s);
    const auto mid = ckt.node("m" + is);
    const auto n = ckt.node("n" + is);
    ckt.add_resistor("r" + is, prev, mid, 50.0);
    ckt.add_inductor("l" + is, mid, n, 10e-12);
    ckt.add_capacitor("c" + is, n, 0, 5e-15);
    prev = n;
  }
  cir::TransientOptions opt;
  opt.t_stop_s = 1e-9;
  opt.dt_s = 0.5e-12;
  expect_transient_agreement(ckt, opt);
}

TEST(DenseSparseDifferential, CurrentSourceDrivenGrid) {
  cir::Circuit ckt;
  const auto a = ckt.node("a");
  const auto b = ckt.node("b");
  const auto c = ckt.node("c");
  ckt.add_isource("i1", 0, a, cir::DcWave{1e-3});
  ckt.add_resistor("r1", a, b, 1e3);
  ckt.add_resistor("r2", b, c, 2e3);
  ckt.add_resistor("r3", c, 0, 3e3);
  ckt.add_resistor("r4", a, c, 4e3);
  ckt.add_capacitor("c1", b, 0, 1e-15);
  ckt.add_capacitor("c2", c, 0, 2e-15);
  cir::TransientOptions opt;
  opt.t_stop_s = 0.1e-9;
  opt.dt_s = 0.5e-12;
  expect_transient_agreement(ckt, opt);
}

TEST(DenseSparseDifferential, MosfetInverterChainTransient) {
  cir::Fig11Options opt;
  opt.line = cnti::core::make_paper_mwcnt(10, 4.0, 50e3).rlc();
  opt.length_m = 100e-6;
  opt.segments = 10;
  const cir::Fig11Circuit bench = cir::build_fig11_benchmark(opt);
  cir::TransientOptions topt;
  topt.t_stop_s = bench.pulse_period_s;
  topt.dt_s = topt.t_stop_s / 1500;
  expect_transient_agreement(bench.ckt, topt);
}

TEST(DenseSparseDifferential, DcOperatingPoint) {
  cir::Fig11Options fopt;
  fopt.line = cnti::core::make_paper_mwcnt(10, 4.0, 50e3).rlc();
  fopt.length_m = 100e-6;
  fopt.segments = 8;
  const cir::Fig11Circuit bench = cir::build_fig11_benchmark(fopt);
  const cir::DcResult dense = cir::solve_dc(bench.ckt, 0.0, dense_opts());
  const cir::DcResult sparse = cir::solve_dc(bench.ckt, 0.0, sparse_opts());
  ASSERT_EQ(dense.node_voltages.size(), sparse.node_voltages.size());
  for (std::size_t n = 0; n < dense.node_voltages.size(); ++n) {
    EXPECT_NEAR(dense.node_voltages[n], sparse.node_voltages[n], 1e-8);
  }
  ASSERT_EQ(dense.vsource_currents.size(), sparse.vsource_currents.size());
  for (std::size_t k = 0; k < dense.vsource_currents.size(); ++k) {
    EXPECT_NEAR(dense.vsource_currents[k], sparse.vsource_currents[k], 1e-8);
  }
}

TEST(DenseSparseDifferential, InverterVtcDcSweep) {
  cir::Circuit ckt;
  const cir::Technology45nm tech;
  const auto vdd = ckt.node("vdd");
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("vsupply", vdd, 0, cir::DcWave{tech.vdd_v});
  ckt.add_vsource("vi", in, 0, cir::DcWave{0.0});
  cir::add_inverter(ckt, "inv", in, out, vdd, tech);
  for (int i = 0; i <= 40; ++i) {
    ckt.set_vsource_wave(1, cir::DcWave{tech.vdd_v * i / 40});
    const auto o = static_cast<std::size_t>(out);
    EXPECT_NEAR(cir::solve_dc(ckt, 0.0, dense_opts()).node_voltages[o],
                cir::solve_dc(ckt, 0.0, sparse_opts()).node_voltages[o], 1e-8)
        << "point " << i;
  }
}

TEST(DenseSparseDifferential, CrosstalkPairNoisePeak) {
  cir::CrosstalkConfig cfg;
  cfg.victim = cnti::core::make_paper_mwcnt(10, 4.0, 20e3).rlc();
  cfg.aggressor = cfg.victim;
  cfg.coupling_cap_per_m = 30e-12;
  cfg.length_m = 50e-6;
  cfg.segments = 12;
  cfg.mna = dense_opts();
  const cir::CrosstalkResult dense = cir::analyze_crosstalk(cfg, 800);
  cfg.mna = sparse_opts();
  const cir::CrosstalkResult sparse = cir::analyze_crosstalk(cfg, 800);
  EXPECT_NEAR(dense.peak_noise_v, sparse.peak_noise_v,
              1e-8 * std::max(1.0, std::abs(dense.peak_noise_v)));
  EXPECT_NEAR(dense.aggressor_delay_s, sparse.aggressor_delay_s,
              1e-8 * dense.aggressor_delay_s + 1e-18);
}

TEST(DenseSparseDifferential, CoupledBusWorstVictim) {
  const cir::BusTopology topology = mwcnt_bus(5, 10);
  cir::BusDrive drive;
  // Off-centre aggressor: its two neighbours (edge line 0, interior line
  // 2) are structurally different, so the worst-victim argmax is not a
  // floating-point near-tie that the two backends could resolve
  // differently.
  drive.aggressor = 1;
  drive.mna = dense_opts();
  const cir::BusCrosstalkResult dense = analyze_bus(topology, drive, 600);
  drive.mna = sparse_opts();
  const cir::BusCrosstalkResult sparse = analyze_bus(topology, drive, 600);
  EXPECT_EQ(dense.worst_victim, sparse.worst_victim);
  EXPECT_EQ(dense.unknowns, sparse.unknowns);
  EXPECT_NEAR(dense.peak_noise_v, sparse.peak_noise_v,
              1e-8 * std::max(1.0, std::abs(dense.peak_noise_v)));
  // A neighbour of the aggressor must be the worst victim.
  EXPECT_EQ(std::abs(dense.worst_victim - drive.aggressor), 1);
}

TEST(DenseSparseDifferential, AutoRoutingMatchesExplicitBackends) {
  // kAuto switches to the sparse backend at 192 MNA unknowns: a ladder
  // below it must run bitwise the dense path, one above it bitwise the
  // sparse path. A ladder of s segments has s + 1 nodes and one source
  // branch.
  cir::TransientOptions opt;
  opt.t_stop_s = 0.5e-9;
  opt.dt_s = 1e-12;
  for (const int segments : {30, 200}) {
    SCOPED_TRACE(segments);
    const cir::Circuit ckt = make_rc_ladder(segments, 100.0, 1e-15);
    const bool sparse_side = segments + 2 >= 192;
    const auto last = ckt.node_count();
    opt.mna = cir::MnaOptions{};
    const auto routed = cir::simulate_transient(ckt, opt, {last});
    opt.mna = sparse_side ? sparse_opts() : dense_opts();
    const auto explicit_backend = cir::simulate_transient(ckt, opt, {last});
    opt.mna = sparse_side ? dense_opts() : sparse_opts();
    const auto other_backend = cir::simulate_transient(ckt, opt, {last});

    bool differs_from_other = false;
    for (std::size_t i = 0; i < routed.steps(); ++i) {
      EXPECT_EQ(routed.voltage(last)[i], explicit_backend.voltage(last)[i]);
      differs_from_other |=
          routed.voltage(last)[i] != other_backend.voltage(last)[i];
    }
    EXPECT_TRUE(differs_from_other);
  }
}

TEST(DenseSparseDifferential, SparseMatchesDenseOverLongCoupledBusTransient) {
  // Both backends factor a linear bus once and reuse the factors for
  // every step: over a long window the sparse path must still match the
  // dense oracle to the differential tolerance.
  const cir::BusTopology topology = mwcnt_bus(6, 16);
  cir::BusDrive drive;
  drive.aggressor = 2;

  drive.mna = sparse_opts();
  const cir::BusCrosstalkResult sparse = analyze_bus(topology, drive, 2000);
  drive.mna = dense_opts();
  const cir::BusCrosstalkResult dense = analyze_bus(topology, drive, 2000);

  EXPECT_EQ(sparse.worst_victim, dense.worst_victim);
  EXPECT_NEAR(sparse.peak_noise_v, dense.peak_noise_v,
              1e-8 * std::max(1.0, std::abs(dense.peak_noise_v)));
  EXPECT_NEAR(sparse.aggressor_delay_s, dense.aggressor_delay_s,
              1e-8 * dense.aggressor_delay_s + 1e-18);
}

// ---------------------------------------------------------------------------
// Path choice by linearity: exact solver counts.
// ---------------------------------------------------------------------------

/// cnti.solver.* counter values: factorizations, refactorizations, solves.
struct SolverCounts {
  std::uint64_t factorizations = 0, refactorizations = 0, solves = 0;

  static SolverCounts now() {
    return {cnti::obs::counter("cnti.solver.factorizations").value(),
            cnti::obs::counter("cnti.solver.refactorizations").value(),
            cnti::obs::counter("cnti.solver.solves").value()};
  }
  SolverCounts since(const SolverCounts& before) const {
    return {factorizations - before.factorizations,
            refactorizations - before.refactorizations,
            solves - before.solves};
  }
};

TEST(LinearMna, BusTransientFactorsOnceAndSolvesOncePerStep) {
  // A MOSFET-free bus: one factorization for the DC, one for the
  // transient, then one solve per step (plus the DC's) and no
  // refactorization.
  constexpr int kSteps = 60;
  cir::BusDrive drive;
  drive.mna = sparse_opts();
  const cir::BusTopology topology = mwcnt_bus(4, 12);
  const SolverCounts before = SolverCounts::now();
  analyze_bus(topology, drive, kSteps);
  const SolverCounts d = SolverCounts::now().since(before);
  EXPECT_EQ(d.factorizations, 2u);
  EXPECT_EQ(d.refactorizations, 0u);
  EXPECT_EQ(d.solves, static_cast<std::uint64_t>(kSteps) + 1);
}

TEST(LinearMna, OutOfRangeProbeIsRejectedBeforeAnyFactorization) {
  const cir::Circuit ckt = make_rc_ladder(300, 100.0, 1e-15);
  cir::TransientOptions opt;
  opt.t_stop_s = 0.1e-9;
  opt.dt_s = 1e-12;
  opt.mna = sparse_opts();
  const SolverCounts before = SolverCounts::now();
  EXPECT_THROW(cir::simulate_transient(ckt, opt, {1, ckt.node_count() + 1}),
               cnti::PreconditionError);
  const SolverCounts d = SolverCounts::now().since(before);
  EXPECT_EQ(d.factorizations, 0u);
  EXPECT_EQ(d.solves, 0u);
  // The same call with the probe in range runs 2 factorizations.
  cir::simulate_transient(ckt, opt, {1, ckt.node_count()});
  EXPECT_EQ(SolverCounts::now().since(before).factorizations, 2u);
}

TEST(LinearMna, DcIsOneSolveOnBothBackends) {
  const cir::Circuit ckt = make_rc_ladder(30, 100.0, 1e-15);
  for (const cir::MnaOptions& mna : {dense_opts(), sparse_opts()}) {
    const SolverCounts before = SolverCounts::now();
    const cir::DcResult dc = cir::solve_dc(ckt, 0.0, mna);
    const SolverCounts d = SolverCounts::now().since(before);
    EXPECT_EQ(dc.newton_iterations, 1);
    if (mna.solver == cir::SolverKind::kSparse) {
      EXPECT_EQ(d.factorizations, 1u);
      EXPECT_EQ(d.refactorizations, 0u);
      EXPECT_EQ(d.solves, 1u);
    }
  }
}

TEST(LinearMna, MosfetChainKeepsNewtonAndRefactorizes) {
  // The Fig. 11 inverter chain is nonlinear: DC walks the g_min ladder
  // with several Newton iterations, refactorizing on the frozen pattern.
  cir::Fig11Options fopt;
  fopt.line = cnti::core::make_paper_mwcnt(10, 4.0, 50e3).rlc();
  fopt.length_m = 100e-6;
  fopt.segments = 8;
  const cir::Fig11Circuit bench = cir::build_fig11_benchmark(fopt);
  const SolverCounts before = SolverCounts::now();
  const cir::DcResult dc = cir::solve_dc(bench.ckt, 0.0, sparse_opts());
  const SolverCounts d = SolverCounts::now().since(before);
  EXPECT_GT(dc.newton_iterations, 1);
  EXPECT_GT(d.refactorizations, 0u);
  EXPECT_EQ(d.factorizations + d.refactorizations, d.solves);
}

}  // namespace
