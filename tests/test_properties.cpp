// Parameterized property suites (TEST_P): invariants checked across
// swept parameter spaces rather than at hand-picked points.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "atomistic/bandstructure.hpp"
#include "atomistic/landauer.hpp"
#include "atomistic/negf.hpp"
#include "atomistic/swcnt_geometry.hpp"
#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "circuit/waveform.hpp"
#include "common/constants.hpp"
#include "core/mwcnt_line.hpp"
#include "core/repeater.hpp"
#include "materials/composite.hpp"
#include "materials/copper.hpp"
#include "numerics/rng.hpp"
#include "process/cvd.hpp"
#include "tcad/field_solver.hpp"
#include "thermal/em.hpp"
#include "thermal/heat1d.hpp"

namespace ca = cnti::atomistic;
namespace cc = cnti::core;
namespace cm = cnti::materials;
namespace cir = cnti::circuit;
namespace ct = cnti::tcad;
namespace th = cnti::thermal;
namespace cp = cnti::process;
namespace cn = cnti::numerics;

namespace {

// ---------------------------------------------------------------------------
// Chirality invariants across tube families.
// ---------------------------------------------------------------------------

class ChiralityProperties
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ChiralityProperties, GeometricIdentities) {
  const auto [n, m] = GetParam();
  const ca::Chirality ch(n, m);
  // d = |C_h| / pi.
  EXPECT_NEAR(ch.diameter(), ch.circumference() / M_PI, 1e-18);
  // |T| = sqrt(3) |C_h| / d_R.
  EXPECT_NEAR(ch.translation_length(),
              std::sqrt(3.0) * ch.circumference() / ch.d_r(), 1e-18);
  // T is orthogonal to C_h: t1*(2n+m) + t2*(2m+n) == 0 (lattice algebra).
  EXPECT_EQ(ch.t1() * (2 * n + m) + ch.t2() * (2 * m + n), 0);
  // Atom count is positive and even.
  EXPECT_GT(ch.atoms_per_cell(), 0);
  EXPECT_EQ(ch.atoms_per_cell() % 2, 0);
}

TEST_P(ChiralityProperties, MetallicityMatchesBandGap) {
  const auto [n, m] = GetParam();
  const ca::Chirality ch(n, m);
  const ca::BandStructure bands(ch);
  if (ch.is_metallic()) {
    EXPECT_NEAR(bands.band_gap(), 0.0, 1e-3) << ch.label();
  } else {
    EXPECT_GT(bands.band_gap(), 0.05) << ch.label();
  }
}

TEST_P(ChiralityProperties, ModeCountElectronHoleSymmetric) {
  const auto [n, m] = GetParam();
  const ca::BandStructure bands(ca::Chirality(n, m));
  for (double e : {0.3, 0.9, 1.7, 2.5}) {
    EXPECT_EQ(bands.count_modes(e), bands.count_modes(-e));
  }
}

TEST_P(ChiralityProperties, LatticeIsThreeCoordinated) {
  const auto [n, m] = GetParam();
  const ca::Chirality ch(n, m);
  // Constructor asserts 3-coordination and the atom count internally.
  const ca::TubeHamiltonian h(ch);
  EXPECT_EQ(h.atoms_per_cell(), ch.atoms_per_cell());
}

INSTANTIATE_TEST_SUITE_P(
    TubeFamilies, ChiralityProperties,
    ::testing::Values(std::pair{4, 4}, std::pair{7, 7}, std::pair{10, 10},
                      std::pair{9, 0}, std::pair{10, 0}, std::pair{13, 0},
                      std::pair{6, 3}, std::pair{7, 4}, std::pair{8, 2},
                      std::pair{9, 6}),
    [](const auto& p) {
      return "n" + std::to_string(p.param.first) + "m" +
             std::to_string(p.param.second);
    });

// ---------------------------------------------------------------------------
// NEGF == zone-folding equivalence for pristine devices.
// ---------------------------------------------------------------------------

class NegfEquivalence
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(NegfEquivalence, TransmissionEqualsModeCount) {
  const auto [n, m] = GetParam();
  const ca::Chirality ch(n, m);
  const ca::TubeHamiltonian h(ch);
  const ca::BandStructure bands(ch);
  const ca::NegfSolver solver(h, 1);
  for (double e : {0.15, 0.7, 1.3}) {
    EXPECT_NEAR(solver.transmission(e), bands.count_modes(e), 0.03)
        << ch.label() << " at E = " << e;
  }
}

TEST_P(NegfEquivalence, VacancyNeverIncreasesTransmission) {
  const auto [n, m] = GetParam();
  const ca::Chirality ch(n, m);
  const ca::TubeHamiltonian h(ch);
  ca::NegfSolver pristine(h, 2);
  ca::NegfSolver damaged(h, 2);
  ca::CellPerturbation p;
  p.onsite_shift_ev.assign(h.atoms_per_cell(), 0.0);
  p.onsite_shift_ev[1] = 1e3;
  damaged.set_perturbation(0, p);
  for (double e : {0.2, 0.8}) {
    EXPECT_LE(damaged.transmission(e), pristine.transmission(e) + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(SmallTubes, NegfEquivalence,
                         ::testing::Values(std::pair{4, 4}, std::pair{6, 6},
                                           std::pair{9, 0},
                                           std::pair{6, 3}),
                         [](const auto& p) {
                           return "n" + std::to_string(p.param.first) +
                                  "m" + std::to_string(p.param.second);
                         });

TEST(NegfSymmetry, TransmissionElectronHoleSymmetric) {
  // Nearest-neighbour tight binding on the bipartite CNT lattice is
  // particle-hole symmetric, so pristine transmission is even in energy.
  const ca::Chirality ch(5, 5);
  const ca::TubeHamiltonian h(ch);
  ca::NegfSolver solver(h, 1);
  for (double e : {0.3, 0.9, 1.5}) {
    EXPECT_NEAR(solver.transmission(e), solver.transmission(-e), 0.03)
        << "E = " << e;
  }
}

// ---------------------------------------------------------------------------
// MWCNT compact-model scaling laws over (D, L).
// ---------------------------------------------------------------------------

class MwcntScaling
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(MwcntScaling, ResistanceLawsHold) {
  const auto [d_nm, l_um] = GetParam();
  const double l = l_um * 1e-6;
  const cc::MwcntLine line2 = cc::make_paper_mwcnt(d_nm, 2, 0.0);
  const cc::MwcntLine line4 = cc::make_paper_mwcnt(d_nm, 4, 0.0);
  // Doping with 2x channels exactly halves R (ideal contacts).
  EXPECT_NEAR(line4.resistance(l), line2.resistance(l) / 2.0,
              1e-9 * line2.resistance(l));
  // Sub-additivity in length: R(2L) <= 2 R(L) (ballistic part paid once).
  EXPECT_LE(line2.resistance(2 * l), 2.0 * line2.resistance(l) + 1e-9);
  // Monotone in length.
  EXPECT_GT(line2.resistance(2 * l), line2.resistance(l));
}

TEST_P(MwcntScaling, CapacitanceBounds) {
  const auto [d_nm, l_um] = GetParam();
  (void)l_um;
  const cc::MwcntLine line = cc::make_paper_mwcnt(d_nm, 2);
  const double ce = line.spec().electrostatic_capacitance_f_per_m;
  // Eq. 5 series: strictly below C_E, above 2/3 C_E for any real design.
  EXPECT_LT(line.capacitance_per_m(), ce);
  EXPECT_GT(line.capacitance_per_m(), 0.66 * ce);
}

TEST_P(MwcntScaling, ConductivitySaturates) {
  const auto [d_nm, l_um] = GetParam();
  const cc::MwcntLine line = cc::make_paper_mwcnt(d_nm, 2, 0.0);
  const double l = l_um * 1e-6;
  // sigma(L) is increasing and below the L -> inf limit
  // sigma_inf = sum(Nc G0 lambda) / A.
  const double area = M_PI * d_nm * d_nm * 1e-18 / 4.0;
  const double sigma_inf = line.total_channels() *
                           cnti::phys::kConductanceQuantum *
                           (1000.0 * d_nm * 1e-9) / area;
  EXPECT_LT(line.effective_conductivity(l), sigma_inf);
  EXPECT_LT(line.effective_conductivity(l),
            line.effective_conductivity(2 * l));
}

INSTANTIATE_TEST_SUITE_P(
    DiameterLengthGrid, MwcntScaling,
    ::testing::Combine(::testing::Values(5.0, 10.0, 14.0, 22.0),
                       ::testing::Values(1.0, 10.0, 100.0, 1000.0)));

// ---------------------------------------------------------------------------
// Cu size effects monotone in dimensions.
// ---------------------------------------------------------------------------

class CuSizeEffects : public ::testing::TestWithParam<double> {};

TEST_P(CuSizeEffects, ResistivityAboveBulkAndMonotone) {
  const double w_nm = GetParam();
  cm::CuLineSpec spec;
  spec.width_m = w_nm * 1e-9;
  spec.height_m = 2.0 * spec.width_m;
  const double rho = cm::cu_effective_resistivity(spec);
  EXPECT_GE(rho, cnti::cuconst::kBulkResistivity);
  // Wider wire of the same family has lower resistivity.
  cm::CuLineSpec wider = spec;
  wider.width_m *= 1.5;
  wider.height_m *= 1.5;
  EXPECT_LT(cm::cu_effective_resistivity(wider), rho);
  // Temperature monotonicity.
  cm::CuLineSpec hot = spec;
  hot.temperature_k = 380.0;
  EXPECT_GT(cm::cu_effective_resistivity(hot), rho);
}

INSTANTIATE_TEST_SUITE_P(Widths, CuSizeEffects,
                         ::testing::Values(8.0, 12.0, 22.0, 45.0, 90.0,
                                           180.0));

// ---------------------------------------------------------------------------
// Maxwell capacitance matrix properties on randomized structures.
// ---------------------------------------------------------------------------

class MaxwellMatrix : public ::testing::TestWithParam<unsigned> {};

TEST_P(MaxwellMatrix, SymmetricDominantNeutral) {
  cn::Rng rng(GetParam());
  ct::Structure s(ct::Grid3D::uniform(0.4e-6, 0.4e-6, 0.3e-6, 11, 11, 9),
                  1.0 + 3.0 * rng.uniform());
  // Two or three random non-overlapping bars.
  const int nc = 2 + (rng.bernoulli(0.5) ? 1 : 0);
  for (int c = 0; c < nc; ++c) {
    const double x0 = 0.02e-6 + 0.12e-6 * c;
    const double y0 = 0.05e-6 + 0.1e-6 * rng.uniform();
    const double z0 = 0.05e-6 + 0.1e-6 * rng.uniform();
    s.add_conductor("c" + std::to_string(c),
                    {x0, x0 + 0.06e-6, y0, y0 + 0.15e-6, z0,
                     z0 + 0.08e-6});
  }
  const auto caps = ct::extract_capacitance(s);
  double frob = 0.0;
  for (int i = 0; i < nc; ++i) {
    for (int j = 0; j < nc; ++j) {
      frob = std::max(frob, std::abs(caps.matrix(i, j)));
    }
  }
  for (int i = 0; i < nc; ++i) {
    EXPECT_GT(caps.matrix(i, i), 0.0);
    double row_sum = 0.0;
    for (int j = 0; j < nc; ++j) {
      row_sum += caps.matrix(i, j);
      if (i != j) {
        EXPECT_LE(caps.matrix(i, j), 1e-22);
        EXPECT_NEAR(caps.matrix(i, j), caps.matrix(j, i), 0.03 * frob);
      }
    }
    // Neumann outer boundary conserves charge: rows sum to ~0.
    EXPECT_NEAR(row_sum, 0.0, 0.02 * frob);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxwellMatrix,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// ---------------------------------------------------------------------------
// MNA passivity on randomized RC ladders.
// ---------------------------------------------------------------------------

class MnaPassivity : public ::testing::TestWithParam<unsigned> {};

TEST_P(MnaPassivity, RcNetworkStaysWithinSourceBounds) {
  cn::Rng rng(GetParam());
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  cir::PulseWave pulse;
  pulse.v2 = 1.0;
  pulse.delay_s = 20e-12;
  pulse.rise_s = 10e-12;
  pulse.fall_s = 10e-12;
  pulse.width_s = 400e-12;
  pulse.period_s = 1e-9;
  ckt.add_vsource("v1", in, 0, pulse);

  cir::NodeId prev = in;
  const int n = 4 + rng.uniform_int(0, 4);
  for (int i = 0; i < n; ++i) {
    const auto node = ckt.node("n" + std::to_string(i));
    ckt.add_resistor("r" + std::to_string(i), prev, node,
                     rng.uniform(0.5e3, 20e3));
    ckt.add_capacitor("c" + std::to_string(i), node, 0,
                      rng.uniform(0.1e-15, 5e-15));
    prev = node;
  }
  cir::TransientOptions opt;
  opt.t_stop_s = 1e-9;
  opt.dt_s = 0.5e-12;
  std::vector<cir::NodeId> internal;
  for (int i = 0; i < n; ++i) {
    internal.push_back(ckt.node("n" + std::to_string(i)));
  }
  const auto res = cir::simulate_transient(ckt, opt, internal);
  // Passivity: every internal node stays within [0 - eps, 1 + eps].
  for (const cir::NodeId node : internal) {
    const auto& v = res.voltage(node);
    for (double x : v) {
      EXPECT_GE(x, -1e-3);
      EXPECT_LE(x, 1.0 + 1e-3);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MnaPassivity,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// ---------------------------------------------------------------------------
// Black's equation scaling over the (j, T) grid.
// ---------------------------------------------------------------------------

class BlackScaling
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(BlackScaling, PowerLawAndArrhenius) {
  const auto [j, t] = GetParam();
  th::BlackParams p;
  const double base = th::black_mttf_s(j, t, p);
  // j^-n law with n = 2.
  EXPECT_NEAR(th::black_mttf_s(2.0 * j, t, p), base / 4.0, 1e-6 * base);
  // Arrhenius consistency: ln ratio equals Ea/k (1/T1 - 1/T2).
  const double t2 = t + 40.0;
  const double expected =
      std::exp(p.activation_energy_ev * cnti::phys::kElectronVolt /
               cnti::phys::kBoltzmann * (1.0 / t - 1.0 / t2));
  EXPECT_NEAR(base / th::black_mttf_s(j, t2, p), expected,
              1e-6 * expected);
}

INSTANTIATE_TEST_SUITE_P(
    StressGrid, BlackScaling,
    ::testing::Combine(::testing::Values(0.5e10, 1e10, 3e10),
                       ::testing::Values(330.0, 378.0, 450.0)));

// ---------------------------------------------------------------------------
// Self-heating scaling laws.
// ---------------------------------------------------------------------------

class SelfHeatScaling
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SelfHeatScaling, QuadraticInCurrentQuadraticInLength) {
  const auto [k, i_ua] = GetParam();
  th::LineThermalSpec spec;
  spec.length_m = 1e-6;
  spec.cross_section_m2 = 4.4e-17;
  spec.thermal_conductivity = k;
  spec.resistance_per_m = 2e10;
  const double i = i_ua * 1e-6;
  const auto base = th::solve_self_heating(spec, i, 201);
  // dT ~ I^2 (no TCR).
  const auto twice_i = th::solve_self_heating(spec, 2.0 * i, 201);
  EXPECT_NEAR(twice_i.peak_rise_k, 4.0 * base.peak_rise_k,
              0.02 * twice_i.peak_rise_k);
  // dT ~ L^2.
  auto long_spec = spec;
  long_spec.length_m *= 2.0;
  const auto twice_l = th::solve_self_heating(long_spec, i, 201);
  EXPECT_NEAR(twice_l.peak_rise_k, 4.0 * base.peak_rise_k,
              0.02 * twice_l.peak_rise_k);
  // dT ~ 1/k.
  auto stiff = spec;
  stiff.thermal_conductivity *= 2.0;
  EXPECT_NEAR(th::solve_self_heating(stiff, i, 201).peak_rise_k,
              base.peak_rise_k / 2.0, 0.02 * base.peak_rise_k);
}

INSTANTIATE_TEST_SUITE_P(
    KCurrentGrid, SelfHeatScaling,
    ::testing::Combine(::testing::Values(385.0, 3000.0, 10000.0),
                       ::testing::Values(5.0, 15.0)));

// ---------------------------------------------------------------------------
// Composite bounds over the volume-fraction sweep.
// ---------------------------------------------------------------------------

class CompositeBounds : public ::testing::TestWithParam<double> {};

TEST_P(CompositeBounds, PhysicalBracketsAndMonotonicity) {
  const double vf = GetParam();
  cm::CompositeSpec spec;
  spec.cnt_volume_fraction = vf;
  spec.void_fraction = 0.0;
  const double sigma = cm::composite_conductivity(spec);
  EXPECT_GT(sigma, 0.0);
  const double jmax = cm::composite_max_current_density(spec);
  EXPECT_GE(jmax, cnti::cuconst::kEmCurrentDensityLimit - 1.0);
  EXPECT_LE(jmax, cnti::cntconst::kCntMaxCurrentDensity);
  EXPECT_GE(cm::composite_em_lifetime_factor(spec), 1.0);
  // More CNT -> more ampacity (monotone).
  cm::CompositeSpec more = spec;
  more.cnt_volume_fraction = std::min(0.95, vf + 0.1);
  EXPECT_GE(cm::composite_max_current_density(more), jmax);
}

INSTANTIATE_TEST_SUITE_P(Fractions, CompositeBounds,
                         ::testing::Values(0.0, 0.1, 0.25, 0.4, 0.6,
                                           0.8));

// ---------------------------------------------------------------------------
// Growth model monotone in temperature; Co dominates Fe at low T.
// ---------------------------------------------------------------------------

class GrowthMonotone : public ::testing::TestWithParam<double> {};

TEST_P(GrowthMonotone, ArrheniusTrendsAndCatalystOrdering) {
  const double t_c = GetParam();
  cp::GrowthRecipe fe;
  fe.temperature_c = t_c;
  cp::GrowthRecipe co = fe;
  co.catalyst = cp::Catalyst::kCo;
  const auto qf = cp::evaluate_recipe(fe);
  const auto qc = cp::evaluate_recipe(co);
  // Co never grows slower than Fe below 500 C (lower activation onset).
  if (t_c <= 500.0) {
    EXPECT_GE(qc.growth_rate_um_per_min, qf.growth_rate_um_per_min);
  }
  // Hotter is faster and cleaner for the same catalyst.
  cp::GrowthRecipe hotter = fe;
  hotter.temperature_c = t_c + 50.0;
  const auto qh = cp::evaluate_recipe(hotter);
  EXPECT_GT(qh.growth_rate_um_per_min, qf.growth_rate_um_per_min);
  EXPECT_GT(qh.defect_spacing_um, qf.defect_spacing_um);
}

INSTANTIATE_TEST_SUITE_P(Temperatures, GrowthMonotone,
                         ::testing::Values(350.0, 400.0, 450.0, 500.0,
                                           600.0));

// ---------------------------------------------------------------------------
// Waveform properties across pulse configurations.
// ---------------------------------------------------------------------------

class PulseProperties
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(PulseProperties, BoundedAndPeriodic) {
  const auto [rise_ps, width_ps] = GetParam();
  cir::PulseWave p;
  p.v1 = -0.2;
  p.v2 = 1.1;
  p.delay_s = 30e-12;
  p.rise_s = rise_ps * 1e-12;
  p.fall_s = rise_ps * 1e-12;
  p.width_s = width_ps * 1e-12;
  p.period_s = 2.0 * (width_ps + 2.0 * rise_ps) * 1e-12;
  const cir::Waveform w = p;
  for (int i = 0; i <= 200; ++i) {
    const double t = i * p.period_s / 50.0;
    const double v = cir::waveform_value(w, t);
    EXPECT_GE(v, p.v1 - 1e-12);
    EXPECT_LE(v, p.v2 + 1e-12);
    // Periodicity after the delay.
    if (t > p.delay_s) {
      EXPECT_NEAR(v, cir::waveform_value(w, t + p.period_s), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EdgeGrid, PulseProperties,
    ::testing::Combine(::testing::Values(1.0, 10.0, 50.0),
                       ::testing::Values(100.0, 500.0)));

// ---------------------------------------------------------------------------
// Repeater optimality over line lengths.
// ---------------------------------------------------------------------------

class RepeaterOptimality : public ::testing::TestWithParam<double> {};

TEST_P(RepeaterOptimality, OptimizedNeverWorseAndMonotoneInLength) {
  const double l_mm = GetParam();
  const auto line = cc::make_paper_mwcnt(10, 2, 50e3).rlc();
  const auto plan = cc::optimize_repeaters(line, l_mm * 1e-3);
  EXPECT_LE(plan.total_delay_s, plan.unrepeated_delay_s + 1e-18);
  // Perturbing the optimum (one more/fewer repeater at same size) never
  // improves the delay.
  cc::RepeaterLibrary lib;
  if (plan.count > 1) {
    EXPECT_GE(cc::repeated_line_delay(line, l_mm * 1e-3, plan.count - 1,
                                      plan.size, lib),
              plan.total_delay_s - 1e-18);
  }
  EXPECT_GE(cc::repeated_line_delay(line, l_mm * 1e-3, plan.count + 1,
                                    plan.size, lib),
            plan.total_delay_s - 1e-18);
}

INSTANTIATE_TEST_SUITE_P(Lengths, RepeaterOptimality,
                         ::testing::Values(0.2, 1.0, 2.0, 5.0, 10.0));

}  // namespace
