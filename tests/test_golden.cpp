// Golden regression pins, two families:
//  - Stochastic physics hot paths that the parallel execution subsystem
//    reworks (run_resistance_mc, WaferMap), captured from the serial,
//    seed-fixed implementation at the PR-2 baseline. Tolerances are set
//    from the statistical error of each estimator (20000 MC samples / 169
//    dies), so a reseeding of the sample streams passes but a physics
//    change (dropped contact term, wrong MFP combination, broken channel
//    lottery) fails.
//  - Deterministic MNA transients (crosstalk victim noise, the Fig. 11
//    driver->line->receiver chain delay, an RC ladder step response),
//    captured from the dense engine at the PR-3 baseline — verified
//    bit-identical to the pre-sparse-rework engine — and pinned through
//    BOTH backends so the sparse path cannot silently shift physics.
//    Tolerances (1e-6 relative) sit far above cross-compiler FP noise and
//    far below any physical shift.
#include <gtest/gtest.h>

#include <string>

#include "circuit/builders.hpp"
#include "circuit/crosstalk.hpp"
#include "circuit/mna.hpp"
#include "core/mwcnt_line.hpp"
#include "numerics/interp.hpp"
#include "numerics/rng.hpp"
#include "process/variability.hpp"
#include "process/wafer.hpp"

namespace cp = cnti::process;
namespace cir = cnti::circuit;

namespace {

cp::VariabilityResult run_mc(double doping_conc, double temperature_c) {
  cp::VariabilityConfig cfg;
  cfg.samples = 20000;
  cfg.dopant_concentration = doping_conc;
  cfg.recipe.temperature_c = temperature_c;
  return cp::run_resistance_mc(cfg);
}

TEST(GoldenVariability, PristineDefaultRecipe) {
  // Baseline capture: median=67.765, cv=0.831, p95=175.2, tail=0.0303,
  // open=0.1735.
  const auto r = run_mc(0.0, 450.0);
  EXPECT_NEAR(r.resistance_kohm.median, 67.77, 0.025 * 67.77);
  EXPECT_NEAR(r.resistance_kohm.cv(), 0.831, 0.08);
  EXPECT_NEAR(r.resistance_kohm.p95, 175.2, 0.06 * 175.2);
  EXPECT_NEAR(r.tail_fraction, 0.0303, 0.010);
  EXPECT_NEAR(r.open_fraction, 0.1735, 0.012);
}

TEST(GoldenVariability, SaturatedIodineDoping) {
  // Baseline capture: median=53.873, cv=0.514, tail=0.0114, open=0.
  const auto r = run_mc(1.0, 450.0);
  EXPECT_NEAR(r.resistance_kohm.median, 53.87, 0.025 * 53.87);
  EXPECT_NEAR(r.resistance_kohm.cv(), 0.514, 0.06);
  EXPECT_NEAR(r.tail_fraction, 0.0114, 0.008);
  EXPECT_EQ(r.open_fraction, 0.0);  // every doped shell conducts
}

TEST(GoldenVariability, HotGrowthPristine) {
  // Baseline capture: median=59.359, cv=0.638, open=0.1730. Hot growth
  // heals defects, so the median sits below the 450 C pristine value while
  // the chirality-lottery open fraction is unchanged.
  const auto r = run_mc(0.0, 620.0);
  EXPECT_NEAR(r.resistance_kohm.median, 59.36, 0.025 * 59.36);
  EXPECT_NEAR(r.resistance_kohm.cv(), 0.638, 0.08);
  EXPECT_NEAR(r.open_fraction, 0.1730, 0.012);
}

cp::WaferMap make_wafer(double noise_c) {
  cnti::numerics::Rng rng(2018);
  cp::WaferSpec spec;
  spec.temperature_noise_c = noise_c;
  cp::GrowthRecipe nominal;
  nominal.catalyst = cp::Catalyst::kCo;
  nominal.temperature_c = 400.0;
  return cp::WaferMap(spec, nominal, rng);
}

TEST(GoldenWafer, NoiseFreeMapIsFullyDeterministic) {
  // Diameter depends only on catalyst thickness and the deterministic
  // radial skew, so with zero temperature noise the whole map is pinned
  // exactly: 169 dies, uniformity 0.027340578, default yield 1.
  const auto w = make_wafer(0.0);
  EXPECT_EQ(w.dies().size(), 169u);
  EXPECT_NEAR(w.diameter_uniformity(), 0.027340578, 1e-7);
  EXPECT_DOUBLE_EQ(w.yield(), 1.0);
}

TEST(GoldenWafer, SeedFixedNoisyMapStatistics) {
  // Baseline capture (seed 2018): growth-rate mean=0.1391, cv=0.177,
  // yield at a 0.10 um/min floor = 0.9704.
  const auto w = make_wafer(2.0);
  EXPECT_EQ(w.dies().size(), 169u);
  // Diameter uniformity is noise-independent, still exact.
  EXPECT_NEAR(w.diameter_uniformity(), 0.027340578, 1e-7);
  const auto rate = w.summarize([](const cp::GrowthQuality& q) {
    return q.growth_rate_um_per_min;
  });
  EXPECT_NEAR(rate.mean, 0.1391, 0.010);
  EXPECT_NEAR(rate.cv(), 0.177, 0.05);
  EXPECT_NEAR(w.yield(0.10), 0.9704, 0.045);
}

// ---------------------------------------------------------------------------
// Deterministic MNA waveform pins (both linear backends).
// ---------------------------------------------------------------------------

class GoldenMnaWaveforms : public ::testing::TestWithParam<cir::SolverKind> {
 protected:
  cir::MnaOptions mna() const {
    cir::MnaOptions o;
    o.solver = GetParam();
    return o;
  }
};

TEST_P(GoldenMnaWaveforms, CrosstalkVictimNoisePeak) {
  // Baseline capture (dense, PR-3): peak_noise_v=1.368417963456e-01 at
  // t=1.733023193377e-10, aggressor delay 1.554552285844e-10.
  cir::CrosstalkConfig cfg;
  cfg.victim = cnti::core::make_paper_mwcnt(10, 4.0, 20e3).rlc();
  cfg.aggressor = cfg.victim;
  cfg.coupling_cap_per_m = 30e-12;
  cfg.length_m = 50e-6;
  cfg.segments = 12;
  cfg.mna = mna();
  const cir::CrosstalkResult xt = cir::analyze_crosstalk(cfg, 1200);
  EXPECT_NEAR(xt.peak_noise_v, 1.368417963456e-01, 1e-6 * 1.37e-1);
  EXPECT_NEAR(xt.peak_time_s, 1.733023193377e-10, 1e-6 * 1.73e-10);
  EXPECT_NEAR(xt.aggressor_delay_s, 1.554552285844e-10, 1e-6 * 1.55e-10);
}

TEST_P(GoldenMnaWaveforms, Fig11ChainDelay) {
  // Baseline capture (dense, PR-3): delay 4.620541880439e-10 s for a
  // 200 um doped line behind the 8x driver chain.
  cir::Fig11Options opt;
  opt.line = cnti::core::make_paper_mwcnt(10, 4.0, 100e3).rlc();
  opt.length_m = 200e-6;
  opt.segments = 12;
  opt.mna = mna();
  EXPECT_NEAR(cir::measure_fig11_delay(opt, 2000), 4.620541880439e-10,
              1e-6 * 4.62e-10);
}

TEST_P(GoldenMnaWaveforms, RcLadderStepResponse) {
  // Baseline capture (dense, PR-3): far-end t50=1.559068319698e-10;
  // v(200 ps)=6.266693699666e-01, v(400 ps)=9.008560833759e-01,
  // v(1 ns)=9.981431391287e-01.
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
  cir::NodeId far = 0;
  for (int s = 0; s < 30; ++s) {
    const std::string is = std::to_string(s);
    const auto n = ckt.node("n" + is);
    ckt.add_resistor("r" + is, prev, n, 200.0);
    ckt.add_capacitor("c" + is, n, 0, 2e-15);
    prev = n;
    far = n;
  }
  cir::TransientOptions topt;
  topt.t_stop_s = 1.0e-9;
  topt.dt_s = 0.5e-12;
  topt.mna = mna();
  const cir::TransientResult res = cir::simulate_transient(ckt, topt, {far});
  const auto& v = res.voltage(far);
  const double t50 = cnti::numerics::first_crossing_time(
      res.time(), v, 0.5, /*rising=*/true);
  EXPECT_NEAR(t50, 1.559068319698e-10, 1e-6 * 1.56e-10);
  EXPECT_NEAR(v[400], 6.266693699666e-01, 1e-6);
  EXPECT_NEAR(v[800], 9.008560833759e-01, 1e-6);
  EXPECT_NEAR(v.back(), 9.981431391287e-01, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(BothBackends, GoldenMnaWaveforms,
                         ::testing::Values(cir::SolverKind::kDense,
                                           cir::SolverKind::kSparse),
                         [](const auto& param) {
                           return param.param == cir::SolverKind::kDense
                                      ? "Dense"
                                      : "Sparse";
                         });

}  // namespace
