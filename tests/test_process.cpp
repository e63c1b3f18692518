// Tests for the process module: CVD growth model trends, composite fill,
// the variability Monte Carlo (doping suppresses spread — the paper's
// central claim) and wafer maps.
#include <gtest/gtest.h>

#include <cmath>

#include "numerics/rng.hpp"
#include "process/composite_process.hpp"
#include "process/cvd.hpp"
#include "process/variability.hpp"
#include "process/wafer.hpp"

namespace cp = cnti::process;

namespace {

TEST(Cvd, PaperNominalTube) {
  // 1 nm catalyst film -> ~7.5 nm MWCNT with 4-5 walls (paper Sec. II.A).
  cp::GrowthRecipe recipe;
  const auto q = cp::evaluate_recipe(recipe);
  EXPECT_NEAR(q.mean_diameter_nm, 7.5, 0.1);
  EXPECT_GE(q.mean_walls, 4.0);
  EXPECT_LE(q.mean_walls, 5.0);
}

TEST(Cvd, HotterGrowthIsFasterAndCleaner) {
  cp::GrowthRecipe cold;
  cold.temperature_c = 400.0;
  cp::GrowthRecipe hot = cold;
  hot.temperature_c = 600.0;
  const auto qc = cp::evaluate_recipe(cold);
  const auto qh = cp::evaluate_recipe(hot);
  EXPECT_GT(qh.growth_rate_um_per_min, qc.growth_rate_um_per_min);
  EXPECT_GT(qh.defect_spacing_um, qc.defect_spacing_um);
  EXPECT_LT(qh.tortuosity, qc.tortuosity);
}

TEST(Cvd, CoEnablesCmosCompatibleGrowth) {
  // At 400 C (the BEOL budget), Co must clearly outperform Fe (Sec. II.B).
  cp::GrowthRecipe fe;
  fe.temperature_c = 400.0;
  fe.catalyst = cp::Catalyst::kFe;
  cp::GrowthRecipe co = fe;
  co.catalyst = cp::Catalyst::kCo;
  const auto qf = cp::evaluate_recipe(fe);
  const auto qc = cp::evaluate_recipe(co);
  EXPECT_GT(qc.growth_rate_um_per_min, 2.0 * qf.growth_rate_um_per_min);
  EXPECT_GT(qc.via_fill_yield, qf.via_fill_yield);
  EXPECT_TRUE(qc.cmos_compatible_temperature);
}

TEST(Cvd, SampledTubesFollowTheQuality) {
  cp::GrowthRecipe recipe;
  const auto q = cp::evaluate_recipe(recipe);
  cnti::numerics::Rng rng(17);
  double d_sum = 0.0;
  int filled = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto t = cp::sample_tube(q, rng);
    d_sum += t.diameter_nm;
    filled += t.via_filled ? 1 : 0;
    EXPECT_GE(t.walls, 1);
    EXPECT_GT(t.defect_spacing_um, 0.0);
  }
  EXPECT_NEAR(d_sum / n, q.mean_diameter_nm, 0.4);
  EXPECT_NEAR(static_cast<double>(filled) / n, q.via_fill_yield, 0.03);
}

TEST(Cvd, ThickerCatalystGrowsFatterTubes) {
  cp::GrowthRecipe thin;
  thin.catalyst_thickness_nm = 0.5;
  cp::GrowthRecipe thick = thin;
  thick.catalyst_thickness_nm = 2.0;
  EXPECT_GT(cp::evaluate_recipe(thick).mean_diameter_nm,
            cp::evaluate_recipe(thin).mean_diameter_nm);
}

TEST(Cvd, RejectsUnphysicalRecipes) {
  cp::GrowthRecipe bad;
  bad.temperature_c = 50.0;
  EXPECT_THROW(cp::evaluate_recipe(bad), cnti::PreconditionError);
}

TEST(Composite, EcdNeedsConductiveSubstrate) {
  cp::FillRecipe recipe;
  recipe.method = cp::FillMethod::kEcd;
  recipe.conductive_substrate = false;
  const auto out = cp::simulate_fill(recipe, 0.3);
  EXPECT_FALSE(out.feasible);
}

TEST(Composite, HaNeedsPreparation) {
  cp::FillRecipe recipe;
  recipe.alignment = cp::CntAlignment::kHorizontal;
  recipe.ha_preparation_done = false;
  EXPECT_FALSE(cp::simulate_fill(recipe, 0.3).feasible);
  recipe.ha_preparation_done = true;
  EXPECT_TRUE(cp::simulate_fill(recipe, 0.3).feasible);
}

TEST(Composite, OptimalEcdIsNearlyVoidFree) {
  cp::FillRecipe recipe;  // ECD, optimal current, good bath
  recipe.bath_quality = 0.95;
  recipe.plating_time_min = 120.0;
  const auto out = cp::simulate_fill(recipe, 0.3);
  EXPECT_TRUE(out.feasible);
  EXPECT_LT(out.void_fraction, 0.1);  // "void-free filling" (Fig. 7)
  EXPECT_GT(out.overburden_nm, 0.0);  // Cu overburden on top (Fig. 6)
}

TEST(Composite, OffCurrentEcdCreatesVoids) {
  cp::FillRecipe good;
  good.plating_time_min = 60.0;
  cp::FillRecipe bad = good;
  bad.relative_current = 2.0;
  EXPECT_GT(cp::simulate_fill(bad, 0.3).void_fraction,
            cp::simulate_fill(good, 0.3).void_fraction);
}

TEST(Composite, EldChemistryFlaggedForCmos) {
  cp::FillRecipe eld;
  eld.method = cp::FillMethod::kEld;
  eld.bath_quality = 0.8;
  EXPECT_FALSE(cp::simulate_fill(eld, 0.3).cmos_compatible_chemistry);
}

TEST(Variability, DopingSuppressesResistanceSpread) {
  // The paper's claim: doping counteracts chirality/defect variability.
  cp::VariabilityConfig pristine;
  pristine.samples = 3000;
  pristine.length_um = 1.0;
  pristine.dopant_concentration = 0.0;
  cp::VariabilityConfig doped = pristine;
  doped.dopant_concentration = 1.0;
  const auto rp = cp::run_resistance_mc(pristine);
  const auto rd = cp::run_resistance_mc(doped);
  // Doped devices: lower median, tighter distribution, no opens.
  EXPECT_LT(rd.resistance_kohm.median, rp.resistance_kohm.median);
  EXPECT_LT(rd.resistance_kohm.cv(), 0.7 * rp.resistance_kohm.cv());
  EXPECT_EQ(rd.open_fraction, 0.0);
  EXPECT_GT(rp.open_fraction, 0.0);  // all-semiconducting pristine tubes
}

TEST(Variability, BetterGrowthTightensPristineSpread) {
  cp::VariabilityConfig cold;
  cold.samples = 2000;
  cold.recipe.temperature_c = 420.0;
  cp::VariabilityConfig hot = cold;
  hot.recipe.temperature_c = 620.0;
  const auto rc = cp::run_resistance_mc(cold);
  const auto rh = cp::run_resistance_mc(hot);
  // Hotter growth -> fewer defects -> lower median resistance.
  EXPECT_LT(rh.resistance_kohm.median, rc.resistance_kohm.median);
}

TEST(Variability, DeterministicBySeed) {
  cp::VariabilityConfig c;
  c.samples = 200;
  const auto a = cp::run_resistance_mc(c);
  const auto b = cp::run_resistance_mc(c);
  EXPECT_DOUBLE_EQ(a.resistance_kohm.mean, b.resistance_kohm.mean);
}

TEST(Wafer, RadialTemperatureDroop) {
  cnti::numerics::Rng rng(31);
  cp::WaferSpec spec;
  spec.temperature_noise_c = 0.0;  // isolate the radial term
  cp::GrowthRecipe nominal;
  const cp::WaferMap wafer(spec, nominal, rng);
  // Centre die hotter than edge dies.
  double t_center = 0.0, t_edge = 0.0, r_edge = 0.0;
  for (const auto& d : wafer.dies()) {
    if (d.radius_mm < 1.0) t_center = d.recipe.temperature_c;
    if (d.radius_mm > r_edge) {
      r_edge = d.radius_mm;
      t_edge = d.recipe.temperature_c;
    }
  }
  EXPECT_GT(t_center, t_edge);
  EXPECT_NEAR(t_center - t_edge,
              spec.radial_temperature_droop_c *
                  std::pow(r_edge / 150.0, 2.0),
              0.5);
}

TEST(Wafer, UniformityAndYieldMetrics) {
  cnti::numerics::Rng rng(37);
  cp::WaferSpec spec;
  cp::GrowthRecipe nominal;
  nominal.catalyst = cp::Catalyst::kCo;
  nominal.temperature_c = 420.0;
  const cp::WaferMap wafer(spec, nominal, rng);
  EXPECT_GT(wafer.dies().size(), 100u);  // 300 mm at 20 mm pitch
  EXPECT_GT(wafer.diameter_uniformity(), 0.0);
  EXPECT_LT(wafer.diameter_uniformity(), 0.2);
  EXPECT_GT(wafer.yield(), 0.5);
}

}  // namespace
