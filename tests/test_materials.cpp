// Tests for the materials substrate: Cu size effects, CNT mean free path,
// Cu-CNT composite effective medium.
#include <gtest/gtest.h>

#include <cmath>

#include "common/units.hpp"
#include "materials/cnt_mfp.hpp"
#include "materials/composite.hpp"
#include "materials/copper.hpp"

namespace cm = cnti::materials;

namespace {

TEST(Copper, BulkResistivityAtRoomTemperature) {
  EXPECT_NEAR(cm::cu_bulk_resistivity(300.0), 1.72e-8, 1e-10);
  // ~0.39%/K increase.
  EXPECT_GT(cm::cu_bulk_resistivity(400.0), cm::cu_bulk_resistivity(300.0));
}

TEST(Copper, MayadasShatzkesLimits) {
  // Huge grains: no penalty.
  EXPECT_NEAR(cm::mayadas_shatzkes_factor(1.0, 0.27), 1.0, 1e-6);
  // Grain size = mfp with R = 0.27: noticeable penalty, factor > 1.3.
  const double f = cm::mayadas_shatzkes_factor(39e-9, 0.27);
  EXPECT_GT(f, 1.3);
  EXPECT_LT(f, 3.0);
  // Monotonic in reflectivity.
  EXPECT_GT(cm::mayadas_shatzkes_factor(39e-9, 0.5),
            cm::mayadas_shatzkes_factor(39e-9, 0.1));
}

TEST(Copper, FuchsSondheimerLimits) {
  // Wide wire: ~no penalty (additive form leaves ~2% at 1 um).
  EXPECT_NEAR(cm::fuchs_sondheimer_factor(1e-6, 1e-6, 0.25), 1.0, 0.03);
  // 10 nm wire: large penalty.
  EXPECT_GT(cm::fuchs_sondheimer_factor(10e-9, 20e-9, 0.25), 2.0);
  // Fully specular: no penalty at any size.
  EXPECT_NEAR(cm::fuchs_sondheimer_factor(10e-9, 10e-9, 1.0), 1.0, 1e-12);
}

TEST(Copper, EffectiveResistivityGrowsAsWiresShrink) {
  cm::CuLineSpec wide;
  wide.width_m = 100e-9;
  wide.height_m = 200e-9;
  cm::CuLineSpec narrow;
  narrow.width_m = 15e-9;
  narrow.height_m = 30e-9;
  EXPECT_GT(cm::cu_effective_resistivity(narrow),
            2.0 * cm::cu_effective_resistivity(wide));
}

TEST(Copper, LineResistanceScalesWithLength) {
  cm::CuLineSpec spec;
  const cm::CuLine line(spec);
  EXPECT_NEAR(line.resistance(2e-6) / line.resistance(1e-6), 2.0, 1e-12);
}

TEST(Copper, PaperAmpacityFigure) {
  // Paper Sec. I: a 100 nm x 50 nm Cu line carries up to ~50 uA.
  cm::CuLineSpec spec;
  spec.width_m = 100e-9;
  spec.height_m = 50e-9;
  spec.barrier_thickness_m = 0.0;  // paper quotes the drawn cross-section
  const cm::CuLine line(spec);
  EXPECT_NEAR(cnti::units::to_uA(line.max_current()), 50.0, 1.0);
}

TEST(Copper, BarrierReducesConductingArea) {
  cm::CuLineSpec with_barrier;
  with_barrier.width_m = 20e-9;
  with_barrier.height_m = 40e-9;
  with_barrier.barrier_thickness_m = 2e-9;
  cm::CuLineSpec no_barrier = with_barrier;
  no_barrier.barrier_thickness_m = 0.0;
  EXPECT_LT(cm::CuLine(with_barrier).effective_conductivity(),
            cm::CuLine(no_barrier).effective_conductivity());
}

TEST(Copper, RejectsBarrierConsumingWire) {
  cm::CuLineSpec spec;
  spec.width_m = 3e-9;
  spec.barrier_thickness_m = 2e-9;
  EXPECT_THROW(cm::CuLine{spec}, cnti::PreconditionError);
}

TEST(CntMfp, AcousticScalesWithDiameterAndTemperature) {
  // lambda ~ 1000 d at 300 K.
  EXPECT_NEAR(cm::acoustic_mfp(1e-9, 300.0), 1e-6, 1e-9);
  EXPECT_NEAR(cm::acoustic_mfp(10e-9, 300.0), 10e-6, 1e-8);
  // Hotter -> shorter.
  EXPECT_LT(cm::acoustic_mfp(1e-9, 400.0), cm::acoustic_mfp(1e-9, 300.0));
}

TEST(CntMfp, DefectsShortenMfp) {
  cm::MfpSpec pristine;
  pristine.diameter_m = 7.5e-9;
  cm::MfpSpec defective = pristine;
  defective.defect_spacing_m = 0.5e-6;
  EXPECT_LT(cm::effective_mfp(defective), cm::effective_mfp(pristine));
  // Matthiessen: 1/leff = 1/7.5um + 1/0.5um.
  EXPECT_NEAR(cm::effective_mfp(defective),
              1.0 / (1.0 / 7.5e-6 + 1.0 / 0.5e-6), 1e-9);
}

TEST(CntMfp, OpticalPhononOnlyAboveThreshold) {
  EXPECT_GT(cm::optical_mfp(1e-9, 0.1, 1e-6), 1e20);  // below 0.16 eV
  EXPECT_LT(cm::optical_mfp(1e-9, 1.0, 1e-6), 1e-6);  // high bias
}

TEST(CntMfp, AcousticInverseTemperatureScalingExact) {
  // lambda_ap = k d (300 K / T): doubling T halves the mfp exactly.
  EXPECT_NEAR(cm::acoustic_mfp(7.5e-9, 600.0),
              0.5 * cm::acoustic_mfp(7.5e-9, 300.0), 1e-15);
}

TEST(CntMfp, MatthiessenNeverExceedsShortestMechanism) {
  cm::MfpSpec spec;
  spec.diameter_m = 7.5e-9;
  spec.defect_spacing_m = 0.3e-6;
  spec.bias_v = 0.5;
  const double eff = cm::effective_mfp(spec);
  EXPECT_LE(eff, cm::acoustic_mfp(spec.diameter_m, spec.temperature_k));
  EXPECT_LE(eff, spec.defect_spacing_m);
}

TEST(Composite, PureCuMatchesMatrixConductivity) {
  cm::CompositeSpec spec;
  spec.cnt_volume_fraction = 0.0;
  spec.void_fraction = 0.0;
  EXPECT_NEAR(cm::composite_conductivity(spec),
              1.0 / spec.cu_matrix_resistivity, 1.0);
}

TEST(Composite, AmpacityRisesWithCntFraction) {
  cm::CompositeSpec lo;
  lo.cnt_volume_fraction = 0.1;
  cm::CompositeSpec hi = lo;
  hi.cnt_volume_fraction = 0.6;
  EXPECT_GT(cm::composite_max_current_density(hi),
            cm::composite_max_current_density(lo));
  // Never exceeds the CNT intrinsic limit.
  EXPECT_LE(cm::composite_max_current_density(hi),
            cnti::cntconst::kCntMaxCurrentDensity);
}

TEST(Composite, VoidsDegradeConductivity) {
  cm::CompositeSpec good;
  good.void_fraction = 0.0;
  cm::CompositeSpec bad = good;
  bad.void_fraction = 0.2;
  EXPECT_GT(cm::composite_conductivity(good),
            cm::composite_conductivity(bad));
}

TEST(Composite, EmLifetimeImprovesWithCntShare) {
  cm::CompositeSpec spec;
  spec.cnt_volume_fraction = 0.3;
  EXPECT_GT(cm::composite_em_lifetime_factor(spec), 1.0);
  cm::CompositeSpec none;
  none.cnt_volume_fraction = 0.0;
  EXPECT_NEAR(cm::composite_em_lifetime_factor(none), 1.0, 1e-9);
}

TEST(Composite, ThermalConductivityBetweenConstituents) {
  cm::CompositeSpec spec;
  spec.cnt_volume_fraction = 0.3;
  spec.void_fraction = 0.0;
  const double k = cm::composite_thermal_conductivity(spec);
  EXPECT_GT(k, cnti::cuconst::kThermalConductivity);
  EXPECT_LT(k, cnti::cntconst::kCntThermalConductivityHigh);
}

TEST(Composite, RejectsInvalidFractions) {
  cm::CompositeSpec spec;
  spec.cnt_volume_fraction = 1.5;
  EXPECT_THROW(cm::composite_conductivity(spec), cnti::PreconditionError);
}

}  // namespace
