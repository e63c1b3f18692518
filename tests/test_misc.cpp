// Cross-cutting unit tests: the API surface not exercised elsewhere —
// units, tables/CSV, contracts, SPICE edge cases, electrostatics
// variants, via scaling, bundle requirements, wafer and test-chip edge
// cases.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "charz/testchip.hpp"
#include "circuit/spice_io.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/electrostatics.hpp"
#include "core/multiscale.hpp"
#include "core/swcnt_line.hpp"
#include "core/via_model.hpp"
#include "process/wafer.hpp"

namespace u = cnti::units;
namespace cc = cnti::core;
namespace cir = cnti::circuit;
namespace cz = cnti::charz;
namespace cp = cnti::process;

namespace {

TEST(Units, RoundTrips) {
  EXPECT_DOUBLE_EQ(u::to_nm(u::from_nm(7.5)), 7.5);
  EXPECT_DOUBLE_EQ(u::to_um(u::from_um(500.0)), 500.0);
  EXPECT_DOUBLE_EQ(u::to_fF(u::from_fF(3.2)), 3.2);
  EXPECT_DOUBLE_EQ(u::to_aF_per_um(u::from_aF_per_um(96.5)), 96.5);
  EXPECT_DOUBLE_EQ(u::to_kOhm(u::from_kOhm(12.9)), 12.9);
  EXPECT_DOUBLE_EQ(u::to_uA(u::from_uA(25.0)), 25.0);
  EXPECT_DOUBLE_EQ(u::to_A_per_cm2(u::from_A_per_cm2(1e9)), 1e9);
  EXPECT_DOUBLE_EQ(u::to_ps(u::from_ps(42.0)), 42.0);
  EXPECT_DOUBLE_EQ(u::kelvin_to_celsius(u::celsius_to_kelvin(400.0)),
                   400.0);
}

TEST(Units, KnownConversions) {
  EXPECT_DOUBLE_EQ(u::from_nm(1.0), 1e-9);
  EXPECT_DOUBLE_EQ(u::from_A_per_cm2(1e6), 1e10);
  EXPECT_DOUBLE_EQ(u::celsius_to_kelvin(400.0), 673.15);
}

TEST(Constants, QuantumValues) {
  // G0 = 77.48 uS, R0 = 12.906 kOhm, and they are reciprocal.
  EXPECT_NEAR(cnti::phys::kConductanceQuantum, 77.48e-6, 0.01e-6);
  EXPECT_NEAR(cnti::phys::kResistanceQuantum, 12906.4, 1.0);
  EXPECT_DOUBLE_EQ(
      cnti::phys::kConductanceQuantum * cnti::phys::kResistanceQuantum,
      1.0);
  // L_K C_Q duality: product = 1/vF^2.
  const double v2 = cnti::cntconst::kFermiVelocity *
                    cnti::cntconst::kFermiVelocity;
  EXPECT_NEAR(cnti::cntconst::kKineticInductancePerChannel *
                  cnti::cntconst::kQuantumCapacitancePerChannel * v2,
              1.0, 1e-12);
}

TEST(Table, AlignsAndCounts) {
  cnti::Table t({"a", "long header"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  EXPECT_EQ(t.row_count(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("long header"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_THROW(t.add_row({"only one"}), cnti::PreconditionError);
}

TEST(Table, NumFormatsCompactly) {
  EXPECT_EQ(cnti::Table::num(1.5, 3), "1.5");
  EXPECT_EQ(cnti::Table::num(0.155, 3), "0.155");
}

TEST(Csv, WritesRowsAndValidates) {
  const std::string path = "/tmp/cnti_test_csv.csv";
  {
    cnti::CsvWriter csv(path, {"x", "y"});
    csv.add_row({1.0, 2.0});
    csv.add_row({3.0, 4.5});
    EXPECT_THROW(csv.add_row({1.0}), cnti::PreconditionError);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::remove(path.c_str());
}

TEST(Error, ExpectsCarriesContext) {
  try {
    CNTI_EXPECTS(1 > 2, "one is not greater than two");
    FAIL() << "should have thrown";
  } catch (const cnti::PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("1 > 2"), std::string::npos);
    EXPECT_NE(msg.find("one is not greater"), std::string::npos);
    EXPECT_NE(msg.find("test_misc.cpp"), std::string::npos);
  }
}

TEST(SpiceIo, FullSuffixLadder) {
  EXPECT_DOUBLE_EQ(cir::parse_spice_number("4t"), 4e12);
  EXPECT_DOUBLE_EQ(cir::parse_spice_number("5g"), 5e9);
  EXPECT_DOUBLE_EQ(cir::parse_spice_number("3m"), 3e-3);
  EXPECT_DOUBLE_EQ(cir::parse_spice_number("2n"), 2e-9);
  EXPECT_DOUBLE_EQ(cir::parse_spice_number("7p"), 7e-12);
}

TEST(Units, ScaleFactorsExact) {
  EXPECT_DOUBLE_EQ(u::from_ps(1.0), 1e-12);
  EXPECT_DOUBLE_EQ(u::to_mS(1e-3), 1.0);
  EXPECT_DOUBLE_EQ(u::from_nm(1e3), u::from_um(1.0));
}

TEST(SpiceIo, WriterEnforcesTypePrefix) {
  cir::Circuit ckt;
  const auto a = ckt.node("a");
  ckt.add_resistor("ln.seg0", a, 0, 1e3);  // name starts with 'l'!
  ckt.add_capacitor("load", a, 0, 1e-15);  // name starts with 'l'!
  const std::string text = cir::write_spice(ckt, "prefix test");
  auto parsed = cir::parse_spice(text);
  EXPECT_EQ(parsed.circuit.resistors().size(), 1u);
  EXPECT_EQ(parsed.circuit.capacitors().size(), 1u);
  EXPECT_TRUE(parsed.circuit.inductors().empty());
}

TEST(SpiceIo, MalformedCardsThrow) {
  EXPECT_THROW(cir::parse_spice("t\nR1 a 0\n.end\n"), cnti::ParseError);
  EXPECT_THROW(cir::parse_spice("t\nX1 a 0 1k\n.end\n"), cnti::ParseError);
  EXPECT_THROW(cir::parse_spice("t\nM1 d g s b NOTAMODEL W=1u\n.end\n"),
               cnti::ParseError);
  EXPECT_THROW(cir::parse_spice("t\n.tran 1p\n.end\n"), cnti::ParseError);
}

TEST(SpiceIo, CommentsAndEndHandling) {
  const std::string text = R"(title
* full comment
R1 a 0 1k ; trailing comment
.end
R2 b 0 2k
)";
  auto parsed = cir::parse_spice(text);
  EXPECT_EQ(parsed.circuit.resistors().size(), 1u);  // R2 after .end ignored
}

TEST(Electrostatics, BetweenPlanesDoublesOverPlane) {
  const double c1 = cc::wire_over_plane_capacitance(5e-9, 25e-9, 2.5);
  const double c2 = cc::wire_between_planes_capacitance(5e-9, 50e-9, 2.5);
  EXPECT_NEAR(c2, 2.0 * c1, 1e-15);
}

TEST(Electrostatics, RectangularLineHasPlateAndFringe) {
  // Wide plate limit: approaches eps w / h within the fringe constant.
  const double c = cc::rectangular_line_capacitance(1e-6, 50e-9, 100e-9,
                                                    3.9);
  const double plate = 3.9 * cnti::phys::kEpsilon0 * 1e-6 / 100e-9;
  EXPECT_GT(c, plate);
  EXPECT_LT(c, 2.0 * plate);
}

TEST(Via, BundleViaResistanceScalesWithHeight) {
  cc::ViaSpec shallow;
  shallow.height_m = 50e-9;
  cc::ViaSpec deep = shallow;
  deep.height_m = 200e-9;
  cc::BundleSpec bundle;
  bundle.tube_density_per_m2 = 3e17;
  const cc::BundleCntVia v1(shallow, bundle);
  const cc::BundleCntVia v2(deep, bundle);
  EXPECT_GT(v2.resistance(), v1.resistance());
  EXPECT_LT(v2.resistance(), 4.5 * v1.resistance());  // ballistic floor
}

TEST(Via, SingleCntMustFitHole) {
  cc::ViaSpec via;
  via.hole_diameter_m = 5e-9;
  cc::MwcntSpec tube;
  tube.outer_diameter_m = 7.5e-9;
  EXPECT_THROW(cc::SingleCntVia(via, tube), cnti::PreconditionError);
}

TEST(Bundle, RequiredDensityScalesWithCuConductance) {
  cc::SwcntSpec tube;
  // Better Cu (lower R) needs more tubes.
  const double d1 = cc::required_tube_density(1e3, 1e-6, 1e-15, tube);
  const double d2 = cc::required_tube_density(0.5e3, 1e-6, 1e-15, tube);
  EXPECT_NEAR(d2 / d1, 2.0, 1e-9);
}

TEST(Multiscale, DefectsRaiseResistance) {
  cc::MultiscaleInput clean;
  cc::MultiscaleInput dirty = clean;
  dirty.defect_spacing_um = 0.3;
  EXPECT_GT(cc::run_multiscale_flow(dirty).resistance_kohm,
            cc::run_multiscale_flow(clean).resistance_kohm);
}

TEST(Multiscale, RejectsBadInput) {
  cc::MultiscaleInput bad;
  bad.length_um = -1.0;
  EXPECT_THROW(cc::run_multiscale_flow(bad), cnti::PreconditionError);
}

TEST(Wafer, FinerPitchMoreDies) {
  cnti::numerics::Rng rng(3);
  cp::GrowthRecipe nominal;
  cp::WaferSpec coarse;
  coarse.die_pitch_mm = 40.0;
  cp::WaferSpec fine = coarse;
  fine.die_pitch_mm = 10.0;
  const cp::WaferMap w1(coarse, nominal, rng);
  const cp::WaferMap w2(fine, nominal, rng);
  EXPECT_GT(w2.dies().size(), 4u * w1.dies().size());
}

TEST(TestChip, CombsFailOnWideLinewidthBias) {
  const auto layout = cz::standard_test_layout();
  cz::TesterSpec tester;
  tester.resistance_noise_fraction = 0.0;
  cnti::numerics::Rng rng(9);
  // +35 nm bias: leakage 5 * exp(3.5) ~ 165 pA > 100 pA limit.
  const auto meas = cz::measure_die(layout, 35.0, tester, rng);
  bool comb_failed = false;
  for (const auto& m : meas) {
    if (m.unit == "pA" && !m.pass) comb_failed = true;
  }
  EXPECT_TRUE(comb_failed);
}

TEST(TestChip, ViaChainScalesWithCount) {
  const auto layout = cz::standard_test_layout();
  cz::TesterSpec tester;
  tester.resistance_noise_fraction = 0.0;
  cnti::numerics::Rng rng(10);
  const auto meas = cz::measure_die(layout, 0.0, tester, rng);
  double r100 = 0, r1000 = 0;
  for (const auto& m : meas) {
    if (m.structure == "viachain_100") r100 = m.value;
    if (m.structure == "viachain_1000") r1000 = m.value;
  }
  ASSERT_GT(r100, 0.0);
  EXPECT_NEAR(r1000 / r100, 10.0, 0.01);
}

}  // namespace
