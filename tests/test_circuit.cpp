// Tests for the MNA circuit engine: waveforms, DC, MOSFET physics,
// transient integration against analytic references, measurements,
// SPICE round-trip, and the Fig. 11 benchmark builders.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/builders.hpp"
#include "circuit/crosstalk.hpp"
#include "circuit/measure.hpp"
#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "circuit/spice_io.hpp"
#include "circuit/waveform.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "core/mwcnt_line.hpp"
#include "numerics/interp.hpp"

namespace cir = cnti::circuit;

namespace {

TEST(Waveform, PulseShape) {
  cir::PulseWave p;
  p.v1 = 0.0;
  p.v2 = 1.0;
  p.delay_s = 1e-9;
  p.rise_s = 1e-9;
  p.fall_s = 1e-9;
  p.width_s = 2e-9;
  p.period_s = 10e-9;
  const cir::Waveform w = p;
  EXPECT_DOUBLE_EQ(cir::waveform_value(w, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(cir::waveform_value(w, 1.5e-9), 0.5);  // mid-rise
  EXPECT_DOUBLE_EQ(cir::waveform_value(w, 3e-9), 1.0);    // plateau
  EXPECT_DOUBLE_EQ(cir::waveform_value(w, 4.5e-9), 0.5);  // mid-fall
  EXPECT_DOUBLE_EQ(cir::waveform_value(w, 6e-9), 0.0);
  EXPECT_NEAR(cir::waveform_value(w, 11.5e-9), 0.5, 1e-9);  // periodic
}

TEST(Waveform, PwlClampsAndInterpolates) {
  cir::PwlWave p;
  p.points = {{0.0, 0.0}, {1e-9, 2.0}, {2e-9, 1.0}};
  const cir::Waveform w = p;
  EXPECT_DOUBLE_EQ(cir::waveform_value(w, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(cir::waveform_value(w, 0.5e-9), 1.0);
  EXPECT_DOUBLE_EQ(cir::waveform_value(w, 1.5e-9), 1.5);
  EXPECT_DOUBLE_EQ(cir::waveform_value(w, 5e-9), 1.0);
}

TEST(Netlist, NodeNamesDeduplicate) {
  cir::Circuit ckt;
  const auto a = ckt.node("a");
  EXPECT_EQ(ckt.node("a"), a);
  EXPECT_EQ(ckt.node("0"), 0);
  EXPECT_EQ(ckt.node("gnd"), 0);
  EXPECT_EQ(ckt.node_count(), 1);
}

TEST(Netlist, MosfetAddsGateCapacitors) {
  cir::Circuit ckt;
  cir::MosfetParams p;
  ckt.add_mosfet("m1", ckt.node("d"), ckt.node("g"), 0, p);
  EXPECT_EQ(ckt.capacitors().size(), 2u);  // cgs + cgd
}

TEST(Netlist, RejectsNonPositiveValues) {
  cir::Circuit ckt;
  EXPECT_THROW(ckt.add_resistor("r", ckt.node("a"), 0, 0.0),
               cnti::PreconditionError);
  EXPECT_THROW(ckt.add_capacitor("c", ckt.node("a"), 0, -1e-15),
               cnti::PreconditionError);
}

TEST(Dc, VoltageDivider) {
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  ckt.add_vsource("v1", in, 0, cir::DcWave{3.0});
  ckt.add_resistor("r1", in, mid, 1e3);
  ckt.add_resistor("r2", mid, 0, 2e3);
  const auto dc = cir::solve_dc(ckt);
  // Tolerance covers the engine's 1e-12 S g_min floor on every node.
  EXPECT_NEAR(dc.node_voltages[mid], 2.0, 1e-8);
  EXPECT_NEAR(dc.vsource_currents[0], -1e-3, 1e-9);  // 1 mA out of v1
}

TEST(Dc, CurrentSourceIntoResistor) {
  cir::Circuit ckt;
  const auto n = ckt.node("n");
  ckt.add_isource("i1", 0, n, cir::DcWave{1e-3});  // 1 mA into n
  ckt.add_resistor("r1", n, 0, 5e3);
  const auto dc = cir::solve_dc(ckt);
  EXPECT_NEAR(dc.node_voltages[n], 5.0, 1e-6);
}

TEST(Dc, InductorIsDcShort) {
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  ckt.add_vsource("v1", in, 0, cir::DcWave{1.0});
  ckt.add_inductor("l1", in, mid, 1e-9);
  ckt.add_resistor("r1", mid, 0, 1e3);
  const auto dc = cir::solve_dc(ckt);
  EXPECT_NEAR(dc.node_voltages[mid], 1.0, 1e-9);
  EXPECT_NEAR(dc.inductor_currents[0], 1e-3, 1e-9);
}

TEST(Dc, SuperpositionHoldsInLinearNetwork) {
  // Two sources driving a resistive bridge: the response to both equals
  // the sum of the responses with each source alone (other one zeroed).
  const auto solve_with = [](double v1, double v2) {
    cir::Circuit ckt;
    const auto a = ckt.node("a");
    const auto b = ckt.node("b");
    const auto mid = ckt.node("mid");
    ckt.add_vsource("v1", a, 0, cir::DcWave{v1});
    ckt.add_vsource("v2", b, 0, cir::DcWave{v2});
    ckt.add_resistor("r1", a, mid, 1e3);
    ckt.add_resistor("r2", b, mid, 2.2e3);
    ckt.add_resistor("r3", mid, 0, 4.7e3);
    const auto dc = cir::solve_dc(ckt);
    return dc.node_voltages[mid];
  };
  const double both = solve_with(1.5, -0.7);
  const double only1 = solve_with(1.5, 0.0);
  const double only2 = solve_with(0.0, -0.7);
  EXPECT_NEAR(both, only1 + only2, 1e-9);
}

TEST(Dc, LinearScalingOfSourceScalesAllVoltages) {
  const auto solve_with = [](double v) {
    cir::Circuit ckt;
    const auto in = ckt.node("in");
    const auto mid = ckt.node("mid");
    ckt.add_vsource("v1", in, 0, cir::DcWave{v});
    ckt.add_resistor("r1", in, mid, 3.3e3);
    ckt.add_resistor("r2", mid, 0, 6.8e3);
    return cir::solve_dc(ckt).node_voltages[mid];
  };
  EXPECT_NEAR(solve_with(2.0), 2.0 * solve_with(1.0), 1e-9);
  EXPECT_NEAR(solve_with(-1.0), -solve_with(1.0), 1e-9);
}

// NMOS square-law sanity through a drain-current measurement circuit.
double nmos_drain_current(double vgs, double vds) {
  cir::Circuit ckt;
  const auto g = ckt.node("g");
  const auto d = ckt.node("d");
  ckt.add_vsource("vg", g, 0, cir::DcWave{vgs});
  ckt.add_vsource("vd", d, 0, cir::DcWave{vds});
  cir::MosfetParams p;  // vt=0.3, kp=450u, W/L=2
  p.cgs_f = 0.0;
  p.cgd_f = 0.0;
  ckt.add_mosfet("m1", d, g, 0, p);
  const auto dc = cir::solve_dc(ckt);
  return -dc.vsource_currents[1];  // current into the drain
}

TEST(Mosfet, CutoffTriodeSaturationRegions) {
  // Cutoff.
  EXPECT_NEAR(nmos_drain_current(0.1, 1.0), 0.0, 1e-9);
  // Saturation: id = 0.5*kp*(W/L)*(vgs-vt)^2*(1+lambda*vds).
  const double beta = 450e-6 * 2.0;
  const double id_sat = 0.5 * beta * 0.49 * (1.0 + 0.1 * 1.0);
  EXPECT_NEAR(nmos_drain_current(1.0, 1.0), id_sat, 1e-8);
  // Triode: vds = 0.1 < vov = 0.7.
  const double id_tri =
      beta * (0.7 * 0.1 - 0.005) * (1.0 + 0.1 * 0.1);
  EXPECT_NEAR(nmos_drain_current(1.0, 0.1), id_tri, 1e-8);
}

TEST(Mosfet, SymmetricConductionWhenSwapped) {
  // vds < 0 must conduct symmetrically (drain/source swap).
  const double i_fwd = nmos_drain_current(1.0, 0.5);
  cir::Circuit ckt;
  const auto g = ckt.node("g");
  const auto d = ckt.node("d");
  ckt.add_vsource("vg", g, 0, cir::DcWave{1.0});
  ckt.add_vsource("vd", d, 0, cir::DcWave{-0.5});
  cir::MosfetParams p;
  p.cgs_f = p.cgd_f = 0.0;
  ckt.add_mosfet("m1", d, g, 0, p);
  const auto dc = cir::solve_dc(ckt);
  const double i_rev = dc.vsource_currents[1];  // current out of drain
  // Now the "source" terminal is the drain node at -0.5 V; with the gate at
  // 1.0 V the effective vgs = 1.5 V, so only the direction is compared.
  EXPECT_GT(i_fwd, 0.0);
  EXPECT_GT(i_rev, 0.0);
}

TEST(Dc, InverterTransferCharacteristic) {
  cir::Technology45nm tech;
  for (double vin : {0.0, 0.5, 1.0}) {
    cir::Circuit ckt;
    const auto in = ckt.node("in");
    const auto out = ckt.node("out");
    const auto vdd = ckt.node("vdd");
    ckt.add_vsource("vs", vdd, 0, cir::DcWave{tech.vdd_v});
    ckt.add_vsource("vi", in, 0, cir::DcWave{vin});
    cir::add_inverter(ckt, "inv", in, out, vdd, tech);
    const auto dc = cir::solve_dc(ckt);
    if (vin == 0.0) {
      EXPECT_NEAR(dc.node_voltages[out], 1.0, 1e-3);
    }
    if (vin == 1.0) {
      EXPECT_NEAR(dc.node_voltages[out], 0.0, 1e-3);
    }
    if (vin == 0.5) {
      EXPECT_GT(dc.node_voltages[out], 0.1);
      EXPECT_LT(dc.node_voltages[out], 0.9);
    }
  }
}

TEST(Transient, RcChargingMatchesAnalytic) {
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  cir::PwlWave step;
  step.points = {{0.0, 0.0}, {1e-12, 1.0}};
  ckt.add_vsource("v1", in, 0, step);
  ckt.add_resistor("r1", in, out, 1e3);
  ckt.add_capacitor("c1", out, 0, 1e-12);  // tau = 1 ns
  cir::TransientOptions opt;
  opt.t_stop_s = 5e-9;
  opt.dt_s = 1e-12;
  const auto res = cir::simulate_transient(ckt, opt, {out});
  const auto& t = res.time();
  const auto& v = res.voltage(out);
  for (std::size_t i = 0; i < t.size(); i += 500) {
    const double expected = 1.0 - std::exp(-std::max(0.0, t[i] - 1e-12) /
                                           1e-9);
    EXPECT_NEAR(v[i], expected, 5e-3) << "t = " << t[i];
  }
}

TEST(Transient, IntegratorOrdersOfAccuracy) {
  // Smoothly driven RC (sine source): halving dt must cut the trapezoidal
  // error ~4x (2nd order), and a fine step must reproduce the analytic
  // response.
  constexpr double kR = 1e3, kC = 0.2e-12, kF = 1e9, kT = 1.9e-9;
  const auto run = [](double dt) {
    cir::Circuit ckt;
    const auto in = ckt.node("in");
    const auto out = ckt.node("out");
    cir::SineWave sine;
    sine.amplitude = 1.0;
    sine.frequency_hz = kF;
    ckt.add_vsource("v1", in, 0, sine);
    ckt.add_resistor("r1", in, out, kR);
    ckt.add_capacitor("c1", out, 0, kC);
    cir::TransientOptions opt;
    opt.t_stop_s = 2e-9;
    opt.dt_s = dt;
    const auto res = cir::simulate_transient(ckt, opt, {out});
    // Sample at a fixed instant (robust to endpoint bookkeeping).
    const cnti::numerics::LinearInterpolator v(res.time(),
                                               res.voltage(out));
    return v(kT);
  };
  const double ref_trap = run(0.125e-12);
  const double e_trap1 = std::abs(run(20e-12) - ref_trap);
  const double e_trap2 = std::abs(run(10e-12) - ref_trap);
  EXPECT_GT(e_trap1 / e_trap2, 3.0);
  EXPECT_LT(e_trap1 / e_trap2, 5.0);
  // RC low-pass of sin(wt) from rest:
  // v = (sin wt - wr cos wt + wr e^(-t/RC)) / (1 + wr^2), wr = w RC.
  const double w = 2.0 * M_PI * kF, wr = w * kR * kC;
  const double exact = (std::sin(w * kT) - wr * std::cos(w * kT) +
                        wr * std::exp(-kT / (kR * kC))) /
                       (1.0 + wr * wr);
  EXPECT_NEAR(ref_trap, exact, 1e-6);
  EXPECT_LT(e_trap1, 1e-3);
}

TEST(Transient, LcResonance) {
  // Series RLC with tiny R: half-period of ringing = pi sqrt(LC).
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  const auto out = ckt.node("out");
  cir::PwlWave step;
  step.points = {{0.0, 0.0}, {1e-13, 1.0}};
  ckt.add_vsource("v1", in, 0, step);
  ckt.add_resistor("r1", in, mid, 1.0);
  ckt.add_inductor("l1", mid, out, 1e-9);
  ckt.add_capacitor("c1", out, 0, 1e-12);
  cir::TransientOptions opt;
  opt.t_stop_s = 1e-9;
  opt.dt_s = 0.2e-12;
  const auto res = cir::simulate_transient(ckt, opt, {out});
  // Peak of first overshoot at t ~ pi sqrt(LC) ~ 99.3 ps.
  const auto& t = res.time();
  const auto& v = res.voltage(out);
  double t_peak = 0.0, v_peak = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i] < 0.2e-9 && v[i] > v_peak) {
      v_peak = v[i];
      t_peak = t[i];
    }
  }
  EXPECT_NEAR(t_peak, M_PI * std::sqrt(1e-9 * 1e-12), 5e-12);
  EXPECT_GT(v_peak, 1.5);  // underdamped overshoot
}

TEST(Transient, ChargeConservationOnCapDivider) {
  // Two series caps from a step: final mid voltage set by the divider.
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  cir::PwlWave step;
  step.points = {{0.0, 0.0}, {1e-12, 1.0}};
  ckt.add_vsource("v1", in, 0, step);
  ckt.add_capacitor("c1", in, mid, 2e-15);
  ckt.add_capacitor("c2", mid, 0, 1e-15);
  cir::TransientOptions opt;
  opt.t_stop_s = 1e-10;
  opt.dt_s = 1e-13;
  const auto res = cir::simulate_transient(ckt, opt, {mid});
  EXPECT_NEAR(res.voltage(mid).back(), 2.0 / 3.0, 1e-3);
}

TEST(Transient, InverterDelayPositiveAndFinite) {
  cir::Technology45nm tech;
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  const auto vdd = ckt.node("vdd");
  ckt.add_vsource("vs", vdd, 0, cir::DcWave{tech.vdd_v});
  cir::PulseWave pulse;
  pulse.v2 = tech.vdd_v;
  pulse.delay_s = 20e-12;
  pulse.rise_s = 5e-12;
  pulse.fall_s = 5e-12;
  pulse.width_s = 300e-12;
  pulse.period_s = 600e-12;
  ckt.add_vsource("vi", in, 0, pulse);
  cir::add_inverter(ckt, "inv", in, out, vdd, tech);
  ckt.add_capacitor("cl", out, 0, 1e-15);
  cir::TransientOptions opt;
  opt.t_stop_s = 600e-12;
  opt.dt_s = 0.2e-12;
  const auto res = cir::simulate_transient(ckt, opt, {in, out});
  const double tp = cir::average_propagation_delay(res, in, out, 0.5,
                                                   100e-12);
  EXPECT_GT(tp, 1e-12);
  EXPECT_LT(tp, 100e-12);
}

TEST(Transient, RecordsOnlyItsProbes) {
  // The result holds the probed nodes in probe order (ground as zeros);
  // asking for any other node is a precondition failure, not a silent
  // zero waveform.
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  const auto out = ckt.node("out");
  ckt.add_vsource("v1", in, 0, cir::DcWave{1.0});
  ckt.add_resistor("r1", in, mid, 1e3);
  ckt.add_resistor("r2", mid, out, 1e3);
  ckt.add_capacitor("c1", out, 0, 1e-15);
  cir::TransientOptions opt;
  opt.t_stop_s = 1e-11;
  opt.dt_s = 1e-12;
  const auto res = cir::simulate_transient(ckt, opt, {out, 0, in});
  ASSERT_EQ(res.waveforms().size(), 3u);
  EXPECT_EQ(&res.voltage(out), &res.waveforms()[0]);
  EXPECT_EQ(&res.voltage(in), &res.waveforms()[2]);
  for (const double v : res.voltage(0)) EXPECT_EQ(v, 0.0);
  for (const double v : res.voltage(in)) EXPECT_DOUBLE_EQ(v, 1.0);
  EXPECT_THROW(res.voltage(mid), cnti::PreconditionError);
  EXPECT_THROW(res.voltage(out + 1), cnti::PreconditionError);
  EXPECT_THROW(cir::simulate_transient(ckt, opt, {out + 1}),
               cnti::PreconditionError);
  EXPECT_THROW(cir::simulate_transient(ckt, opt, {-1}),
               cnti::PreconditionError);
}

TEST(SpiceIo, NumberSuffixes) {
  EXPECT_DOUBLE_EQ(cir::parse_spice_number("1.5k"), 1500.0);
  EXPECT_DOUBLE_EQ(cir::parse_spice_number("10f"), 10e-15);
  EXPECT_DOUBLE_EQ(cir::parse_spice_number("2meg"), 2e6);
  EXPECT_DOUBLE_EQ(cir::parse_spice_number("3u"), 3e-6);
  EXPECT_DOUBLE_EQ(cir::parse_spice_number("5"), 5.0);
  EXPECT_THROW(cir::parse_spice_number("abc"), cnti::ParseError);
}

TEST(SpiceIo, ParseAndSimulateDivider) {
  const std::string netlist = R"(divider test
* comment line
V1 in 0 DC 3
R1 in mid 1k
R2 mid 0 2k
.tran 1p 1n
.end
)";
  auto parsed = cir::parse_spice(netlist);
  EXPECT_EQ(parsed.title, "divider test");
  ASSERT_TRUE(parsed.tran.has_value());
  EXPECT_DOUBLE_EQ(parsed.tran->dt_s, 1e-12);
  const auto dc = cir::solve_dc(parsed.circuit);
  EXPECT_NEAR(dc.node_voltages[parsed.circuit.node("mid")], 2.0, 1e-8);
}

TEST(SpiceIo, ParsePulseAndMosfet) {
  const std::string netlist = R"(inverter
VDD vdd 0 DC 1.0
VIN in 0 PULSE(0 1 10p 5p 5p 200p 400p)
M1 out in 0 0 NMOS W=90n L=45n VT=0.3 KP=450u
M2 out in vdd vdd PMOS W=180n L=45n VT=-0.3 KP=225u
.end
)";
  auto parsed = cir::parse_spice(netlist);
  EXPECT_EQ(parsed.circuit.mosfets().size(), 2u);
  EXPECT_TRUE(parsed.circuit.mosfets()[1].params.is_pmos);
  EXPECT_NEAR(parsed.circuit.mosfets()[0].params.width_m, 90e-9, 1e-12);
  const auto dc = cir::solve_dc(parsed.circuit);
  // At t=0 the input is low: output high.
  EXPECT_NEAR(dc.node_voltages[parsed.circuit.node("out")], 1.0, 1e-2);
}

TEST(SpiceIo, WriteParseRoundTrip) {
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("V1", in, 0, cir::DcWave{1.0});
  ckt.add_resistor("R1", in, out, 2.2e3);
  ckt.add_capacitor("C1", out, 0, 3e-15);
  const std::string text = cir::write_spice(ckt, "round trip");
  auto parsed = cir::parse_spice(text);
  EXPECT_EQ(parsed.circuit.resistors().size(), 1u);
  EXPECT_NEAR(parsed.circuit.resistors()[0].ohms, 2.2e3, 1e-9);
  EXPECT_NEAR(parsed.circuit.capacitors()[0].farads, 3e-15, 1e-20);
  const auto dc = cir::solve_dc(parsed.circuit);
  EXPECT_NEAR(dc.node_voltages[parsed.circuit.node("out")], 1.0, 1e-6);
}

TEST(Builders, DistributedLineConservesTotals) {
  cir::Circuit ckt;
  cnti::core::LineRlc line;
  line.series_resistance_ohm = 10e3;
  line.resistance_per_m = 1e9;
  line.capacitance_per_m = 50e-12;
  cir::add_distributed_line(ckt, "ln", ckt.node("a"), ckt.node("b"), line,
                            100e-6, 10);
  double r_total = 0, c_total = 0;
  for (const auto& r : ckt.resistors()) r_total += r.ohms;
  for (const auto& c : ckt.capacitors()) c_total += c.farads;
  EXPECT_NEAR(r_total, 10e3 + 1e9 * 100e-6, 1.0);
  EXPECT_NEAR(c_total, 50e-12 * 100e-6, 1e-20);
}

TEST(Builders, Fig11DelayMeasurable) {
  cir::Fig11Options opt;
  opt.line = cnti::core::make_paper_mwcnt(10, 2).rlc();
  opt.length_m = 10e-6;
  opt.segments = 10;
  const double tp = cir::measure_fig11_delay(opt, 1500);
  EXPECT_GT(tp, 0.0);
  EXPECT_LT(tp, 1e-7);
}

TEST(Builders, Fig12DopingReducesDelayAt500um) {
  cir::Fig11Options pristine;
  pristine.line = cnti::core::make_paper_mwcnt(10, 2).rlc();
  pristine.length_m = 500e-6;
  pristine.segments = 16;
  cir::Fig11Options doped = pristine;
  doped.line = cnti::core::make_paper_mwcnt(10, 10).rlc();
  const double tp = cir::measure_fig11_delay(pristine, 1500);
  const double td = cir::measure_fig11_delay(doped, 1500);
  ASSERT_GT(tp, 0.0);
  ASSERT_GT(td, 0.0);
  const double ratio = td / tp;
  EXPECT_LT(ratio, 1.0);
  EXPECT_GT(ratio, 0.7);  // paper: ~10% reduction for D = 10 nm
}

// --- Bus settle window and the never-crossed delay sentinel --------------

cir::BusTopology settle_bus_topology() {
  cir::BusTopology topology;
  topology.line = cnti::core::make_paper_mwcnt(10, 4.0, 20e3).rlc();
  topology.coupling_cap_per_m = 30e-12;
  topology.length_m = 100e-6;
  topology.lines = 3;
  topology.segments = 6;
  return topology;
}

TEST(BusCrosstalk, SettleWindowIncludesTheReceiverLoad) {
  const cir::BusTopology topology = settle_bus_topology();
  cir::BusDrive drive;
  drive.receiver_load_f = 200e-15;
  // 12 time constants of the full drive path: driver + contacts + line
  // resistance into line + both-neighbour coupling + *receiver* C, floored
  // at 20 edge times.
  const double r_total = drive.driver_ohm +
                         topology.line.series_resistance_ohm +
                         topology.line.resistance_per_m * topology.length_m;
  const double c_total = (topology.line.capacitance_per_m +
                          2.0 * topology.coupling_cap_per_m) *
                             topology.length_m +
                         drive.receiver_load_f;
  EXPECT_DOUBLE_EQ(
      cir::bus_settle_time_s(topology, drive),
      std::max(20.0 * drive.edge_time_s, 12.0 * r_total * c_total));

  // A heavier receiver strictly widens the window.
  cir::BusDrive light = drive;
  light.receiver_load_f = 0.2e-15;
  EXPECT_GT(cir::bus_settle_time_s(topology, drive),
            cir::bus_settle_time_s(topology, light));
}

TEST(BusCrosstalk, HeavyLoadAggressorSettlesInsideTheWindow) {
  // Regression: with a receiver load far above the line capacitance the
  // old window (line C only) ended long before the aggressor reached
  // vdd/2, so the reported "delay" was the never-crossed sentinel. The
  // load-aware window must always contain the 50% crossing.
  const cir::BusTopology topology = settle_bus_topology();
  cir::BusDrive drive;
  drive.receiver_load_f = 1e-12;  // 1 pF: ~90x the line + coupling C
  const double window = cir::bus_settle_time_s(topology, drive);
  const auto r = cir::analyze_bus_crosstalk(cir::build_bus_netlist(topology),
                                            topology, drive, 600);
  ASSERT_TRUE(std::isfinite(r.aggressor_delay_s));
  EXPECT_GT(r.aggressor_delay_s, 0.0);
  EXPECT_LT(r.aggressor_delay_s, window);
}

TEST(BusCrosstalk, NeverCrossedDelayIsQuietNaNNotNegative) {
  // A source impedance far above the MNA g_min leakage floor divides the
  // far-end asymptote to a few percent of vdd — the 50% level is truly
  // never reached, and the result must carry a quiet NaN, not -1.
  const cir::BusTopology topology = settle_bus_topology();
  cir::BusDrive drive;
  drive.driver_ohm = 1e12;
  const auto r = cir::analyze_bus_crosstalk(cir::build_bus_netlist(topology),
                                            topology, drive, 300);
  EXPECT_TRUE(std::isnan(r.aggressor_delay_s));
  // The peak-noise fields stay valid even when the delay does not.
  EXPECT_TRUE(std::isfinite(r.peak_noise_v));
  EXPECT_GE(r.worst_victim, 0);
}

// --- The shared bus noise scan on hand-built waveforms -------------------

using Waves = std::vector<std::vector<double>>;
const std::vector<double> kScanTime = {0.0, 1.0, 2.0};

TEST(BusNoiseScan, TieOnMagnitudeKeepsTheLowerLine) {
  // Lines 0 and 2 both reach |v| = 0.2, line 2 one step earlier: the
  // lines are combined in line order, so line 0 keeps the peak.
  const Waves far = {{0.0, 0.1, -0.2},
                     {0.0, 0.6, 1.0},
                     {0.0, 0.2, 0.0},
                     {0.0, 0.05, 0.0}};
  const auto r = cir::scan_bus_noise(kScanTime, far, 1, 1.0);
  EXPECT_EQ(r.worst_victim, 0);
  EXPECT_EQ(r.peak_noise_v, -0.2);
  EXPECT_EQ(r.peak_time_s, 2.0);
  EXPECT_EQ(r.unknowns, 0);
}

TEST(BusNoiseScan, NegativePeakKeepsItsSign) {
  const Waves far = {{0.0, 0.25, 0.75}, {0.0, 0.1, 0.0}, {0.0, -0.3, 0.1}};
  const auto r = cir::scan_bus_noise(kScanTime, far, 0, 1.0);
  EXPECT_EQ(r.worst_victim, 2);
  EXPECT_EQ(r.peak_noise_v, -0.3);
  EXPECT_EQ(r.peak_time_s, 1.0);
  // The aggressor crosses 0.5 halfway through [1, 2].
  EXPECT_EQ(r.aggressor_delay_s, 1.5);
}

TEST(BusNoiseScan, AggressorBelowHalfVddGivesNaN) {
  const Waves far = {{0.0, 0.01, 0.0}, {0.0, 0.25, 0.375}};
  const auto r = cir::scan_bus_noise(kScanTime, far, 1, 1.0);
  EXPECT_TRUE(std::isnan(r.aggressor_delay_s));
  EXPECT_EQ(r.worst_victim, 0);
  EXPECT_EQ(r.peak_noise_v, 0.01);
  // The same waveform crosses once vdd is low enough.
  EXPECT_EQ(cir::scan_bus_noise(kScanTime, far, 1, 0.625).aggressor_delay_s,
            1.5);
}

TEST(BusNoiseScan, QuietVictimsNameTheFirstVictim) {
  const Waves far = {{0.0, 1.0, 1.0}, {0.0, 0.0, 0.0}, {0.0, 0.0, 0.0}};
  const auto r = cir::scan_bus_noise(kScanTime, far, 0, 1.0);
  EXPECT_EQ(r.worst_victim, 1);
  EXPECT_EQ(r.peak_noise_v, 0.0);
  EXPECT_EQ(r.peak_time_s, 0.0);
  EXPECT_EQ(r.aggressor_delay_s, 0.5);
  // Quiet victims of any other aggressor default to line 0.
  const Waves last = {{0.0, 0.0, 0.0}, {0.0, 0.0, 0.0}, {0.0, 1.0, 1.0}};
  EXPECT_EQ(cir::scan_bus_noise(kScanTime, last, 2, 1.0).worst_victim, 0);
}

TEST(BusNoiseScan, RejectsMismatchedInputs) {
  const Waves far = {{0.0, 1.0, 1.0}, {0.0, 0.0}};
  EXPECT_THROW(cir::scan_bus_noise(kScanTime, far, 0, 1.0),
               cnti::PreconditionError);
  const Waves ok = {{0.0, 1.0, 1.0}, {0.0, 0.0, 0.0}};
  EXPECT_THROW(cir::scan_bus_noise(kScanTime, ok, 2, 1.0),
               cnti::PreconditionError);
  EXPECT_THROW(cir::scan_bus_noise(kScanTime, ok, -1, 1.0),
               cnti::PreconditionError);
}

}  // namespace
