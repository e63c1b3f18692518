// Tests for AC analysis and an inverter VTC — the second-wave analysis
// features built on the core engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "circuit/ac.hpp"
#include "circuit/builders.hpp"
#include "circuit/mna.hpp"
#include "core/mwcnt_line.hpp"

namespace cir = cnti::circuit;
namespace cc = cnti::core;

namespace {

// --- AC analysis ---

cir::Circuit rc_lowpass(cir::NodeId* out) {
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  *out = ckt.node("out");
  ckt.add_vsource("vin", in, 0, cir::DcWave{0.0});
  ckt.add_resistor("r1", in, *out, 1e3);
  ckt.add_capacitor("c1", *out, 0, 1e-12);  // f3db = 159 MHz
  return ckt;
}

TEST(Ac, RcLowPassPoleAtOneOverTwoPiRc) {
  cir::NodeId out = 0;
  const auto ckt = rc_lowpass(&out);
  const auto freqs = cir::log_frequency_grid(1e6, 1e11, 40);
  const auto res = cir::ac_analysis(ckt, "vin", out, freqs);
  // Near-DC gain 1 (first grid point is 1 MHz, so |H| ~ 0.99998).
  EXPECT_NEAR(std::abs(res.transfer.front()), 1.0, 1e-4);
  // -3 dB at 1/(2 pi R C) = 159.2 MHz.
  EXPECT_NEAR(cir::bandwidth_3db(res), 1.0 / (2.0 * M_PI * 1e3 * 1e-12),
              0.02 * 159.2e6);
  // -20 dB/decade rolloff well past the pole.
  const std::size_t n = res.transfer.size();
  const double slope_db =
      res.magnitude_db(n - 1) - res.magnitude_db(n - 5);
  const double decades = std::log10(res.frequency_hz[n - 1] /
                                    res.frequency_hz[n - 5]);
  EXPECT_NEAR(slope_db / decades, -20.0, 1.0);
  // Phase approaches -90 degrees.
  EXPECT_NEAR(res.phase_deg(n - 1), -90.0, 3.0);
}

TEST(Ac, SeriesRlcResonance) {
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  const auto out = ckt.node("out");
  ckt.add_vsource("vin", in, 0, cir::DcWave{0.0});
  ckt.add_resistor("r1", in, mid, 10.0);
  ckt.add_inductor("l1", mid, out, 1e-9);
  ckt.add_capacitor("c1", out, 0, 1e-12);
  // f0 = 1/(2 pi sqrt(LC)) ~ 5.03 GHz; peak |H| = Q = sqrt(L/C)/R ~ 3.16.
  const auto freqs = cir::log_frequency_grid(1e8, 1e11, 60);
  const auto res = cir::ac_analysis(ckt, "vin", out, freqs);
  double peak = 0.0, f_peak = 0.0;
  for (std::size_t i = 0; i < res.transfer.size(); ++i) {
    if (std::abs(res.transfer[i]) > peak) {
      peak = std::abs(res.transfer[i]);
      f_peak = res.frequency_hz[i];
    }
  }
  EXPECT_NEAR(f_peak, 5.03e9, 0.25e9);
  EXPECT_NEAR(peak, std::sqrt(1e-9 / 1e-12) / 10.0, 0.3);
}

TEST(Ac, InputImpedanceOfDivider) {
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  ckt.add_vsource("vin", in, 0, cir::DcWave{0.0});
  ckt.add_resistor("r1", in, mid, 1e3);
  ckt.add_resistor("r2", mid, 0, 2e3);
  const auto z = cir::input_impedance(ckt, "vin", 1e6);
  EXPECT_NEAR(z.real(), 3e3, 1.0);
  EXPECT_NEAR(z.imag(), 0.0, 1.0);
}

TEST(Ac, CntLineBandwidthImprovesWithDoping) {
  // Distributed MWCNT line driven by a source: the doped line (lower R)
  // has a higher 3 dB bandwidth.
  const auto bandwidth_of = [](double nc) {
    cir::Circuit ckt;
    const auto in = ckt.node("in");
    const auto out = ckt.node("out");
    ckt.add_vsource("vin", in, 0, cir::DcWave{0.0});
    cir::add_distributed_line(ckt, "ln", in, out,
                              cc::make_paper_mwcnt(10, nc, 100e3).rlc(),
                              200e-6, 12);
    ckt.add_capacitor("cl", out, 0, 1e-15);
    const auto freqs = cir::log_frequency_grid(1e6, 1e12, 20);
    return cir::bandwidth_3db(cir::ac_analysis(ckt, "vin", out, freqs));
  };
  const double bw2 = bandwidth_of(2);
  const double bw10 = bandwidth_of(10);
  ASSERT_GT(bw2, 0.0);
  EXPECT_GT(bw10, bw2);
}

TEST(Ac, KineticInductanceShapesHighFrequencyResponse) {
  // Same RC line with and without the CNT kinetic inductance: the
  // response must differ at high frequency (where wL ~ R_segment).
  const auto line = cc::make_paper_mwcnt(10, 2, 0.0).rlc();
  const auto build = [&](bool with_l) {
    cir::Circuit ckt;
    const auto in = ckt.node("in");
    const auto out = ckt.node("out");
    ckt.add_vsource("vin", in, 0, cir::DcWave{0.0});
    const int segs = 10;
    const auto parts = cc::discretize_line(line, 10e-6, segs);
    cir::NodeId prev = in;
    for (int s = 0; s < segs; ++s) {
      const auto mid = ckt.node("m" + std::to_string(s));
      const auto nxt =
          (s == segs - 1) ? out : ckt.node("n" + std::to_string(s));
      ckt.add_resistor("r" + std::to_string(s), prev, mid,
                       parts[static_cast<std::size_t>(s)].resistance_ohm);
      if (with_l) {
        ckt.add_inductor("l" + std::to_string(s), mid, nxt,
                         line.inductance_per_m * 10e-6 / segs);
      } else {
        ckt.add_resistor("rl" + std::to_string(s), mid, nxt, 1e-3);
      }
      ckt.add_capacitor("c" + std::to_string(s), nxt, 0,
                        parts[static_cast<std::size_t>(s)].capacitance_f);
      prev = nxt;
    }
    return ckt;
  };
  auto rc = build(false);
  auto rlc = build(true);
  const std::vector<double> freqs = {1e9, 1e11, 5e11};
  const auto h_rc = cir::ac_analysis(rc, "vin", rc.node("out"), freqs);
  const auto h_rlc = cir::ac_analysis(rlc, "vin", rlc.node("out"), freqs);
  // Low frequency: identical.
  EXPECT_NEAR(std::abs(h_rc.transfer[0]), std::abs(h_rlc.transfer[0]),
              1e-3);
  // High frequency: the kinetic inductance reshapes the response (the
  // ladder turns into a transmission line with inductive peaking above
  // its LC resonance) — require a clear deviation from the pure-RC case.
  const double ratio = std::abs(h_rc.transfer[2]) /
                       (std::abs(h_rlc.transfer[2]) + 1e-30);
  EXPECT_TRUE(ratio > 1.3 || ratio < 0.77) << "ratio = " << ratio;
}

TEST(Ac, NearDcMatchesResistiveDivider) {
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  ckt.add_vsource("vin", in, 0, cir::DcWave{0.0});
  ckt.add_resistor("r1", in, mid, 1e3);
  ckt.add_resistor("r2", mid, 0, 2e3);
  const auto res = cir::ac_analysis(ckt, "vin", mid, {1.0});
  EXPECT_NEAR(std::abs(res.transfer[0]), 2.0 / 3.0, 1e-6);
  EXPECT_NEAR(res.phase_deg(0), 0.0, 1e-3);
}

TEST(Ac, HeavierLoadLowersBandwidthInversely) {
  const auto bw_with_cap = [](double c) {
    cir::Circuit ckt;
    const auto in = ckt.node("in");
    const auto out = ckt.node("out");
    ckt.add_vsource("vin", in, 0, cir::DcWave{0.0});
    ckt.add_resistor("r1", in, out, 1e3);
    ckt.add_capacitor("c1", out, 0, c);
    const auto freqs = cir::log_frequency_grid(1e6, 1e11, 80);
    return cir::bandwidth_3db(cir::ac_analysis(ckt, "vin", out, freqs));
  };
  const double bw1 = bw_with_cap(1e-12);
  const double bw4 = bw_with_cap(4e-12);
  EXPECT_NEAR(bw1 / bw4, 4.0, 0.3);
}

TEST(Ac, LogGridHitsEndpointsExactlyAndStaysStrictlyIncreasing) {
  const auto grid = cir::log_frequency_grid(1e6, 1e12, 20);
  EXPECT_DOUBLE_EQ(grid.front(), 1e6);
  EXPECT_DOUBLE_EQ(grid.back(), 1e12);  // exact, no pow() roundoff
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_LT(grid[i - 1], grid[i]);
  }
  // 6 decades at 20 points/decade: 120 intervals, 121 points.
  EXPECT_EQ(grid.size(), 121u);
}

TEST(Ac, LogGridDegenerateAndNarrowRanges) {
  // Equal endpoints: a single-point grid, not a throw.
  const auto single = cir::log_frequency_grid(1e9, 1e9, 10);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_DOUBLE_EQ(single[0], 1e9);
  // A sub-point fraction of a decade still spans both endpoints.
  const auto narrow = cir::log_frequency_grid(1e9, 1.001e9, 10);
  ASSERT_GE(narrow.size(), 2u);
  EXPECT_DOUBLE_EQ(narrow.front(), 1e9);
  EXPECT_DOUBLE_EQ(narrow.back(), 1.001e9);
  for (std::size_t i = 1; i < narrow.size(); ++i) {
    EXPECT_LT(narrow[i - 1], narrow[i]);
  }
}

TEST(Ac, LogGridRejectsInvalidRanges) {
  EXPECT_THROW(cir::log_frequency_grid(0.0, 1e9), cnti::PreconditionError);
  EXPECT_THROW(cir::log_frequency_grid(-1.0, 1e9), cnti::PreconditionError);
  EXPECT_THROW(cir::log_frequency_grid(1e9, 1e6), cnti::PreconditionError);
  EXPECT_THROW(cir::log_frequency_grid(1e6, 1e9, 0),
               cnti::PreconditionError);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(cir::log_frequency_grid(1e6, inf), cnti::PreconditionError);
  EXPECT_THROW(cir::log_frequency_grid(1e6, std::nan("")),
               cnti::PreconditionError);
}

TEST(Ac, ZeroTransferReadsMinusInfinityDb) {
  // Observing ground gives an identically-zero transfer: magnitude_db must
  // report -inf instead of a NaN or a log-domain surprise.
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  ckt.add_vsource("vin", in, 0, cir::DcWave{0.0});
  ckt.add_resistor("r1", in, 0, 1e3);
  const auto res = cir::ac_analysis(ckt, "vin", 0, {1e6, 1e9});
  for (std::size_t i = 0; i < res.transfer.size(); ++i) {
    EXPECT_EQ(std::abs(res.transfer[i]), 0.0);
    EXPECT_TRUE(std::isinf(res.magnitude_db(i)));
    EXPECT_LT(res.magnitude_db(i), 0.0);
    EXPECT_FALSE(std::isnan(res.phase_deg(i)));
  }
}

TEST(Ac, RejectsNonlinearCircuits) {
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  ckt.add_vsource("vin", in, 0, cir::DcWave{0.0});
  ckt.add_mosfet("m1", ckt.node("d"), in, 0, cir::MosfetParams{});
  EXPECT_THROW(cir::ac_analysis(ckt, "vin", in, {1e9}),
               cnti::PreconditionError);
}

// --- DC sweep ---

TEST(DcSweep, InverterVtc) {
  cir::Technology45nm tech;
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  const auto vdd = ckt.node("vdd");
  ckt.add_vsource("vs", vdd, 0, cir::DcWave{tech.vdd_v});
  ckt.add_vsource("vi", in, 0, cir::DcWave{0.0});
  cir::add_inverter(ckt, "inv", in, out, vdd, tech);
  // Step the input source over 0..1 V, one operating point per value.
  std::vector<double> vin, vout;
  for (int i = 0; i <= 50; ++i) {
    vin.push_back(i / 50.0);
    ckt.set_vsource_wave(1, cir::DcWave{vin.back()});
    vout.push_back(
        cir::solve_dc(ckt).node_voltages[static_cast<std::size_t>(out)]);
  }
  // Monotone falling, with gain > 1 somewhere (restoring logic) and the
  // switching threshold (output at mid-rail) near mid-rail.
  double max_gain = 0.0;
  double vm = -1.0;
  for (std::size_t i = 1; i < vout.size(); ++i) {
    EXPECT_LE(vout[i], vout[i - 1] + 1e-9);
    max_gain = std::max(max_gain, (vout[i - 1] - vout[i]) /
                                      (vin[i] - vin[i - 1]));
    const double half = tech.vdd_v / 2.0;
    if (vm < 0 && vout[i - 1] >= half && vout[i] < half) {
      vm = vin[i - 1] + (half - vout[i - 1]) / (vout[i] - vout[i - 1]) *
                            (vin[i] - vin[i - 1]);
    }
  }
  // Rails at the ends.
  EXPECT_NEAR(vout.front(), tech.vdd_v, 1e-2);
  EXPECT_NEAR(vout.back(), 0.0, 1e-2);
  EXPECT_GT(max_gain, 1.0);
  EXPECT_GT(vm, 0.3);
  EXPECT_LT(vm, 0.7);
}

}  // namespace
