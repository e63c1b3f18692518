// Reproduces paper Figs. 11+12 — the headline circuit result: 45 nm
// inverters driving doped MWCNT interconnects; delay ratio
// doped/pristine(N_c = 2) vs. interconnect length, outer diameter
// D_max in {10, 14, 22} nm and channels per shell N_c in 2..10.
//
// Paper checkpoints (Sec. III.C): at L = 500 um, heavy doping reduces the
// propagation delay by ~10% (D=10 nm), ~5% (14 nm), ~2% (22 nm); doping
// grows more effective with L and less effective with D (more shells).
// The full MNA transient is cross-checked against the Elmore estimate.
// The binary exits non-zero when the MNA table leaves those checkpoints:
// a reduction more than 2 percentage points from the paper's, a reduction
// that does not fall with D, or a D = 10 nm ratio that does not fall with
// L.
#include "bench_common.hpp"

#include <cmath>

#include "circuit/builders.hpp"
#include "common/units.hpp"
#include "core/line_model.hpp"
#include "core/mwcnt_line.hpp"

namespace {

using namespace cnti;
using units::from_um;

double elmore_ratio(double d_nm, double nc, double l_um) {
  core::DriverLineLoad cfg;
  cfg.driver_resistance_ohm = 2.5e3;  // 8x 45 nm inverter
  cfg.load_capacitance_f = 0.3e-15;
  cfg.length_m = from_um(l_um);
  cfg.line = core::make_paper_mwcnt(d_nm, 2).rlc();
  const double t_p = core::elmore_delay(cfg);
  cfg.line = core::make_paper_mwcnt(d_nm, nc).rlc();
  return core::elmore_delay(cfg) / t_p;
}

double mna_ratio(double d_nm, double nc, double l_um) {
  circuit::Fig11Options opt;
  opt.length_m = from_um(l_um);
  opt.segments = 16;
  opt.line = core::make_paper_mwcnt(d_nm, 2).rlc();
  const double t_p = circuit::measure_fig11_delay(opt, 1200);
  opt.line = core::make_paper_mwcnt(d_nm, nc).rlc();
  const double t_d = circuit::measure_fig11_delay(opt, 1200);
  return t_d / t_p;
}

void print_reproduction() {
  bench::print_header(
      "Figs. 11+12 — doped/pristine MWCNT delay ratio (45 nm inverters)",
      "Delay ratio = t_pd(N_c) / t_pd(N_c = 2). Contact resistance 200 "
      "kOhm (doping-independent), C_E = 50 aF/um (doping-independent, "
      "Eq. 5).");

  // Elmore sweep: ratio vs. length for each diameter at heavy doping.
  std::cout << "Delay ratio vs. length (N_c = 10, Elmore):\n";
  Table tl({"L [um]", "D=10 nm", "D=14 nm", "D=22 nm"});
  for (double l : {1.0, 10.0, 50.0, 100.0, 200.0, 500.0, 1000.0}) {
    tl.add_row({Table::num(l, 4), Table::num(elmore_ratio(10, 10, l), 4),
                Table::num(elmore_ratio(14, 10, l), 4),
                Table::num(elmore_ratio(22, 10, l), 4)});
  }
  tl.print(std::cout);

  // Ratio vs. N_c at the paper's L = 500 um.
  std::cout << "\nDelay ratio vs. N_c per shell at L = 500 um (Elmore):\n";
  Table tn({"N_c", "D=10 nm", "D=14 nm", "D=22 nm"});
  for (double nc : {2.0, 4.0, 6.0, 8.0, 10.0}) {
    tn.add_row({Table::num(nc, 3),
                Table::num(elmore_ratio(10, nc, 500), 4),
                Table::num(elmore_ratio(14, nc, 500), 4),
                Table::num(elmore_ratio(22, nc, 500), 4)});
  }
  tn.print(std::cout);

  // Full MNA transient at the paper's checkpoint.
  std::cout << "\nFull MNA transient at L = 500 um, N_c = 10 "
               "(paper: ~10/5/2 % reduction):\n";
  Table tm({"D [nm]", "shells", "ratio (MNA)", "reduction [%]",
            "ratio (Elmore)", "paper reduction [%]"});
  const double diameters[] = {10.0, 14.0, 22.0};
  const double paper[] = {10.0, 5.0, 2.0};
  double reduction[3];
  for (int i = 0; i < 3; ++i) {
    const double d = diameters[i];
    const double rm = mna_ratio(d, 10, 500);
    reduction[i] = 100.0 * (1.0 - rm);
    tm.add_row({Table::num(d, 3),
                std::to_string(core::make_paper_mwcnt(d, 2).shell_count()),
                Table::num(rm, 4), Table::num(reduction[i], 3),
                Table::num(elmore_ratio(d, 10, 500), 4),
                Table::num(paper[i], 2)});
    bench::check(std::abs(reduction[i] - paper[i]) <= 2.0,
                 "D = " + Table::num(d, 3) + " nm: MNA reduction " +
                     Table::num(reduction[i], 3) + " % is more than 2 "
                     "points from the paper's " + Table::num(paper[i], 2) +
                     " %");
    if (i > 0) {
      bench::check(reduction[i] < reduction[i - 1],
                   "MNA reduction does not fall from D = " +
                       Table::num(diameters[i - 1], 3) + " to " +
                       Table::num(d, 3) + " nm");
    }
  }
  tm.print(std::cout);

  // Length trend at D = 10 nm with the MNA engine.
  std::cout << "\nMNA ratio vs. length, D = 10 nm, N_c = 10 (doping gains "
               "with L):\n";
  Table tt({"L [um]", "ratio (MNA)"});
  double prev_ratio = 0.0;
  for (double l : {10.0, 100.0, 500.0}) {
    const double r = mna_ratio(10, 10, l);
    tt.add_row({Table::num(l, 4), Table::num(r, 4)});
    if (l > 10.0) {
      bench::check(r < prev_ratio, "D = 10 nm MNA ratio does not fall at L = " +
                                       Table::num(l, 4) + " um");
    }
    prev_ratio = r;
  }
  tt.print(std::cout);
}

void BM_Fig11Transient(benchmark::State& state) {
  circuit::Fig11Options opt;
  opt.length_m = 100e-6;
  opt.segments = 16;
  opt.line = core::make_paper_mwcnt(10, 2).rlc();
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit::measure_fig11_delay(opt, 600));
  }
}
BENCHMARK(BM_Fig11Transient)->Unit(benchmark::kMillisecond);

void BM_ElmoreSweep(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(elmore_ratio(10, 10, 500));
  }
}
BENCHMARK(BM_ElmoreSweep);

}  // namespace

CNTI_BENCH_MAIN(print_reproduction)
