// ROM-vs-full-order scaling: the PRIMA reduced bus against the sparse-MNA
// transient engine on the paper's 16-line, 128-segment coupled bus (2098
// MNA unknowns). The reproduction payload times a 100-point driver x load
// scenario sweep both ways — reduce the bare bus once (a degenerate-box
// ParametrizedBusRom) + evaluate per point (ROM) vs a full transient per
// point (MNA) — and differentially checks the
// reduced-model 50% delay and far-end noise peak on every point.
// Acceptance: <= 1% worst-case error (a failed check exits non-zero); the
// >= 10x sweep speedup is printed, not gated. Since the full-MNA path
// factors the linear bus once per transient (about 75-95 ms per point on
// a 4-core VM), the sweep speedup measures 19-25x; the printed line sits
// at half of that so VM noise does not flip it.
//
// A second table is the reduction ladder behind PRIMA's factor choice:
// on the terminated 16x64, 16x128, 32x640 and 64x1024 bus pencils, stamped
// in their line modes, it times the sparse LU and the banded Cholesky
// factor (fresh factorization, as in one reduction) and 12 solves each,
// and checks that every band factor is half-bandwidth 1
// (cnti.solver.nnz_lu == 2 n: a nodal stamp would be as wide as the line
// count) and the band solves' backward error.
//
// A third table times one per-drive reduction both ways on the 16 x 64
// and 16 x 128 buses: one PRIMA run on the whole terminated bus (single
// stage) against rom::reduce_driven_bus (a kModeOrder-vector reduction of
// every line mode in lockstep, then PRIMA on the block model). It checks
// that a drive is one cnti.rom.reductions count, two factorizations and
// kModeOrder + kDrivenBusOrder solves, and that the two paths' KPIs agree
// to 1e-5 over strong and weak drivers, both loads and both aggressors.
//
// Metrics land in BENCH_bench_rom_scaling.json when CNTI_BENCH_JSON is
// set (see bench_common.hpp), which is where the perf trajectory tracking
// starts.
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "circuit/crosstalk.hpp"
#include "core/mwcnt_line.hpp"
#include "core/sweep_engine.hpp"
#include "numerics/band_cholesky.hpp"
#include "numerics/rng.hpp"
#include "numerics/sparse_lu.hpp"
#include "obs/obs.hpp"
#include "rom/interconnect_rom.hpp"
#include "rom/parametrized_rom.hpp"

namespace {

using namespace cnti;

constexpr int kLines = 16;
constexpr int kSegments = 128;
constexpr int kTimeSteps = 600;

circuit::BusTopology paper_bus(int lines = kLines, int segments = kSegments) {
  circuit::BusTopology t;
  t.line = core::make_paper_mwcnt(10, 4.0, 20e3).rlc();
  t.coupling_cap_per_m = 30e-12;
  t.length_m = 100e-6;
  t.lines = lines;
  t.segments = segments;
  return t;
}

circuit::BusCrosstalkResult full_mna(const circuit::BusTopology& topology,
                                     const circuit::BusDrive& drive) {
  return circuit::analyze_bus_crosstalk(circuit::build_bus_netlist(topology),
                                        topology, drive, kTimeSteps);
}

/// 10 x 10 driver-strength x receiver-load grid (the scenario sweep).
core::SweepGrid scenario_grid() {
  std::vector<double> drivers, loads;
  for (int i = 0; i < 10; ++i) {
    drivers.push_back(1e3 * std::pow(20.0, i / 9.0));   // 1k .. 20k Ohm
    loads.push_back(0.05e-15 * std::pow(20.0, i / 9.0));  // 0.05 .. 1 fF
  }
  return core::SweepGrid({{"driver_ohm", drivers}, {"load_f", loads}});
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Interleaved min-of-`reps` wall time of each callable: rounds alternate
/// between them, so machine noise lands on both and the minimum is the
/// quiet-machine estimate.
template <typename A, typename B>
std::pair<double, double> min_interleaved(int reps, A&& a, B&& b) {
  double best_a = 1e300, best_b = 1e300;
  for (int i = 0; i < reps; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    a();
    best_a = std::min(best_a, seconds_since(t0));
    t0 = std::chrono::steady_clock::now();
    b();
    best_b = std::min(best_b, seconds_since(t0));
  }
  return {best_a, best_b};
}

/// Reduction ladder: one PRIMA factorization + 12 Krylov solves of the
/// terminated bus pencil K = G + s0 C, sparse LU vs banded Cholesky.
void print_reduction_ladder() {
  struct Rung {
    int lines, segments, reps;
  };
  constexpr int kSolves = 12;
  Table t({"bus (modal)", "n", "band half-bw", "LU factor [ms]",
           "band factor [ms]", "band / LU", "12 solves LU / band [ms]",
           "LU nnz(L+U)", "band nnz_lu", "band vs LU", "band backward err"});
  bool band_wins_everywhere = true;
  for (const Rung r : {Rung{16, 64, 20}, Rung{16, 128, 10},
                       Rung{32, 640, 3}, Rung{64, 1024, 2}}) {
    const circuit::BusTopology topology = paper_bus(r.lines, r.segments);
    const circuit::BusDrive drive;
    const rom::StateSpace ss =
        rom::terminate_bus(rom::stamp_bus(topology), drive);
    const double s0 = 20.0 / circuit::bus_settle_time_s(topology, drive);
    numerics::SparseBuilder kb(ss.g.rows(), ss.g.cols());
    for (const auto& [m, scale] :
         {std::pair{&ss.g, 1.0}, std::pair{&ss.c, s0}}) {
      for (std::size_t row = 0; row < m->rows(); ++row) {
        for (std::size_t k = m->row_ptr()[row]; k < m->row_ptr()[row + 1];
             ++k) {
          kb.add(row, m->col_indices()[k], scale * m->values()[k]);
        }
      }
    }
    const numerics::SparseMatrix pencil = kb.build();

    // PRIMA builds a fresh factor per reduction, so each round does too.
    numerics::SparseLu lu;
    numerics::BandCholesky band;
    const auto [t_lu, t_band] = min_interleaved(
        r.reps,
        [&] {
          lu = numerics::SparseLu();
          lu.factorize(pencil);
        },
        [&] {
          band = numerics::BandCholesky();
          bench::check(band.factorize(ss.g, ss.c, s0, pencil.rows()),
                       "band factor declined a symmetric bus pencil");
        });
    const double band_nnz = obs::gauge("cnti.solver.nnz_lu").value();
    numerics::Rng rng(1);
    std::vector<std::vector<double>> rhs(kSolves,
                                         std::vector<double>(pencil.rows()));
    for (auto& v : rhs) {
      for (double& x : v) x = rng.uniform(-1.0, 1.0);
    }
    // The two solutions differ by the pencil's conditioning times the
    // rounding of each factor; the band factor's own accuracy is its
    // backward error |K x - b| / (|K| |x| + |b|) (infinity norms).
    double k_norm = 0.0;
    for (std::size_t row = 0; row < pencil.rows(); ++row) {
      double sum = 0.0;
      for (std::size_t k = pencil.row_ptr()[row];
           k < pencil.row_ptr()[row + 1]; ++k) {
        sum += std::abs(pencil.values()[k]);
      }
      k_norm = std::max(k_norm, sum);
    }
    const auto inf_norm = [](const std::vector<double>& v) {
      double m = 0.0;
      for (const double x : v) m = std::max(m, std::abs(x));
      return m;
    };
    double max_rel = 0.0, backward = 0.0;
    for (const auto& v : rhs) {
      const auto x_lu = lu.solve(v);
      const auto x_band = band.solve(v);
      double diff = 0.0;
      for (std::size_t i = 0; i < x_lu.size(); ++i) {
        diff = std::max(diff, std::abs(x_band[i] - x_lu[i]));
      }
      max_rel = std::max(max_rel, diff / inf_norm(x_lu));
      std::vector<double> residual = pencil * x_band;
      for (std::size_t i = 0; i < residual.size(); ++i) residual[i] -= v[i];
      backward = std::max(backward, inf_norm(residual) /
                                        (k_norm * inf_norm(x_band) +
                                         inf_norm(v)));
    }
    const auto [s_lu, s_band] = min_interleaved(
        r.reps,
        [&] {
          for (const auto& v : rhs) benchmark::DoNotOptimize(lu.solve(v));
        },
        [&] {
          for (const auto& v : rhs) benchmark::DoNotOptimize(band.solve(v));
        });
    const std::size_t n = pencil.rows();
    const std::size_t w = band.half_bandwidth();
    const std::string tag =
        std::to_string(r.lines) + "x" + std::to_string(r.segments);
    t.add_row({std::to_string(r.lines) + " x " + std::to_string(r.segments),
               std::to_string(n), std::to_string(w),
               Table::num(1e3 * t_lu, 4), Table::num(1e3 * t_band, 4),
               Table::num(t_band / t_lu, 3),
               Table::num(1e3 * s_lu, 3) + " / " + Table::num(1e3 * s_band, 3),
               std::to_string(lu.nnz_l() + lu.nnz_u()),
               std::to_string(static_cast<std::size_t>(band_nnz)),
               Table::num(max_rel, 3),
               Table::num(backward, 3)});
    if (t_band >= t_lu) {
      band_wins_everywhere = false;
    }
    bench::check(band_nnz == 2.0 * static_cast<double>(n),
                 "band factor of the " + tag +
                     " bus is not half-bandwidth 1 (nnz_lu != 2n)");
    bench::check(backward <= 1e-14,
                 "band solve backward error above 1e-14 on " + tag);
    bench::json().set("lu_factor_ms_" + tag, 1e3 * t_lu);
    bench::json().set("band_factor_ms_" + tag, 1e3 * t_band);
    bench::json().set("lu_solves_ms_" + tag, 1e3 * s_lu);
    bench::json().set("band_solves_ms_" + tag, 1e3 * s_band);
  }
  std::cout << "\nReduction ladder (one factorization + " << kSolves
            << " solves of the terminated bus pencil, min of interleaved "
               "rounds):\n";
  t.print(std::cout);
  std::cout << "The band factor "
            << (band_wins_everywhere ? "beats" : "does NOT beat")
            << " the sparse LU on every rung\n";
}

/// Per-drive reduction: single-stage PRIMA of the terminated bus against
/// the two-stage rom::reduce_driven_bus, timed and checked.
void print_per_drive_reduction() {
  Table t({"bus (per drive)", "n", "single-stage [us]", "two-stage [us]",
           "speedup", "factorizations", "solves", "max KPI diff"});
  for (const auto& [lines, segments] :
       {std::pair{16, 64}, std::pair{16, 128}}) {
    const circuit::BusTopology topology = paper_bus(lines, segments);
    const rom::BusStateSpace bare = rom::stamp_bus(topology);
    const std::string tag =
        std::to_string(lines) + "x" + std::to_string(segments);
    const auto single_stage = [&](const circuit::BusDrive& drive) {
      rom::PrimaOptions opt;
      opt.order = rom::kDrivenBusOrder;
      opt.expansion_rad_per_s =
          20.0 / circuit::bus_settle_time_s(topology, drive);
      return rom::prima_reduce(rom::terminate_bus(bare, drive), opt);
    };

    double max_diff = 0.0;
    for (const double ohm : {200.0, 100e3}) {
      for (const double load : {0.0, 5e-15}) {
        for (const int aggressor : {0, lines / 2}) {
          circuit::BusDrive drive;
          drive.aggressor = aggressor;
          drive.driver_ohm = ohm;
          drive.receiver_load_f = load;
          rom::BusScenario sc;
          sc.driver_ohm = ohm;
          sc.receiver_load_f = load;
          const double window = circuit::bus_settle_time_s(topology, drive);
          const auto a = rom::evaluate_driven_bus(single_stage(drive),
                                                  aggressor, sc, window,
                                                  kTimeSteps);
          const auto b = rom::evaluate_driven_bus(
              rom::reduce_driven_bus(bare, drive), aggressor, sc, window,
              kTimeSteps);
          max_diff = std::max(
              {max_diff,
               std::abs(b.peak_noise_v - a.peak_noise_v) /
                   std::abs(a.peak_noise_v),
               std::abs(b.aggressor_delay_s - a.aggressor_delay_s) /
                   a.aggressor_delay_s});
        }
      }
    }

    circuit::BusDrive drive;
    drive.driver_ohm = 2e3;
    drive.receiver_load_f = 0.5e-15;
    const obs::Counter reductions = obs::counter("cnti.rom.reductions");
    const obs::Counter factorizations =
        obs::counter("cnti.solver.factorizations");
    const obs::Counter solves = obs::counter("cnti.solver.solves");
    const std::uint64_t n0 = reductions.value();
    const std::uint64_t f0 = factorizations.value();
    const std::uint64_t s0 = solves.value();
    benchmark::DoNotOptimize(rom::reduce_driven_bus(bare, drive));
    const std::uint64_t n = reductions.value() - n0;
    const std::uint64_t f = factorizations.value() - f0;
    const std::uint64_t sv = solves.value() - s0;

    const auto [t_single, t_two] = min_interleaved(
        200, [&] { benchmark::DoNotOptimize(single_stage(drive)); },
        [&] { benchmark::DoNotOptimize(rom::reduce_driven_bus(bare, drive)); });
    t.add_row({std::to_string(lines) + " x " + std::to_string(segments),
               std::to_string(bare.size()), Table::num(1e6 * t_single, 4),
               Table::num(1e6 * t_two, 4), Table::num(t_single / t_two, 3),
               std::to_string(f), std::to_string(sv),
               Table::num(max_diff, 3)});
    bench::check(n == 1, "a " + tag + " drive is not one reduction");
    bench::check(f == 2, "a " + tag + " drive is not two factorizations");
    bench::check(sv == static_cast<std::uint64_t>(rom::kModeOrder +
                                                  rom::kDrivenBusOrder),
                 "a " + tag + " drive is not kModeOrder + kDrivenBusOrder "
                 "solves");
    bench::check(max_diff <= 1e-5, "two-stage KPIs off single-stage by more "
                                   "than 1e-5 on " + tag);
    bench::json().set("single_stage_reduce_us_" + tag, 1e6 * t_single);
    bench::json().set("two_stage_reduce_us_" + tag, 1e6 * t_two);
  }
  std::cout << "\nPer-drive reduction (single-stage PRIMA of the terminated "
               "bus vs two-stage reduce_driven_bus, min of 200 interleaved "
               "rounds; KPI diff over 8 drives):\n";
  t.print(std::cout);
}

void print_reproduction() {
  bench::print_header(
      "PRIMA ROM vs full sparse-MNA on the 16 x 128 coupled bus",
      "100-point driver x load scenario sweep over the 2098-unknown bus: "
      "full transient per point (sparse MNA) vs reduce-once + small dense "
      "evaluation per point (PRIMA). Every point is differentially checked "
      "(50% delay, far-end noise peak). Acceptance: <= 1% error; the "
      ">= 10x speedup is reported, not gated.");
  bench::json().set_name("bench_rom_scaling");

  const circuit::BusTopology topology = paper_bus();
  const core::SweepGrid grid = scenario_grid();

  // --- ROM path: one reduction, then 100 cheap evaluations. --------------
  const auto t_reduce0 = std::chrono::steady_clock::now();
  const rom::ParametrizedBusRom bus(topology, rom::BusTechBox{});
  const double t_reduce = seconds_since(t_reduce0);

  const auto t_rom0 = std::chrono::steady_clock::now();
  std::vector<circuit::BusCrosstalkResult> rom_results(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto p = grid.point(i);
    rom::BusScenario sc;
    sc.driver_ohm = p.at("driver_ohm");
    sc.receiver_load_f = p.at("load_f");
    rom_results[i] = bus.evaluate({}, sc, kTimeSteps);
  }
  const double t_rom_eval = seconds_since(t_rom0);

  // --- Full-order reference: one sparse transient per point. -------------
  const auto t_full0 = std::chrono::steady_clock::now();
  std::vector<circuit::BusCrosstalkResult> full_results(grid.size());
  int full_unknowns = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto p = grid.point(i);
    circuit::BusDrive drive;
    drive.driver_ohm = p.at("driver_ohm");
    drive.receiver_load_f = p.at("load_f");
    full_results[i] = full_mna(topology, drive);
    full_unknowns = full_results[i].unknowns;
  }
  const double t_full = seconds_since(t_full0);

  double max_noise_err = 0.0, max_delay_err = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    max_noise_err = std::max(
        max_noise_err,
        std::abs(rom_results[i].peak_noise_v - full_results[i].peak_noise_v) /
            std::abs(full_results[i].peak_noise_v));
    max_delay_err = std::max(
        max_delay_err, std::abs(rom_results[i].aggressor_delay_s -
                                full_results[i].aggressor_delay_s) /
                           full_results[i].aggressor_delay_s);
  }
  const double t_rom_total = t_reduce + t_rom_eval;
  const double speedup = t_full / t_rom_total;

  Table t({"path", "order", "sweep time [s]", "per point [ms]",
           "max noise err [%]", "max delay err [%]"});
  t.add_row({"full sparse MNA", std::to_string(full_unknowns),
             Table::num(t_full, 4),
             Table::num(1e3 * t_full / static_cast<double>(grid.size()), 4),
             "-", "-"});
  t.add_row({"PRIMA ROM", std::to_string(bus.order()),
             Table::num(t_rom_total, 4),
             Table::num(1e3 * t_rom_eval / static_cast<double>(grid.size()), 4),
             Table::num(100.0 * max_noise_err, 4),
             Table::num(100.0 * max_delay_err, 4)});
  t.print(std::cout);
  std::cout << "\nReduce once: " << Table::num(t_reduce, 4)
            << " s (order " << bus.order() << " of " << bus.full_order()
            << "); sweep speedup " << Table::num(speedup, 4) << "x ("
            << (speedup >= 10.0 ? "above" : "below") << " 10x)\n";
  bench::check(max_noise_err <= 0.01,
               "ROM far-end noise peak off full MNA by more than 1%");
  bench::check(max_delay_err <= 0.01,
               "ROM 50% delay off full MNA by more than 1%");

  bench::json().set("sweep_points", static_cast<double>(grid.size()));
  bench::json().set("full_unknowns", full_unknowns);
  bench::json().set("rom_order", bus.order());
  bench::json().set("reduce_s", t_reduce);
  bench::json().set("rom_eval_s", t_rom_eval);
  bench::json().set("full_sweep_s", t_full);
  bench::json().set("speedup", speedup);
  bench::json().set("max_noise_err_pct", 100.0 * max_noise_err);
  bench::json().set("max_delay_err_pct", 100.0 * max_delay_err);

  print_reduction_ladder();
  print_per_drive_reduction();
}

void BM_PrimaReduceBus(benchmark::State& state) {
  const circuit::BusTopology topology = paper_bus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rom::ParametrizedBusRom(topology, rom::BusTechBox{}));
  }
}
BENCHMARK(BM_PrimaReduceBus)->Unit(benchmark::kMillisecond);

void BM_RomScenarioEvaluate(benchmark::State& state) {
  const rom::ParametrizedBusRom bus(paper_bus(), rom::BusTechBox{});
  rom::BusScenario sc;
  sc.driver_ohm = 2e3;
  sc.receiver_load_f = 0.5e-15;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bus.evaluate({}, sc, kTimeSteps));
  }
}
BENCHMARK(BM_RomScenarioEvaluate)->Unit(benchmark::kMillisecond);

void BM_FullMnaScenario(benchmark::State& state) {
  const circuit::BusTopology topology = paper_bus();
  circuit::BusDrive drive;
  drive.driver_ohm = 2e3;
  drive.receiver_load_f = 0.5e-15;
  for (auto _ : state) {
    benchmark::DoNotOptimize(full_mna(topology, drive));
  }
}
BENCHMARK(BM_FullMnaScenario)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

CNTI_BENCH_MAIN(print_reproduction)
