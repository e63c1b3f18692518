// ROM-vs-full-order scaling: the PRIMA reduced bus against the sparse-MNA
// transient engine on the paper's 16-line, 128-segment coupled bus (2098
// MNA unknowns). The reproduction payload times a 100-point driver x load
// scenario sweep both ways — reduce the bare bus once (a degenerate-box
// ParametrizedBusRom) + evaluate per point (ROM) vs a full transient per
// point (MNA) — and differentially checks the
// reduced-model 50% delay and far-end noise peak on every point.
// Acceptance floor: >= 20x sweep speedup with <= 1% worst-case error.
//
// Metrics land in BENCH_bench_rom_scaling.json when CNTI_BENCH_JSON is
// set (see bench_common.hpp), which is where the perf trajectory tracking
// starts.
#include "bench_common.hpp"

#include <chrono>
#include <cmath>
#include <vector>

#include "circuit/crosstalk.hpp"
#include "core/mwcnt_line.hpp"
#include "core/sweep_engine.hpp"
#include "rom/parametrized_rom.hpp"

namespace {

using namespace cnti;

constexpr int kLines = 16;
constexpr int kSegments = 128;
constexpr int kTimeSteps = 600;

circuit::BusConfig paper_bus() {
  circuit::BusConfig cfg;
  cfg.line = core::make_paper_mwcnt(10, 4.0, 20e3).rlc();
  cfg.coupling_cap_per_m = 30e-12;
  cfg.length_m = 100e-6;
  cfg.lines = kLines;
  cfg.segments = kSegments;
  return cfg;
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

void print_reproduction() {
  bench::print_header(
      "PRIMA ROM vs full sparse-MNA on the 16 x 128 coupled bus",
      "100-point driver x load scenario sweep over the 2098-unknown bus: "
      "full transient per point (sparse MNA) vs reduce-once + small dense "
      "evaluation per point (PRIMA). Every point is differentially checked "
      "(50% delay, far-end noise peak). Acceptance: >= 20x, <= 1% error.");
  bench::json().set_name("bench_rom_scaling");

  const circuit::BusConfig cfg = paper_bus();
  const core::SweepGrid grid = scenario_grid();

  // --- ROM path: one reduction, then 100 cheap evaluations. --------------
  const auto t_reduce0 = std::chrono::steady_clock::now();
  const rom::ParametrizedBusRom bus(cfg.topology(), rom::BusTechBox{});
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
    circuit::BusConfig point_cfg = cfg;
    point_cfg.driver_ohm = p.at("driver_ohm");
    point_cfg.receiver_load_f = p.at("load_f");
    full_results[i] = circuit::analyze_bus_crosstalk(point_cfg, kTimeSteps);
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
            << (speedup >= 20.0 ? "PASS" : "FAIL") << " >= 20x), errors "
            << (max_noise_err <= 0.01 && max_delay_err <= 0.01 ? "PASS"
                                                               : "FAIL")
            << " <= 1%\n";

  bench::json().set("sweep_points", static_cast<double>(grid.size()));
  bench::json().set("full_unknowns", full_unknowns);
  bench::json().set("rom_order", bus.order());
  bench::json().set("reduce_s", t_reduce);
  bench::json().set("rom_eval_s", t_rom_eval);
  bench::json().set("full_sweep_s", t_full);
  bench::json().set("speedup", speedup);
  bench::json().set("max_noise_err_pct", 100.0 * max_noise_err);
  bench::json().set("max_delay_err_pct", 100.0 * max_delay_err);
}

void BM_PrimaReduceBus(benchmark::State& state) {
  const circuit::BusConfig cfg = paper_bus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rom::ParametrizedBusRom(cfg.topology(), rom::BusTechBox{}));
  }
}
BENCHMARK(BM_PrimaReduceBus)->Unit(benchmark::kMillisecond);

void BM_RomScenarioEvaluate(benchmark::State& state) {
  const rom::ParametrizedBusRom bus(paper_bus().topology(),
                                    rom::BusTechBox{});
  rom::BusScenario sc;
  sc.driver_ohm = 2e3;
  sc.receiver_load_f = 0.5e-15;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bus.evaluate({}, sc, kTimeSteps));
  }
}
BENCHMARK(BM_RomScenarioEvaluate)->Unit(benchmark::kMillisecond);

void BM_FullMnaScenario(benchmark::State& state) {
  circuit::BusConfig cfg = paper_bus();
  cfg.driver_ohm = 2e3;
  cfg.receiver_load_f = 0.5e-15;
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit::analyze_bus_crosstalk(cfg, kTimeSteps));
  }
}
BENCHMARK(BM_FullMnaScenario)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

CNTI_BENCH_MAIN(print_reproduction)
