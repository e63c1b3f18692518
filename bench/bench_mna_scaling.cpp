// MNA linear-backend scaling: dense LU vs the sparse Gilbert–Peierls path
// on coupled CNT bus transients of growing size. This is the engine-level
// benchmark behind the ROADMAP scale goals — wide multi-line buses
// (Ting/Kreupl-style CNT via arrays and bus interconnects) need thousands
// of unknowns, where a fresh dense O(n^3) factorization per Newton
// iteration is the wall. The reproduction table reports wall-clock for an
// identical short transient through both backends; the sparse path must be
// >= 10x faster at the 2000-unknown bus (it lands far above that, since
// its solves are near O(nnz) for banded ladders).
//
// Above the dense-affordable sizes a sparse-only ladder climbs into the
// 10^4-10^5-unknown regime: each rung reports the kAmd transient
// wall-clock, its factorization counts (a linear bus factors once for DC
// and once for the transient, and never refactorizes; a failed count
// exits non-zero) and the AMD-vs-natural nnz(L+U) of its shifted MNA
// pencil.
#include "bench_common.hpp"

#include <chrono>
#include <cmath>
#include <cstdint>

#include "circuit/crosstalk.hpp"
#include "circuit/mna.hpp"
#include "core/mwcnt_line.hpp"
#include "numerics/ordering.hpp"
#include "numerics/sparse_lu.hpp"
#include "obs/obs.hpp"
#include "rom/state_space.hpp"

namespace {

using namespace cnti;

circuit::BusTopology bus_topology(int lines, int segments) {
  circuit::BusTopology t;
  t.line = core::make_paper_mwcnt(10, 4.0, 20e3).rlc();
  t.coupling_cap_per_m = 30e-12;
  t.length_m = 100e-6;
  t.lines = lines;
  t.segments = segments;
  return t;
}

circuit::BusDrive solver_drive(circuit::SolverKind solver) {
  circuit::BusDrive d;
  d.mna.solver = solver;
  return d;
}

circuit::BusCrosstalkResult run_bus(const circuit::BusTopology& topology,
                                    const circuit::BusDrive& drive,
                                    int steps) {
  return circuit::analyze_bus_crosstalk(circuit::build_bus_netlist(topology),
                                        topology, drive, steps);
}

double timed_bus_seconds(int lines, int segments,
                         circuit::SolverKind solver, int steps,
                         circuit::BusCrosstalkResult* result = nullptr) {
  const circuit::BusTopology topology = bus_topology(lines, segments);
  const auto t0 = std::chrono::steady_clock::now();
  const circuit::BusCrosstalkResult r =
      run_bus(topology, solver_drive(solver), steps);
  const auto t1 = std::chrono::steady_clock::now();
  if (result) *result = r;
  return std::chrono::duration<double>(t1 - t0).count();
}

void print_reproduction() {
  bench::json().set_name("bench_mna_scaling");
  bench::print_header(
      "MNA backend scaling — dense vs sparse LU on coupled CNT buses",
      "Identical short transients (DC + 20 timesteps, trapezoidal) through "
      "both linear backends. Both factor the linear bus once per analysis "
      "and then solve once per step; the sparse path freezes the CSR "
      "pattern and orders it once. Acceptance floor is >= 10x at >= 2000 "
      "unknowns.");

  // Small-to-large sweep at matched step counts. The 20-step window keeps
  // the dense O(n^3) reference affordable at the big sizes.
  constexpr int kSteps = 20;
  Table t({"lines x segs", "unknowns", "dense [s]", "sparse [s]",
           "speedup", "noise agree"});
  struct Case {
    int lines;
    int segments;
  };
  for (const Case c : {Case{4, 16}, Case{8, 32}, Case{8, 64},
                       Case{16, 128}}) {
    circuit::BusCrosstalkResult rd, rs;
    const double td = timed_bus_seconds(c.lines, c.segments,
                                        circuit::SolverKind::kDense, kSteps,
                                        &rd);
    const double ts = timed_bus_seconds(c.lines, c.segments,
                                        circuit::SolverKind::kSparse, kSteps,
                                        &rs);
    const double dv = std::abs(rd.peak_noise_v - rs.peak_noise_v);
    t.add_row({std::to_string(c.lines) + " x " + std::to_string(c.segments),
               std::to_string(rd.unknowns), Table::num(td, 4),
               Table::num(ts, 4), Table::num(td / ts, 4),
               dv < 1e-8 ? "yes" : "NO"});
    // Trajectory metrics for the acceptance case (the 2000-unknown bus).
    if (c.lines == 16 && c.segments == 128) {
      bench::json().set("unknowns", rd.unknowns);
      bench::json().set("dense_s", td);
      bench::json().set("sparse_s", ts);
      bench::json().set("speedup", td / ts);
      bench::json().set("noise_abs_diff_v", dv);
    }
  }
  t.print(std::cout);

  // What the sparse engine unlocks: a full-length transient on the
  // 2000+-unknown bus, which the dense path cannot touch interactively.
  circuit::BusCrosstalkResult full;
  const double tfull = timed_bus_seconds(16, 128,
                                         circuit::SolverKind::kSparse, 1000,
                                         &full);
  std::cout << "\nFull 1000-step transient, 16 x 128 bus ("
            << full.unknowns << " unknowns, sparse): "
            << Table::num(tfull, 4) << " s, worst victim line "
            << full.worst_victim << ", noise "
            << Table::num(full.peak_noise_v * 1e3, 4) << " mV\n";
  bench::json().set("full_transient_s", tfull);
  bench::json().set("full_noise_mv", full.peak_noise_v * 1e3);

  // --- Sparse-only size ladder into the 10^4-10^5 regime -----------------
  // No dense reference above 16 x 128 (an O(n^3) factorization per step
  // would take hours); instead each rung reports the AMD-vs-natural factor
  // fill of its shifted MNA pencil G + s C alongside the kAmd transient
  // wall-clock and its factorization counts.
  std::cout << "\nSparse size ladder (kAmd default ordering, DC + "
            << kSteps << " steps):\n";
  Table ladder({"lines x segs", "unknowns", "transient [s]",
                "factor / refactor", "nnz(L+U) nat", "nnz(L+U) amd",
                "fill ratio"});
  const obs::Counter factorizations =
      obs::counter("cnti.solver.factorizations");
  const obs::Counter refactorizations =
      obs::counter("cnti.solver.refactorizations");
  int max_unknowns = 0;
  for (const Case c : {Case{16, 128}, Case{24, 256}, Case{32, 400},
                       Case{32, 640}, Case{64, 1024}}) {
    const std::string tag =
        std::to_string(c.lines) + "x" + std::to_string(c.segments);
    circuit::BusCrosstalkResult r;
    const std::uint64_t f0 = factorizations.value();
    const std::uint64_t r0 = refactorizations.value();
    const double ts = timed_bus_seconds(c.lines, c.segments,
                                        circuit::SolverKind::kSparse, kSteps,
                                        &r);
    const std::uint64_t factored = factorizations.value() - f0;
    const std::uint64_t refactored = refactorizations.value() - r0;
    bench::check(factored == 2 && refactored == 0,
                 "linear bus transient on " + tag + " ran " +
                     std::to_string(factored) + " factorizations and " +
                     std::to_string(refactored) +
                     " refactorizations, expected 2 and 0");
    // Factor fill of the bare-bus shifted pencil at the analysis corner
    // (the same pattern the transient's companion matrices share).
    const circuit::BusTopology topology = bus_topology(c.lines, c.segments);
    // One dummy port satisfies the extractor's inputs>0 contract; G and C
    // are independent of the port list.
    const rom::StateSpace ss = rom::extract_state_space(
        circuit::build_bus_netlist(topology).ckt,
        {.ports = {{"p0", 1}}, .observe = {}, .include_sources = false});
    const double s0 =
        20.0 / circuit::bus_settle_time_s(
                   topology, solver_drive(circuit::SolverKind::kSparse));
    numerics::SparseBuilder pencil(ss.g.rows(), ss.g.rows());
    for (std::size_t row = 0; row < ss.g.rows(); ++row) {
      for (std::size_t t2 = ss.g.row_ptr()[row];
           t2 < ss.g.row_ptr()[row + 1]; ++t2) {
        pencil.add(row, ss.g.col_indices()[t2], ss.g.values()[t2]);
      }
      for (std::size_t t2 = ss.c.row_ptr()[row];
           t2 < ss.c.row_ptr()[row + 1]; ++t2) {
        pencil.add(row, ss.c.col_indices()[t2], s0 * ss.c.values()[t2]);
      }
    }
    const numerics::SparseMatrix a = pencil.build();
    numerics::SparseLu natural;
    natural.factorize(a);
    numerics::SparseLu amd;
    amd.set_column_ordering(numerics::amd_ordering(a));
    amd.factorize(a);
    const double nnz_nat =
        static_cast<double>(natural.nnz_l() + natural.nnz_u());
    const double nnz_amd = static_cast<double>(amd.nnz_l() + amd.nnz_u());
    ladder.add_row({std::to_string(c.lines) + " x " +
                        std::to_string(c.segments),
                    std::to_string(r.unknowns), Table::num(ts, 4),
                    std::to_string(factored) + " / " +
                        std::to_string(refactored),
                    std::to_string(natural.nnz_l() + natural.nnz_u()),
                    std::to_string(amd.nnz_l() + amd.nnz_u()),
                    Table::num(nnz_amd / nnz_nat, 4)});
    max_unknowns = std::max(max_unknowns, r.unknowns);
    if (c.lines == 32 && c.segments == 640) {
      bench::json().set("nnz_lu_natural", nnz_nat);
      bench::json().set("nnz_lu_amd", nnz_amd);
      bench::json().set("ladder_top_transient_s", ts);
      bench::json().set("ladder_top_factorizations",
                        static_cast<double>(factored));
      bench::json().set("ladder_top_refactorizations",
                        static_cast<double>(refactored));
    }
  }
  ladder.print(std::cout);
  bench::json().set("ladder_max_unknowns", static_cast<double>(max_unknowns));
}

void BM_SparseBusTransient(benchmark::State& state) {
  const int lines = static_cast<int>(state.range(0));
  const int segments = static_cast<int>(state.range(1));
  const circuit::BusTopology topology = bus_topology(lines, segments);
  const circuit::BusDrive drive = solver_drive(circuit::SolverKind::kSparse);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_bus(topology, drive, 50));
  }
}
BENCHMARK(BM_SparseBusTransient)
    ->Args({4, 16})
    ->Args({8, 64})
    ->Args({16, 128})
    ->Unit(benchmark::kMillisecond);

void BM_DenseBusTransient(benchmark::State& state) {
  const int lines = static_cast<int>(state.range(0));
  const int segments = static_cast<int>(state.range(1));
  const circuit::BusTopology topology = bus_topology(lines, segments);
  const circuit::BusDrive drive = solver_drive(circuit::SolverKind::kDense);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_bus(topology, drive, 50));
  }
}
BENCHMARK(BM_DenseBusTransient)->Args({4, 16})->Unit(benchmark::kMillisecond);

}  // namespace

CNTI_BENCH_MAIN(print_reproduction)
