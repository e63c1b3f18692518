// Scenario-engine acceptance bench: a mixed 576-scenario batch
// (length x doping x driver x load) with delay + bus-noise + thermal KPIs
// per scenario. The content-keyed memo cache shares one capacitance stage
// and one thermal solve per (length, doping) technology corner across all
// driver/load scenarios, while every drive stamps and reduces its own
// terminated bus; the uncached engine recomputes every stage per scenario
// (measured on a deterministic stride subset and extrapolated).
// Acceptance, enforced through bench::check so a failure exits non-zero:
// cached results bitwise equal to uncached, exactly one PRIMA reduction
// per scenario (576) and one thermal solve per technology corner (16).
// The cached/uncached wall ratio is reported, not gated: a per-drive
// reduction is cheap, so the cache buys little beyond the shared line
// stages.
#include "bench_common.hpp"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>

#include "obs/obs.hpp"
#include "scenario/engine.hpp"
#include "scenario/report.hpp"

namespace {

using namespace cnti;

constexpr int kUncachedStride = 16;
constexpr std::uint64_t kCorners = 16;  ///< 4 lengths x 4 dopings.

scenario::Scenario base_scenario() {
  scenario::Scenario s;
  s.label = "mixed";
  s.tech.outer_diameter_nm = 10.0;
  s.tech.contact_resistance_kohm = 20.0;
  s.workload.bus_lines = 16;
  s.workload.bus_segments = 128;
  s.workload.coupling_cap_af_per_um = 30.0;
  s.analysis.delay = true;
  s.analysis.noise = true;
  s.analysis.noise_model = scenario::NoiseModel::kReducedOrder;
  s.analysis.thermal = true;
  s.analysis.time_steps = 300;
  return s;
}

std::vector<scenario::Scenario> mixed_batch() {
  const core::SweepGrid grid(
      {{"length_um", {30.0, 60.0, 100.0, 150.0}},
       {"doping", {0.0, 0.05, 0.2, 1.0}},
       {"driver_kohm", {2.0, 3.5, 5.0, 7.5, 10.0, 15.0}},
       {"load_ff", {0.05, 0.1, 0.2, 0.35, 0.5, 0.8}}});
  return scenario::expand_grid(
      base_scenario(), grid,
      [](scenario::Scenario& s, const core::SweepPoint& p) {
        s.workload.length_um = p.at("length_um");
        s.tech.dopant_concentration = p.at("doping");
        s.workload.driver_resistance_kohm = p.at("driver_kohm");
        s.workload.load_capacitance_ff = p.at("load_ff");
      });
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void print_reproduction() {
  bench::json().set_name("bench_scenario_engine");
  bench::print_header(
      "Scenario engine — cached vs uncached mixed batch",
      "length x doping x driver x load batch through the full "
      "atomistic -> C_E -> compact -> ROM-noise/delay -> thermal stage "
      "graph. The memo cache shares one capacitance / thermal solve per "
      "technology corner and every drive reduces its own terminated bus; "
      "acceptance is bit-identical cached and uncached results, one "
      "reduction per scenario and one thermal solve per corner.");

  const auto batch = mixed_batch();
  const std::size_t n = batch.size();
  std::cout << "Batch: " << n << " scenarios, 16 technology corners "
            << "(4 lengths x 4 dopings), 36 drive scenarios each\n\n";

  // --- Cached engine, full batch. ---
  const scenario::ScenarioEngine cached;
  const obs::Counter reductions = obs::counter("cnti.rom.reductions");
  const std::uint64_t reductions0 = reductions.value();
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = cached.run_batch(batch);
  const double t_cached = seconds_since(t0);
  const std::uint64_t cached_reductions = reductions.value() - reductions0;

  // --- Uncached engine on a deterministic stride subset. ---
  scenario::EngineOptions cold_opt;
  cold_opt.cache_enabled = false;
  const scenario::ScenarioEngine uncached(cold_opt);
  std::vector<scenario::Scenario> subset;
  for (std::size_t i = 0; i < n; i += kUncachedStride) {
    subset.push_back(batch[i]);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const auto cold_results = uncached.run_batch(subset);
  const double t_cold_subset = seconds_since(t1);
  const double t_uncached_est =
      t_cold_subset * static_cast<double>(n) /
      static_cast<double>(subset.size());

  // --- Differential: cached results must equal the uncached ones bitwise.
  bool identical = true;
  for (std::size_t i = 0; i < subset.size(); ++i) {
    const auto& a = results[i * kUncachedStride];
    const auto& b = cold_results[i];
    identical = identical && a.line.delay_ps == b.line.delay_ps &&
                a.line.resistance_kohm == b.line.resistance_kohm &&
                a.noise && b.noise &&
                a.noise->peak_noise_v == b.noise->peak_noise_v &&
                a.noise->peak_time_s == b.noise->peak_time_s &&
                a.noise->worst_victim == b.noise->worst_victim &&
                a.noise->aggressor_delay_s == b.noise->aggressor_delay_s &&
                a.noise->unknowns == b.noise->unknowns && a.thermal &&
                b.thermal && a.thermal->peak_rise_k == b.thermal->peak_rise_k &&
                a.thermal->ampacity_ua == b.thermal->ampacity_ua;
  }

  const double speedup = t_uncached_est / t_cached;
  const double cached_ms = 1e3 * t_cached / static_cast<double>(n);
  const auto thermal_stats = cached.cache().stats(scenario::stage::kThermal);
  const auto total = cached.cache().total_stats();

  Table t({"path", "scenarios", "wall [s]", "per scenario [ms]"});
  t.add_row({"cached engine", std::to_string(n), Table::num(t_cached, 4),
             Table::num(cached_ms, 4)});
  t.add_row({"uncached (stride-" + std::to_string(kUncachedStride) +
                 " subset, extrapolated)",
             std::to_string(subset.size()) + " -> " + std::to_string(n),
             Table::num(t_uncached_est, 4),
             Table::num(1e3 * t_cold_subset /
                            static_cast<double>(subset.size()),
                        4)});
  t.print(std::cout);

  std::cout << "\nCache: " << cached_reductions << " PRIMA reductions and "
            << thermal_stats.misses << " thermal solves for " << n
            << " scenarios (" << thermal_stats.hits << " thermal hits); "
            << total.hits
            << " total hits / " << total.misses
            << " misses across all stages\n";
  std::cout << "Cached " << Table::num(cached_ms, 4) << " ms/scenario, "
            << Table::num(speedup, 4)
            << "x the uncached path; cached vs uncached results "
            << (identical ? "bit-identical" : "DIVERGED") << "\n";
  bench::check(identical, "cached results differ from uncached");
  bench::check(cached_reductions == n,
               "cnti.rom.reductions != one per scenario (" +
                   std::to_string(cached_reductions) + ")");
  bench::check(thermal_stats.misses == kCorners,
               "thermal stage misses != one per technology corner (" +
                   std::to_string(thermal_stats.misses) + ")");

  bench::json().set("scenarios", static_cast<double>(n));
  bench::json().set("uncached_subset", static_cast<double>(subset.size()));
  bench::json().set("cached_s", t_cached);
  bench::json().set("cached_ms_per_scenario", cached_ms);
  bench::json().set("uncached_subset_s", t_cold_subset);
  bench::json().set("uncached_est_s", t_uncached_est);
  bench::json().set("speedup", speedup);
  bench::json().set("rom_reductions", static_cast<double>(cached_reductions));
  bench::json().set("thermal_solves",
                    static_cast<double>(thermal_stats.misses));
  bench::json().set("cache_hits", static_cast<double>(total.hits));
  bench::json().set("cache_misses", static_cast<double>(total.misses));
  bench::json().set("bit_identical", identical ? 1.0 : 0.0);

  // --- Observability overhead guard: compiled-in spans must stay noise.
  // The per-site cost below is the *disabled* fast path (one relaxed load
  // + branch) unless a trace/timing session is live — run this bench
  // without CNTI_TRACE when reading obs_overhead_pct as the guard.
  constexpr int kProbeIters = 5'000'000;
  const auto tp0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kProbeIters; ++i) {
    obs::ObsSpan span("bench.probe", "engine");
  }
  const double span_ns = 1e9 * seconds_since(tp0) / kProbeIters;

  const obs::Counter probe_counter = obs::counter("cnti.engine.bench_probe");
  const auto tp1 = std::chrono::steady_clock::now();
  for (int i = 0; i < kProbeIters; ++i) probe_counter.add();
  const double counter_ns = 1e9 * seconds_since(tp1) / kProbeIters;

  // Span sites actually crossed by one warm scenario, counted by tracing
  // it (tracing is bit-effect-free, so this cannot perturb the results
  // already collected above).
  std::size_t spans_per_scenario = 0;
  {
    obs::TraceSession probe;
    (void)cached.run(batch[0]);
    spans_per_scenario = probe.stop().size();
  }

  const double scenario_ns = 1e9 * t_cached / static_cast<double>(n);
  const double overhead_pct =
      100.0 * (static_cast<double>(spans_per_scenario) * span_ns) /
      scenario_ns;
  std::cout << "\nObservability disabled-path cost: span "
            << Table::num(span_ns, 3) << " ns, counter add "
            << Table::num(counter_ns, 3) << " ns; " << spans_per_scenario
            << " span sites per warm scenario -> "
            << Table::num(overhead_pct, 4) << "% of scenario time ("
            << (overhead_pct < 2.0 ? "PASS" : "FAIL") << " < 2%)\n";

  bench::json().set("obs_disabled_span_ns", span_ns);
  bench::json().set("obs_counter_add_ns", counter_ns);
  bench::json().set("obs_spans_per_scenario",
                    static_cast<double>(spans_per_scenario));
  bench::json().set("obs_overhead_pct", overhead_pct);
}

void BM_CachedScenario(benchmark::State& state) {
  // Steady-state cost of one scenario when its technology corner is warm.
  const scenario::ScenarioEngine engine;
  auto batch = mixed_batch();
  (void)engine.run(batch[0]);  // warm the corner
  std::size_t drive = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(batch[drive % 36]));
    ++drive;
  }
}
BENCHMARK(BM_CachedScenario)->Unit(benchmark::kMillisecond);

void BM_ColdScenario(benchmark::State& state) {
  // Cold cost: a fresh engine pays the reduction + stages every time.
  auto batch = mixed_batch();
  for (auto _ : state) {
    scenario::EngineOptions opt;
    opt.cache_enabled = false;
    const scenario::ScenarioEngine engine(opt);
    benchmark::DoNotOptimize(engine.run(batch[0]));
  }
}
BENCHMARK(BM_ColdScenario)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

CNTI_BENCH_MAIN(print_reproduction)
