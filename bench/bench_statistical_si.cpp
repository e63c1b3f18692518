// Statistical SI sign-off at scale: a >= 10^5-sample varied-technology
// Monte Carlo over the coupled 16 x 128 CNT paper bus, evaluated at ROM
// cost on one driven corner-anchored parametrized reduction
// (rom/parametrized_rom.hpp) and reduced through the sharded
// deterministic-MC layer (scenario/statistical.hpp). Reports:
//   * the driven ROM's chosen order, its error estimate and build time,
//     and its accuracy vs full sparse MNA at interior technology points
//     (the <= 1% acceptance bound);
//   * study throughput (samples/s) and the merged noise/delay statistics;
//   * shard-count invariance: the same study recomputed as 2 and 8 shard
//     ranges merges to byte-identical reports.
// An estimate above the ROM's 1e-5 bound, a probe above 1% or a shard
// merge that is not byte-identical makes the binary exit non-zero.
#include "bench_common.hpp"

#include <chrono>
#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "numerics/thread_pool.hpp"
#include "obs/obs.hpp"
#include "scenario/engine.hpp"
#include "scenario/statistical.hpp"

namespace {

using namespace cnti;

/// The study scenario: the 16 x 128 paper bus (30 aF/um coupling) with
/// +-15% / +-10% / +-20% uniform spreads on per-unit-length R / C /
/// coupling-C.
scenario::Scenario study_scenario(int samples) {
  scenario::Scenario s;
  s.label = "statistical-si";
  s.workload.bus_lines = 16;
  s.workload.bus_segments = 128;
  s.workload.coupling_cap_af_per_um = 30.0;
  s.analysis.delay = false;
  s.analysis.noise = true;
  s.analysis.noise_model = scenario::NoiseModel::kReducedOrder;
  s.analysis.time_steps = 200;
  s.variability.samples = samples;
  s.variability.resistance_span = 0.15;
  s.variability.capacitance_span = 0.10;
  s.variability.coupling_span = 0.20;
  return s;
}

std::string study_bytes(const scenario::StatisticalStudy& study) {
  std::ostringstream out;
  scenario::write_study_json(out, study);
  return out.str();
}

void print_reproduction() {
  bench::json().set_name("bench_statistical_si");
  bench::print_header(
      "Statistical SI sign-off — parametrized ROM x sharded deterministic MC",
      "10^5 technology draws per study; every sample evaluated on one\n"
      "corner-anchored parametrized reduction; shard decompositions merge\n"
      "to byte-identical statistics.");
  std::cout << "Thread pool: " << numerics::ThreadPool::default_thread_count()
            << " default threads (CNTI_THREADS overrides)\n\n";

  constexpr int kSamples = 100000;
  const scenario::Scenario s = study_scenario(kSamples);
  const scenario::ScenarioEngine engine;

  // --- The driven parametrized ROM the engine caches: its warm-up build
  // (line stage + reduction), then that same reduction vs full sparse MNA
  // at interior points. ---
  {
    const auto t0 = std::chrono::steady_clock::now();
    const auto prom = engine.statistical_rom(s);
    const double build_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double estimate = obs::gauge("cnti.rom.error_estimate").value();
    const circuit::BusDrive drive = scenario::to_bus_drive(s);
    rom::BusScenario rsc;
    rsc.driver_ohm = drive.driver_ohm;
    rsc.receiver_load_f = drive.receiver_load_f;
    rsc.vdd_v = drive.vdd_v;
    rsc.edge_time_s = drive.edge_time_s;
    const rom::ParamRomValidation v =
        prom->validate_against_mna(rsc, 5, s.analysis.time_steps);
    std::cout << "driven parametrized ROM (" << prom->corners()
              << " corner anchors): order " << prom->order()
              << " vs full order " << prom->full_order()
              << ", error estimate " << Table::num(estimate, 3)
              << ", engine warm-up " << Table::num(build_s * 1e3, 4)
              << " ms\n"
              << v.probes << " interior probes vs sparse MNA: max noise err "
              << Table::num(v.max_noise_rel_err * 1e2, 3) << "%, max delay err "
              << Table::num(v.max_delay_rel_err * 1e2, 3) << "%\n\n";
    bench::json().set("prom_build_s", build_s);
    bench::json().set("prom_order", prom->order());
    bench::json().set("prom_full_order", prom->full_order());
    bench::json().set("prom_error_estimate", estimate);
    bench::json().set("prom_max_noise_rel_err", v.max_noise_rel_err);
    bench::json().set("prom_max_delay_rel_err", v.max_delay_rel_err);
    bench::check(estimate <= 1e-5, "ROM error estimate above 1e-5");
    bench::check(v.max_noise_rel_err <= 0.01 && v.max_delay_rel_err <= 0.01,
                 "interior probe error above 1 %");
  }

  // --- The full study, single range. ---
  const auto t0 = std::chrono::steady_clock::now();
  scenario::StatisticalShard full = engine.run_statistical(s);
  const double study_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const scenario::StatisticalStudy study = scenario::reduce_shards({full});
  std::cout << kSamples << " samples in " << Table::num(study_s, 4) << " s ("
            << Table::num(kSamples / study_s, 5) << " samples/s)\n";
  std::cout << "noise  mean " << Table::num(study.noise_v.mean * 1e3, 4)
            << " mV, p95 " << Table::num(study.noise_v.p95 * 1e3, 4)
            << " mV, CV " << Table::num(study.noise_v.cv(), 3) << "\n";
  std::cout << "delay  mean " << Table::num(study.delay_s.mean * 1e12, 4)
            << " ps, p95 " << Table::num(study.delay_s.p95 * 1e12, 4)
            << " ps (" << study.delay_invalid << " invalid)\n";
  bench::json().set("samples", kSamples);
  bench::json().set("study_s", study_s);
  bench::json().set("samples_per_s", kSamples / study_s);
  bench::json().set("noise_mean_v", study.noise_v.mean);
  bench::json().set("noise_p95_v", study.noise_v.p95);
  bench::json().set("noise_cv", study.noise_v.cv());
  bench::json().set("delay_mean_s", study.delay_s.mean);
  bench::json().set("delay_p95_s", study.delay_s.p95);
  bench::json().set("delay_invalid", static_cast<double>(study.delay_invalid));

  // --- Shard-count invariance: recompute as 2 and 8 shard ranges. ---
  const std::string reference = study_bytes(study);
  bool invariant = true;
  for (const std::uint64_t count : {2ULL, 8ULL}) {
    std::vector<scenario::StatisticalShard> shards;
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto [begin, end] = scenario::shard_range(kSamples, i, count);
      shards.push_back(engine.run_statistical(s, begin, end));
    }
    const bool same =
        study_bytes(scenario::reduce_shards(std::move(shards))) == reference;
    std::cout << count << "-shard merge byte-identical to single range: "
              << (same ? "yes" : "NO") << "\n";
    bench::check(same, std::to_string(count) +
                           "-shard merge differs from the single range");
    invariant = invariant && same;
  }
  bench::json().set("shard_invariant", invariant ? 1.0 : 0.0);
}

void BM_StatisticalStudy(benchmark::State& state) {
  const scenario::Scenario s = study_scenario(static_cast<int>(state.range(0)));
  scenario::EngineOptions options;
  options.sweep.threads = static_cast<int>(state.range(1));
  const scenario::ScenarioEngine engine(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_statistical(s));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StatisticalStudy)
    ->Args({1000, 1})
    ->Args({4000, 1})
    ->Args({4000, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ShardMergeReduce(benchmark::State& state) {
  const scenario::Scenario s = study_scenario(4000);
  const scenario::ScenarioEngine engine;
  std::vector<scenario::StatisticalShard> shards;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto [begin, end] = scenario::shard_range(4000, i, 8);
    shards.push_back(engine.run_statistical(s, begin, end));
  }
  for (auto _ : state) {
    auto copy = shards;
    benchmark::DoNotOptimize(scenario::reduce_shards(std::move(copy)));
  }
}
BENCHMARK(BM_ShardMergeReduce)->Unit(benchmark::kMillisecond);

}  // namespace

CNTI_BENCH_MAIN(print_reproduction)
