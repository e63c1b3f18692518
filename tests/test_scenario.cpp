// Scenario engine suite: content-key identity, memo-cache contracts
// (hit/miss accounting, once-per-key compute, type safety), cached ==
// uncached differentials against the refactored direct APIs
// (run_multiscale_flow, analyze_bus_crosstalk, evaluate_bus_drive),
// thread-count invariance of batch execution, MultiscaleHooks-fallback
// parity, report emission and the relocated JSON metric sink.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "circuit/crosstalk.hpp"
#include "common/json_sink.hpp"
#include "common/units.hpp"
#include "core/multiscale.hpp"
#include "obs/obs.hpp"
#include "rom/interconnect_rom.hpp"
#include "scenario/content_key.hpp"
#include "scenario/engine.hpp"
#include "scenario/memo_cache.hpp"
#include "scenario/report.hpp"
#include "scenario/spec.hpp"
#include "scenario/stages.hpp"
#include "scenario/statistical.hpp"

namespace sc = cnti::scenario;
namespace cc = cnti::core;
namespace cir = cnti::circuit;
using cnti::units::from_um;

namespace {

/// Small, fast scenario: 4 x 8 coupled bus, short transients.
sc::Scenario small_scenario() {
  sc::Scenario s;
  s.label = "small";
  s.tech.outer_diameter_nm = 10.0;
  s.tech.dopant_concentration = 1.0;
  s.tech.contact_resistance_kohm = 20.0;
  s.workload.length_um = 25.0;
  s.workload.driver_resistance_kohm = 5.0;
  s.workload.load_capacitance_ff = 0.2;
  s.workload.bus_lines = 4;
  s.workload.bus_segments = 8;
  s.analysis.time_steps = 200;
  return s;
}

// ---------------------------------------------------------------------------
// Content keys.

TEST(ContentKey, EqualSpecsHashEqual) {
  const sc::Scenario a = small_scenario();
  const sc::Scenario b = small_scenario();
  EXPECT_EQ(sc::content_key(a), sc::content_key(b));
  EXPECT_EQ(sc::content_key(a.tech), sc::content_key(b.tech));
  EXPECT_EQ(sc::content_key(a.workload), sc::content_key(b.workload));
  EXPECT_EQ(sc::content_key(a.analysis), sc::content_key(b.analysis));
}

TEST(ContentKey, EveryFieldChangesTheKey) {
  const sc::Scenario base = small_scenario();
  const auto k0 = sc::content_key(base);

  sc::Scenario s = base;
  s.tech.outer_diameter_nm += 1.0;
  EXPECT_NE(sc::content_key(s), k0);

  s = base;
  s.tech.dopant = cnti::atomistic::DopantSpecies::kPtCl4External;
  EXPECT_NE(sc::content_key(s), k0);

  s = base;
  s.tech.capacitance_model = sc::CapacitanceModel::kTcad;
  EXPECT_NE(sc::content_key(s), k0);

  s = base;
  s.workload.driver_resistance_kohm *= 2.0;
  EXPECT_NE(sc::content_key(s), k0);

  s = base;
  s.workload.bus_segments += 1;
  EXPECT_NE(sc::content_key(s), k0);

  s = base;
  s.analysis.noise = !s.analysis.noise;
  EXPECT_NE(sc::content_key(s), k0);

  s = base;
  s.analysis.time_steps += 1;
  EXPECT_NE(sc::content_key(s), k0);
}

TEST(ContentKey, LabelIsReportingMetadataOnly) {
  sc::Scenario a = small_scenario();
  sc::Scenario b = small_scenario();
  b.label = "a completely different label";
  EXPECT_EQ(sc::content_key(a), sc::content_key(b));
}

TEST(ContentKey, SignedZeroNormalizedNanRejected) {
  const auto plus = sc::KeyHasher("t").add(0.0).key();
  const auto minus = sc::KeyHasher("t").add(-0.0).key();
  EXPECT_EQ(plus, minus);
  EXPECT_THROW(sc::KeyHasher("t").add(std::nan("")),
               cnti::PreconditionError);
}

TEST(ContentKey, StringBoundariesAreUnambiguous) {
  const auto ab_c = sc::KeyHasher("t").add("ab").add("c").key();
  const auto a_bc = sc::KeyHasher("t").add("a").add("bc").key();
  EXPECT_NE(ab_c, a_bc);
}

TEST(ContentKey, TypeDomainsNeverAlias) {
  // Regression: add(bool) used to feed the same word stream as add(int64)
  // of 0/1, so two specs whose adjacent fields were (bool, x) vs (int, x)
  // could hash equal. Each overload now prefixes a type-domain tag.
  EXPECT_NE(sc::KeyHasher("t").add(true).key(),
            sc::KeyHasher("t").add(std::int64_t{1}).key());
  EXPECT_NE(sc::KeyHasher("t").add(false).key(),
            sc::KeyHasher("t").add(std::int64_t{0}).key());
  // The adjacent-field form of the same collision.
  EXPECT_NE(sc::KeyHasher("t").add(true).add(2.0).key(),
            sc::KeyHasher("t").add(1).add(2.0).key());
  // A double whose bit pattern equals a small integer is still a double.
  const double tricky = std::bit_cast<double>(std::uint64_t{42});
  EXPECT_NE(sc::KeyHasher("t").add(tricky).key(),
            sc::KeyHasher("t").add(std::int64_t{42}).key());
  // Enums and ints of equal value live in different domains too.
  EXPECT_NE(sc::KeyHasher("t").add(sc::CapacitanceModel::kTcad).key(),
            sc::KeyHasher("t").add(std::int64_t{1}).key());
  // And a bool is not a denormal double of the same bit pattern.
  EXPECT_NE(sc::KeyHasher("t").add(true).key(),
            sc::KeyHasher("t").add(std::bit_cast<double>(std::uint64_t{1}))
                .key());
}

// ---------------------------------------------------------------------------
// Memo cache.

TEST(MemoCache, HitReturnsTheSameObjectAndCountsDeterministically) {
  sc::MemoCache cache;
  const auto key = sc::KeyHasher("k").add(1).key();
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return 42.0;
  };
  const auto a = cache.get_or_compute<double>("stage", key, compute);
  const auto b = cache.get_or_compute<double>("stage", key, compute);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(a.get(), b.get());  // the identical shared object
  EXPECT_EQ(*a, 42.0);
  EXPECT_EQ(cache.stats("stage").misses, 1u);
  EXPECT_EQ(cache.stats("stage").hits, 1u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(MemoCache, DistinctStagesAndKeysDoNotCollide) {
  sc::MemoCache cache;
  const auto key = sc::KeyHasher("k").add(1).key();
  const auto a = cache.get_or_compute<double>("stage-a", key,
                                              [] { return 1.0; });
  const auto b = cache.get_or_compute<double>("stage-b", key,
                                              [] { return 2.0; });
  EXPECT_EQ(*a, 1.0);
  EXPECT_EQ(*b, 2.0);
  EXPECT_EQ(cache.entry_count(), 2u);
}

TEST(MemoCache, DisabledCacheRecomputesEveryRequest) {
  sc::MemoCache cache(/*enabled=*/false);
  const auto key = sc::KeyHasher("k").add(1).key();
  int computes = 0;
  for (int i = 0; i < 3; ++i) {
    (void)cache.get_or_compute<int>("stage", key, [&] {
      ++computes;
      return 7;
    });
  }
  EXPECT_EQ(computes, 3);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.stats("stage").misses, 3u);
}

TEST(MemoCache, ThrowingComputeLeavesKeyRetryable) {
  sc::MemoCache cache;
  const auto key = sc::KeyHasher("k").add(1).key();
  EXPECT_THROW(cache.get_or_compute<int>(
                   "stage", key,
                   []() -> int { throw std::runtime_error("boom"); }),
               std::runtime_error);
  const auto ok = cache.get_or_compute<int>("stage", key, [] { return 3; });
  EXPECT_EQ(*ok, 3);
}

TEST(MemoCache, TypeMismatchOnHitThrows) {
  sc::MemoCache cache;
  const auto key = sc::KeyHasher("k").add(1).key();
  (void)cache.get_or_compute<double>("stage", key, [] { return 1.0; });
  EXPECT_THROW((void)cache.get_or_compute<int>("stage", key,
                                               [] { return 1; }),
               cnti::PreconditionError);
}

TEST(MemoCache, ConcurrentRequestsComputeOnce) {
  sc::MemoCache cache;
  const auto key = sc::KeyHasher("k").add(1).key();
  std::atomic<int> computes{0};
  std::vector<std::thread> threads;
  std::vector<double> values(8, 0.0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      values[static_cast<std::size_t>(t)] =
          *cache.get_or_compute<double>("stage", key, [&] {
            ++computes;
            return 5.0;
          });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(computes.load(), 1);
  for (const double v : values) EXPECT_EQ(v, 5.0);
  const auto s = cache.stats("stage");
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 7u);
}

// ---------------------------------------------------------------------------
// Engine vs the direct APIs (bitwise differentials).

void expect_same_line_report(const cc::MultiscaleReport& a,
                             const cc::MultiscaleReport& b,
                             bool compare_method = true) {
  EXPECT_EQ(a.fermi_shift_ev, b.fermi_shift_ev);
  EXPECT_EQ(a.channels_per_shell, b.channels_per_shell);
  EXPECT_EQ(a.mfp_um, b.mfp_um);
  EXPECT_EQ(a.shells, b.shells);
  EXPECT_EQ(a.resistance_kohm, b.resistance_kohm);
  EXPECT_EQ(a.capacitance_ff, b.capacitance_ff);
  EXPECT_EQ(a.electrostatic_cap_af_per_um, b.electrostatic_cap_af_per_um);
  EXPECT_EQ(a.delay_ps, b.delay_ps);
  if (compare_method) {
    EXPECT_EQ(a.delay_method, b.delay_method);
  }
}

TEST(ScenarioEngine, ElmoreAnalyticPathMatchesMultiscaleFlowBitwise) {
  const sc::Scenario s = small_scenario();
  const sc::ScenarioEngine engine;
  const sc::ScenarioResult r = engine.run(s);
  const cc::MultiscaleReport direct =
      cc::run_multiscale_flow(sc::to_multiscale_input(s));
  expect_same_line_report(r.line, direct);
  EXPECT_FALSE(r.noise.has_value());
  EXPECT_FALSE(r.thermal.has_value());
}

TEST(ScenarioEngine, TcadStageMatchesMultiscaleHookBitwise) {
  sc::Scenario s = small_scenario();
  s.tech.capacitance_model = sc::CapacitanceModel::kTcad;
  s.tech.tcad_cells_per_side = 2;  // the validated integration resolution
  const sc::ScenarioEngine engine;
  const sc::ScenarioResult r = engine.run(s);

  // The engine's TCAD stage is exactly what a MultiscaleHooks user would
  // plug in — same function, same content, same bits.
  cc::MultiscaleHooks hooks;
  hooks.extract_capacitance = [](const cc::WireEnvironment& env) {
    return sc::tcad_environment_capacitance(env, 2);
  };
  const cc::MultiscaleReport direct =
      cc::run_multiscale_flow(sc::to_multiscale_input(s), hooks);
  expect_same_line_report(r.line, direct);
  // And the TCAD extraction must land in the analytic model's ballpark.
  const double analytic = cc::environment_capacitance(s.tech.environment);
  const double tcad = cnti::units::from_aF_per_um(
      r.line.electrostatic_cap_af_per_um);
  EXPECT_GT(tcad, 0.3 * analytic);
  EXPECT_LT(tcad, 3.0 * analytic);
}

TEST(ScenarioEngine, MnaDelayStageMatchesMultiscaleHookBitwise) {
  sc::Scenario s = small_scenario();
  s.analysis.delay_model = sc::DelayModel::kMnaTransient;
  s.analysis.time_steps = 300;
  const sc::ScenarioEngine engine;
  const sc::ScenarioResult r = engine.run(s);
  EXPECT_EQ(r.line.delay_method, "mna-transient");

  cc::MultiscaleHooks hooks;
  hooks.simulate_delay = [&s](const cc::DriverLineLoad& cfg) {
    return sc::mna_line_delay_s(
        cfg, s.workload.vdd_v,
        cnti::units::from_ps(s.workload.edge_time_ps),
        s.analysis.delay_segments, s.analysis.time_steps);
  };
  const cc::MultiscaleReport direct =
      cc::run_multiscale_flow(sc::to_multiscale_input(s), hooks);
  expect_same_line_report(r.line, direct, /*compare_method=*/false);
  // MNA and Elmore must agree on the physics scale.
  const cc::MultiscaleReport elmore =
      cc::run_multiscale_flow(sc::to_multiscale_input(s));
  EXPECT_GT(r.line.delay_ps, 0.2 * elmore.delay_ps);
  EXPECT_LT(r.line.delay_ps, 5.0 * elmore.delay_ps);
}

TEST(ScenarioEngine, RomNoiseMatchesDirectBusRomBitwise) {
  sc::Scenario s = small_scenario();
  s.analysis.noise = true;
  const sc::ScenarioEngine engine;
  const sc::ScenarioResult r = engine.run(s);
  ASSERT_TRUE(r.noise.has_value());

  // Direct API: the same bare system, reduced for the same drive.
  const cc::MultiscaleInput in = sc::to_multiscale_input(s);
  const cc::ChannelStage channels =
      cc::doping_channel_stage(s.tech.dopant, s.tech.dopant_concentration);
  const cc::MwcntLine line(cc::multiscale_line_spec(
      in, channels, cc::environment_capacitance(s.tech.environment)));
  const cir::BusCrosstalkResult direct = cnti::rom::evaluate_bus_drive(
      cnti::rom::stamp_bus(sc::to_bus_topology(s, line)),
      sc::to_bus_drive(s), s.analysis.time_steps);
  EXPECT_EQ(direct.unknowns, cnti::rom::kDrivenBusOrder);

  EXPECT_EQ(r.noise->peak_noise_v, direct.peak_noise_v);
  EXPECT_EQ(r.noise->peak_time_s, direct.peak_time_s);
  EXPECT_EQ(r.noise->worst_victim, direct.worst_victim);
  EXPECT_EQ(r.noise->aggressor_delay_s, direct.aggressor_delay_s);
  EXPECT_EQ(r.noise->unknowns, direct.unknowns);
}

TEST(ScenarioEngine, RomNoiseWithoutReceiverLoadRuns) {
  // A zero load stamps nothing into the terminated bus; the per-drive
  // reduction still evaluates and tracks the full-MNA transient.
  sc::Scenario s = small_scenario();
  s.analysis.noise = true;
  s.workload.load_capacitance_ff = 0.0;
  const sc::ScenarioEngine engine;
  const sc::ScenarioResult r = engine.run(s);
  ASSERT_TRUE(r.noise.has_value());
  s.analysis.noise_model = sc::NoiseModel::kFullMna;
  const sc::ScenarioResult full = engine.run(s);
  EXPECT_EQ(r.noise->worst_victim, full.noise->worst_victim);
  EXPECT_NEAR(r.noise->peak_noise_v, full.noise->peak_noise_v,
              1e-4 * std::abs(full.noise->peak_noise_v));
  EXPECT_NEAR(r.noise->aggressor_delay_s, full.noise->aggressor_delay_s,
              1e-4 * full.noise->aggressor_delay_s);
}

TEST(ScenarioEngine, FullMnaNoiseMatchesAnalyzeBusCrosstalkBitwise) {
  sc::Scenario s = small_scenario();
  s.analysis.noise = true;
  s.analysis.noise_model = sc::NoiseModel::kFullMna;
  const sc::ScenarioEngine engine;
  const sc::ScenarioResult r = engine.run(s);
  ASSERT_TRUE(r.noise.has_value());

  const cc::MultiscaleInput in = sc::to_multiscale_input(s);
  const cc::ChannelStage channels =
      cc::doping_channel_stage(s.tech.dopant, s.tech.dopant_concentration);
  const cc::MwcntLine line(cc::multiscale_line_spec(
      in, channels, cc::environment_capacitance(s.tech.environment)));
  const cir::BusTopology topology = sc::to_bus_topology(s, line);
  const cir::BusCrosstalkResult direct = cir::analyze_bus_crosstalk(
      cir::build_bus_netlist(topology), topology, sc::to_bus_drive(s),
      s.analysis.time_steps);

  EXPECT_EQ(r.noise->peak_noise_v, direct.peak_noise_v);
  EXPECT_EQ(r.noise->peak_time_s, direct.peak_time_s);
  EXPECT_EQ(r.noise->worst_victim, direct.worst_victim);
  EXPECT_EQ(r.noise->aggressor_delay_s, direct.aggressor_delay_s);
  EXPECT_EQ(r.noise->unknowns, direct.unknowns);
}

TEST(ScenarioEngine, PrebuiltNetlistOverloadMatchesSingleShot) {
  const sc::Scenario s = small_scenario();
  const cc::MultiscaleInput in = sc::to_multiscale_input(s);
  const cc::ChannelStage channels =
      cc::doping_channel_stage(s.tech.dopant, s.tech.dopant_concentration);
  const cc::MwcntLine line(cc::multiscale_line_spec(
      in, channels, cc::environment_capacitance(s.tech.environment)));
  const cir::BusTopology topology = sc::to_bus_topology(s, line);
  const cir::BusDrive drive = sc::to_bus_drive(s);

  const cir::BusNetlist bare = cir::build_bus_netlist(topology);
  const auto via_bare = cir::analyze_bus_crosstalk(bare, topology, drive, 150);
  const auto single = cir::analyze_bus_crosstalk(
      cir::build_bus_netlist(topology), topology, drive, 150);
  EXPECT_EQ(via_bare.peak_noise_v, single.peak_noise_v);
  EXPECT_EQ(via_bare.aggressor_delay_s, single.aggressor_delay_s);
  EXPECT_EQ(via_bare.unknowns, single.unknowns);

  // Reuse of the same bare netlist for a second drive stays bit-identical.
  cir::BusDrive strong = drive;
  strong.driver_ohm /= 2.0;
  const auto reused = cir::analyze_bus_crosstalk(bare, topology, strong, 150);
  const auto fresh = cir::analyze_bus_crosstalk(
      cir::build_bus_netlist(topology), topology, strong, 150);
  EXPECT_EQ(reused.peak_noise_v, fresh.peak_noise_v);
  EXPECT_EQ(reused.aggressor_delay_s, fresh.aggressor_delay_s);

  // Pairing a cached netlist with a different topology (even one of the
  // same line count) must be rejected, not silently mis-simulated.
  cir::BusTopology other = topology;
  other.length_m *= 2.0;
  EXPECT_THROW(
      (void)cir::analyze_bus_crosstalk(bare, other, drive, 150),
      cnti::PreconditionError);
}

TEST(ScenarioEngine, ThermalStageReportsSelfHeatingAmpacityAndEm) {
  sc::Scenario s = small_scenario();
  s.analysis.thermal = true;
  s.workload.operating_current_ua = 20.0;
  const sc::ScenarioEngine engine;
  const sc::ScenarioResult r = engine.run(s);
  ASSERT_TRUE(r.thermal.has_value());
  EXPECT_GT(r.thermal->peak_rise_k, 0.0);
  EXPECT_GT(r.thermal->ampacity_ua, 0.0);
  EXPECT_GT(r.thermal->current_density_a_cm2, 0.0);
  EXPECT_FALSE(r.thermal->thermal_runaway);
  // 20 uA through a 10 nm disc is ~2.5e7 A/cm^2 — far below the CNT
  // breakdown density, lethal for Cu.
  EXPECT_TRUE(r.thermal->cnt_em_immune);
  EXPECT_GT(r.thermal->cu_reference_mttf_s, 0.0);
}

// ---------------------------------------------------------------------------
// Batch semantics: cache contracts, cached == uncached, thread invariance.

std::vector<sc::Scenario> mixed_batch() {
  sc::Scenario base = small_scenario();
  base.label = "batch";
  base.analysis.noise = true;
  base.analysis.thermal = true;
  const cnti::core::SweepGrid grid(
      {{"doping", {0.0, 1.0}},
       {"driver_kohm", {2.0, 5.0, 10.0}},
       {"load_ff", {0.1, 0.5}}});
  return sc::expand_grid(base, grid,
                         [](sc::Scenario& s, const cnti::core::SweepPoint& p) {
                           s.tech.dopant_concentration = p.at("doping");
                           s.workload.driver_resistance_kohm =
                               p.at("driver_kohm");
                           s.workload.load_capacitance_ff = p.at("load_ff");
                         });
}

void expect_same_results(const std::vector<sc::ScenarioResult>& a,
                         const std::vector<sc::ScenarioResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].label);
    expect_same_line_report(a[i].line, b[i].line);
    ASSERT_EQ(a[i].noise.has_value(), b[i].noise.has_value());
    if (a[i].noise) {
      EXPECT_EQ(a[i].noise->peak_noise_v, b[i].noise->peak_noise_v);
      EXPECT_EQ(a[i].noise->peak_time_s, b[i].noise->peak_time_s);
      EXPECT_EQ(a[i].noise->worst_victim, b[i].noise->worst_victim);
      EXPECT_EQ(a[i].noise->aggressor_delay_s, b[i].noise->aggressor_delay_s);
    }
    ASSERT_EQ(a[i].thermal.has_value(), b[i].thermal.has_value());
    if (a[i].thermal) {
      EXPECT_EQ(a[i].thermal->peak_rise_k, b[i].thermal->peak_rise_k);
      EXPECT_EQ(a[i].thermal->ampacity_ua, b[i].thermal->ampacity_ua);
      EXPECT_EQ(a[i].thermal->cu_reference_mttf_s,
                b[i].thermal->cu_reference_mttf_s);
    }
  }
}

TEST(ScenarioEngine, BatchSharesTopologyArtifactsAcrossScenarios) {
  const auto batch = mixed_batch();  // 2 dopings x 3 drivers x 2 loads = 12
  const sc::ScenarioEngine engine;
  const cnti::obs::Counter reductions =
      cnti::obs::counter("cnti.rom.reductions");
  const std::uint64_t reductions_before = reductions.value();
  const auto results = engine.run_batch(batch);
  ASSERT_EQ(results.size(), batch.size());

  // Two dopings -> two line models -> two topologies; every scenario is a
  // distinct (topology, drive), so each one evaluates and reduces its own
  // terminated bus.
  const auto eval = engine.cache().stats(sc::stage::kBusRomEval);
  EXPECT_EQ(eval.misses, 12u);
  EXPECT_EQ(eval.hits, 0u);
  EXPECT_EQ(reductions.value() - reductions_before, 12u);
  const auto atom = engine.cache().stats(sc::stage::kAtomistic);
  EXPECT_EQ(atom.misses, 2u);
  EXPECT_EQ(atom.hits, 10u);
  // One shared environment -> a single capacitance extraction.
  const auto cap = engine.cache().stats(sc::stage::kCapacitance);
  EXPECT_EQ(cap.misses, 1u);
  EXPECT_EQ(cap.hits, 11u);
  // Thermal KPIs depend on doping and length only -> 2 distinct solves.
  const auto th = engine.cache().stats(sc::stage::kThermal);
  EXPECT_EQ(th.misses, 2u);
  EXPECT_EQ(th.hits, 10u);
}

TEST(ScenarioEngine, CachedBatchEqualsUncachedBatchBitwise) {
  const auto batch = mixed_batch();
  const sc::ScenarioEngine cached;
  sc::EngineOptions uncached_opt;
  uncached_opt.cache_enabled = false;
  const sc::ScenarioEngine uncached(uncached_opt);
  expect_same_results(cached.run_batch(batch), uncached.run_batch(batch));
}

TEST(ScenarioEngine, BatchIsThreadCountInvariant) {
  const auto batch = mixed_batch();
  sc::EngineOptions opt1;
  opt1.sweep.threads = 1;
  const sc::ScenarioEngine serial(opt1);
  const auto reference = serial.run_batch(batch);
  for (const int threads : {2, 5}) {
    sc::EngineOptions opt;
    opt.sweep.threads = threads;
    const sc::ScenarioEngine engine(opt);
    SCOPED_TRACE(threads);
    expect_same_results(reference, engine.run_batch(batch));
  }
}

TEST(ScenarioEngine, RunBatchMatchesIndividualRuns) {
  const auto batch = mixed_batch();
  const sc::ScenarioEngine engine;
  const auto results = engine.run_batch(batch);
  const sc::ScenarioEngine fresh;
  std::vector<sc::ScenarioResult> individual;
  individual.reserve(batch.size());
  for (const auto& s : batch) individual.push_back(fresh.run(s));
  expect_same_results(results, individual);
}

TEST(ScenarioEngine, InvalidScenarioThrows) {
  sc::Scenario s = small_scenario();
  s.tech.outer_diameter_nm = 0.5;
  const sc::ScenarioEngine engine;
  EXPECT_THROW((void)engine.run(s), cnti::PreconditionError);
  s = small_scenario();
  s.workload.length_um = -1.0;
  EXPECT_THROW((void)engine.run(s), cnti::PreconditionError);
}

// ---------------------------------------------------------------------------
// Scenario expansion + reports.

TEST(ScenarioSpec, ExpandGridEnumeratesInFlatOrderWithLabels) {
  sc::Scenario base = small_scenario();
  base.label = "study";
  const cnti::core::SweepGrid grid(
      {{"len", {10.0, 20.0}}, {"drv", {1.0, 2.0, 3.0}}});
  const auto batch = sc::expand_grid(
      base, grid, [](sc::Scenario& s, const cnti::core::SweepPoint& p) {
        s.workload.length_um = p.at("len");
        s.workload.driver_resistance_kohm = p.at("drv");
      });
  ASSERT_EQ(batch.size(), 6u);
  EXPECT_EQ(batch[0].label, "study/len=10/drv=1");
  EXPECT_EQ(batch[5].label, "study/len=20/drv=3");
  EXPECT_EQ(batch[4].workload.length_um, 20.0);
  EXPECT_EQ(batch[4].workload.driver_resistance_kohm, 2.0);
}

TEST(ScenarioReport, CsvHasHeaderOneRowPerScenarioAndQuotedLabels) {
  sc::ScenarioResult r;
  r.label = "with,comma \"quoted\"";
  r.line.resistance_kohm = 12.5;
  sc::ScenarioResult plain;
  plain.label = "plain";
  plain.noise.emplace();
  plain.noise->peak_noise_v = 0.001;
  std::ostringstream os;
  sc::write_report_csv(os, {r, plain});
  const std::string text = os.str();
  EXPECT_NE(text.find("label,fermi_shift_ev"), std::string::npos);
  EXPECT_NE(text.find("\"with,comma \"\"quoted\"\"\""), std::string::npos);
  int lines = 0;
  for (const char c : text) lines += c == '\n';
  EXPECT_EQ(lines, 3);  // header + 2 rows
}

TEST(ScenarioReport, JsonEscapesLabelsAndEmitsCacheStats) {
  const sc::Scenario s = small_scenario();
  const sc::ScenarioEngine engine;
  auto result = engine.run(s);
  result.label = "quote\" and\nnewline";
  std::ostringstream os;
  sc::write_report_json(os, {result}, &engine.cache());
  const std::string text = os.str();
  EXPECT_NE(text.find("quote\\\" and\\u000anewline"), std::string::npos);
  EXPECT_NE(text.find("\"cache\""), std::string::npos);
  EXPECT_NE(text.find("\"atomistic\""), std::string::npos);
  EXPECT_NE(text.find("\"misses\": 1"), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Relocated JSON metric sink (the benches' CNTI_BENCH_JSON writer).

TEST(JsonMetricSink, RejectsDuplicateAndReservedMetricNames) {
  cnti::JsonMetricSink sink;
  sink.set("speedup", 10.0);
  EXPECT_THROW(sink.set("speedup", 11.0), cnti::PreconditionError);
  EXPECT_THROW(sink.set("speedup", std::string("fast")),
               cnti::PreconditionError);
  sink.set("mode", std::string("cached"));
  EXPECT_THROW(sink.set("mode", 1.0), cnti::PreconditionError);
  EXPECT_THROW(sink.set("bench", 1.0), cnti::PreconditionError);
}

TEST(JsonMetricSink, EscapesMetricNamesAndValues) {
  cnti::JsonMetricSink sink;
  sink.set_name("weird\"name");
  sink.set("metric\"with\\quote", 1.5);
  sink.set("note", std::string("line\nbreak"));
  std::ostringstream os;
  sink.write_to(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"bench\": \"weird\\\"name\""), std::string::npos);
  EXPECT_NE(text.find("\"metric\\\"with\\\\quote\": 1.5"),
            std::string::npos);
  EXPECT_NE(text.find("line\\u000abreak"), std::string::npos);
}

TEST(JsonMetricSink, NonFiniteValuesBecomeNull) {
  cnti::JsonMetricSink sink;
  sink.set_name("degenerate");
  sink.set("bad", std::numeric_limits<double>::infinity());
  std::ostringstream os;
  sink.write_to(os);
  EXPECT_NE(os.str().find("\"bad\": null"), std::string::npos);
}

TEST(JsonMetricSink, ConcurrentRecordingIsSerializedAndLossless) {
  // Regression: set()/write_to() had no synchronization, so pool threads
  // recording metrics raced the map inserts. Every recorded metric must
  // survive and the emitted JSON must stay well-formed.
  cnti::JsonMetricSink sink;
  sink.set_name("concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, t] {
      for (int i = 0; i < kPerThread; ++i) {
        sink.set("m" + std::to_string(t) + "_" + std::to_string(i),
                 t + i * 0.5);
        std::ostringstream scratch;
        sink.write_to(scratch);  // concurrent reads must not tear
      }
    });
  }
  for (auto& t : threads) t.join();
  std::ostringstream os;
  sink.write_to(os);
  const std::string text = os.str();
  int recorded = 0;
  for (std::size_t at = text.find("\"m"); at != std::string::npos;
       at = text.find("\"m", at + 1)) {
    ++recorded;
  }
  EXPECT_EQ(recorded, kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// CSV report precision.

TEST(ScenarioReport, CsvRoundTripsDoublesBitFaithfully) {
  // Regression: the CSV writer used precision(12), silently dropping the
  // last ~5 bits of every double — so "bit-identical" studies diffed as
  // unequal CSVs. Fields are now max_digits10 and must round-trip.
  sc::ScenarioResult r;
  r.label = "bits";
  r.line.fermi_shift_ev = -0.123456789012345678;
  r.line.resistance_kohm = 1.0 / 3.0;
  r.line.capacitance_ff = 2.0 / 7.0;
  r.line.delay_ps = 1e-3 + 1e-19;
  r.noise.emplace();
  r.noise->peak_noise_v = 0.0123456789012345678;
  std::ostringstream os;
  sc::write_report_csv(os, {r});
  const std::string text = os.str();
  const std::size_t row_at = text.find("bits,");
  ASSERT_NE(row_at, std::string::npos);
  std::vector<std::string> fields;
  std::istringstream row(text.substr(row_at));
  for (std::string field; std::getline(row, field, ',');) {
    fields.push_back(field);
  }
  ASSERT_GE(fields.size(), 11u);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto parsed = [&](int i) {
    return std::strtod(fields[static_cast<std::size_t>(i)].c_str(), nullptr);
  };
  EXPECT_EQ(bits(parsed(1)), bits(r.line.fermi_shift_ev));
  EXPECT_EQ(bits(parsed(5)), bits(r.line.resistance_kohm));
  EXPECT_EQ(bits(parsed(6)), bits(r.line.capacitance_ff));
  EXPECT_EQ(bits(parsed(8)), bits(r.line.delay_ps));
  // Scaled columns must round-trip the emitted (scaled) value exactly.
  EXPECT_EQ(bits(parsed(10)), bits(r.noise->peak_noise_v * 1e3));
}

// ---------------------------------------------------------------------------
// Memo cache failure/retry under concurrency.

TEST(MemoCache, ConcurrentThrowThenRetryConvergesToOneValue) {
  // A compute that fails a few times must leave the key retryable even
  // while other threads are racing the same key; once one compute
  // succeeds, everyone converges on that single published value.
  sc::MemoCache cache;
  const auto key = sc::KeyHasher("retry").add(1).key();
  std::atomic<int> attempts{0};
  constexpr int kFailures = 3;
  constexpr int kThreads = 8;
  std::vector<int> got(kThreads, -1);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (true) {
        try {
          const auto v = cache.get_or_compute<int>("stage", key, [&] {
            const int n = attempts.fetch_add(1) + 1;
            if (n <= kFailures) {
              throw cnti::NumericalError("transient failure");
            }
            return n;
          });
          got[static_cast<std::size_t>(t)] = *v;
          return;
        } catch (const cnti::NumericalError&) {
          std::this_thread::yield();  // retry until a compute succeeds
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const int v : got) EXPECT_EQ(v, got[0]);
  EXPECT_GT(got[0], kFailures);
  // Exactly one compute succeeded; the cache holds exactly that entry.
  EXPECT_EQ(cache.entry_count(), 1u);
}

// ---------------------------------------------------------------------------
// Statistical studies: variability keys, deterministic sampling, shards.

/// small_scenario with a variability axis: fast deterministic MC fixture.
sc::Scenario statistical_scenario(int samples) {
  sc::Scenario s = small_scenario();
  s.analysis.delay = false;
  s.analysis.noise = true;
  s.variability.samples = samples;
  s.variability.resistance_span = 0.15;
  s.variability.capacitance_span = 0.10;
  s.variability.coupling_span = 0.20;
  return s;
}

std::string study_bytes(const sc::StatisticalStudy& study) {
  std::ostringstream out;
  sc::write_study_json(out, study);
  return out.str();
}

TEST(ContentKey, EveryVariabilityFieldChangesTheKey) {
  const sc::VariabilitySpec base;
  const auto k0 = sc::content_key(base);
  EXPECT_EQ(sc::content_key(base).hi, k0.hi);

  sc::VariabilitySpec v = base;
  v.seed ^= 1;
  EXPECT_NE(sc::content_key(v).hi, k0.hi);
  v = base;
  v.samples += 1;
  EXPECT_NE(sc::content_key(v).hi, k0.hi);
  v = base;
  v.resistance_span = 0.1;
  EXPECT_NE(sc::content_key(v).hi, k0.hi);
  v = base;
  v.capacitance_span = 0.1;
  EXPECT_NE(sc::content_key(v).hi, k0.hi);
  v = base;
  v.coupling_span = 0.1;
  EXPECT_NE(sc::content_key(v).hi, k0.hi);

  // The variability axis is folded into the scenario key (schema v3).
  sc::Scenario s = small_scenario();
  const auto sk = sc::content_key(s);
  s.variability.samples = 7;
  EXPECT_NE(sc::content_key(s).lo, sk.lo);
}

TEST(Statistical, SampleTechPointIsAPureFunctionOfSeedAndId) {
  sc::VariabilitySpec spec;
  spec.samples = 10;
  spec.resistance_span = 0.2;
  spec.capacitance_span = 0.1;
  spec.coupling_span = 0.3;
  const auto a = sc::sample_tech_point(spec, 12345);
  const auto b = sc::sample_tech_point(spec, 12345);
  EXPECT_EQ(a.resistance_scale, b.resistance_scale);
  EXPECT_EQ(a.capacitance_scale, b.capacitance_scale);
  EXPECT_EQ(a.coupling_scale, b.coupling_scale);

  // Every draw lands inside the spec's box.
  const auto box = sc::tech_box(spec);
  for (std::uint64_t id = 0; id < 200; ++id) {
    const auto p = sc::sample_tech_point(spec, id);
    EXPECT_GE(p.resistance_scale, box.lo.resistance_scale);
    EXPECT_LT(p.resistance_scale, box.hi.resistance_scale);
    EXPECT_GE(p.capacitance_scale, box.lo.capacitance_scale);
    EXPECT_LT(p.capacitance_scale, box.hi.capacitance_scale);
  }

  // A pinned axis (span 0) is exactly 1 and consumes no stream: the other
  // axes' draws must not shift when one span collapses.
  sc::VariabilitySpec pinned = spec;
  pinned.capacitance_span = 0.0;
  const auto q = sc::sample_tech_point(pinned, 12345);
  EXPECT_EQ(q.capacitance_scale, 1.0);
  EXPECT_EQ(q.resistance_scale, a.resistance_scale);
  EXPECT_EQ(q.coupling_scale, a.coupling_scale);
}

TEST(Statistical, ShardRangePartitionsEveryTotalExactly) {
  for (const std::uint64_t total : {0ULL, 1ULL, 7ULL, 100ULL, 1000003ULL}) {
    for (const std::uint64_t count : {1ULL, 2ULL, 3ULL, 8ULL, 13ULL}) {
      std::uint64_t next = 0;
      for (std::uint64_t i = 0; i < count; ++i) {
        const auto [begin, end] = sc::shard_range(total, i, count);
        EXPECT_EQ(begin, next);
        EXPECT_LE(begin, end);
        next = end;
      }
      EXPECT_EQ(next, total);
    }
  }
  EXPECT_THROW(sc::shard_range(10, 3, 3), cnti::PreconditionError);
  EXPECT_THROW(sc::shard_range(10, 0, 0), cnti::PreconditionError);
}

TEST(Statistical, RunIsThreadAndGrainInvariant) {
  const sc::Scenario s = statistical_scenario(48);
  sc::EngineOptions serial;
  serial.sweep.threads = 1;
  sc::EngineOptions wide;
  wide.sweep.threads = 4;
  wide.sweep.grain = 5;
  const auto a = sc::ScenarioEngine(serial).run_statistical(s);
  const auto b = sc::ScenarioEngine(wide).run_statistical(s);
  ASSERT_EQ(a.noise_v.size(), 48u);
  EXPECT_EQ(a.study_key.hi, b.study_key.hi);
  EXPECT_EQ(a.study_key.lo, b.study_key.lo);
  EXPECT_EQ(a.noise_v, b.noise_v);
  EXPECT_EQ(a.delay_s, b.delay_s);
}

TEST(Statistical, ShardedRunsMergeBitIdenticalToTheFullRange) {
  const sc::Scenario s = statistical_scenario(48);
  const sc::ScenarioEngine engine;
  const auto full = engine.run_statistical(s);
  const std::string reference = study_bytes(sc::reduce_shards({full}));

  // Uneven decomposition with an empty middle shard, evaluated out of
  // order — the merge must still stream in global sample order.
  std::vector<sc::StatisticalShard> shards;
  shards.push_back(engine.run_statistical(s, 17, 48));
  shards.push_back(engine.run_statistical(s, 17, 17));
  shards.push_back(engine.run_statistical(s, 0, 17));
  EXPECT_EQ(study_bytes(sc::reduce_shards(std::move(shards))), reference);
}

TEST(Statistical, StudiesThatDifferOnlyInDriverKeepSeparateRoms) {
  // The driven reduction folds the study's driver into the ROM, so two
  // studies that differ only in driver resistance must not share a cached
  // bus-prom entry: each, run on one engine, equals a fresh-engine run.
  const sc::Scenario a = statistical_scenario(12);
  sc::Scenario b = a;
  b.workload.driver_resistance_kohm *= 3.0;
  const sc::ScenarioEngine shared;
  const auto shared_a = shared.run_statistical(a);
  const auto shared_b = shared.run_statistical(b);
  const auto fresh_a = sc::ScenarioEngine().run_statistical(a);
  const auto fresh_b = sc::ScenarioEngine().run_statistical(b);
  EXPECT_EQ(shared_a.noise_v, fresh_a.noise_v);
  EXPECT_EQ(shared_a.delay_s, fresh_a.delay_s);
  EXPECT_EQ(shared_b.noise_v, fresh_b.noise_v);
  EXPECT_EQ(shared_b.delay_s, fresh_b.delay_s);
  EXPECT_NE(shared_a.noise_v, shared_b.noise_v);
  // statistical_rom serves the cached reductions the two studies ran on.
  EXPECT_NE(shared.statistical_rom(a), shared.statistical_rom(b));
  EXPECT_EQ(shared.cache().stats(sc::stage::kBusProm).misses, 2u);
}

TEST(Statistical, AStudyWithoutReceiverLoadRuns) {
  // A zero load is a valid workload: the driven reduction stamps no load
  // capacitor, so the study evaluates instead of rejecting the netlist.
  sc::Scenario s = statistical_scenario(12);
  s.workload.load_capacitance_ff = 0.0;
  const auto shard = sc::ScenarioEngine().run_statistical(s);
  ASSERT_EQ(shard.noise_v.size(), 12u);
  for (std::size_t i = 0; i < shard.noise_v.size(); ++i) {
    EXPECT_TRUE(std::isfinite(shard.noise_v[i]));
    EXPECT_GT(shard.noise_v[i], 0.0);
    EXPECT_TRUE(std::isfinite(shard.delay_s[i]));
  }
}

TEST(Statistical, MergeRejectsGapsOverlapsAndForeignShards) {
  const sc::Scenario s = statistical_scenario(12);
  const sc::ScenarioEngine engine;
  const auto a = engine.run_statistical(s, 0, 6);
  const auto b = engine.run_statistical(s, 6, 12);

  EXPECT_THROW(sc::reduce_shards({a, a}), cnti::PreconditionError);  // overlap
  EXPECT_THROW(sc::reduce_shards({a}), cnti::PreconditionError);     // gap
  EXPECT_THROW(sc::reduce_shards({b}), cnti::PreconditionError);     // gap

  auto foreign = b;
  foreign.study_key.lo ^= 1;  // same range, different study
  EXPECT_THROW(sc::reduce_shards({a, foreign}), cnti::PreconditionError);

  auto truncated = b;
  truncated.noise_v.pop_back();  // KPI arrays disagree with the range
  EXPECT_THROW(sc::reduce_shards({a, truncated}), cnti::PreconditionError);
}

TEST(Statistical, ShardJsonRoundTripsBitExactlyIncludingNaN) {
  const sc::Scenario s = statistical_scenario(12);
  sc::StatisticalShard shard = sc::ScenarioEngine().run_statistical(s);
  shard.delay_s[3] = std::numeric_limits<double>::quiet_NaN();

  std::ostringstream out;
  sc::write_shard_json(out, shard);
  EXPECT_NE(out.str().find("null"), std::string::npos);
  const sc::StatisticalShard back = sc::read_shard_json(out.str());
  EXPECT_EQ(back.study_key.hi, shard.study_key.hi);
  EXPECT_EQ(back.study_key.lo, shard.study_key.lo);
  EXPECT_EQ(back.total_samples, shard.total_samples);
  EXPECT_EQ(back.begin, shard.begin);
  EXPECT_EQ(back.end, shard.end);
  EXPECT_EQ(back.noise_v, shard.noise_v);
  ASSERT_EQ(back.delay_s.size(), shard.delay_s.size());
  for (std::size_t i = 0; i < shard.delay_s.size(); ++i) {
    if (std::isnan(shard.delay_s[i])) {
      EXPECT_TRUE(std::isnan(back.delay_s[i]));
    } else {
      EXPECT_EQ(back.delay_s[i], shard.delay_s[i]);
    }
  }

  EXPECT_THROW(sc::read_shard_json("{\"schema\": \"cnti.shard.v1\"}"),
               cnti::ParseError);
}

TEST(Statistical, InvalidDelaysAreCountedNotPoisoned) {
  // A shard whose delays are all NaN reduces to a zero-count delay summary
  // and a full invalid count — the noise statistics stay untouched.
  sc::StatisticalShard shard;
  shard.total_samples = 4;
  shard.begin = 0;
  shard.end = 4;
  shard.noise_v = {0.1, 0.2, 0.3, 0.4};
  shard.delay_s.assign(4, std::numeric_limits<double>::quiet_NaN());
  const sc::StatisticalStudy study = sc::reduce_shards({shard});
  EXPECT_EQ(study.delay_valid, 0u);
  EXPECT_EQ(study.delay_invalid, 4u);
  EXPECT_EQ(study.delay_s.count, 0u);
  EXPECT_EQ(study.noise_v.count, 4u);
  EXPECT_DOUBLE_EQ(study.noise_v.mean, 0.25);
  // The study report renders without throwing and carries the counts.
  const std::string json = study_bytes(study);
  EXPECT_NE(json.find("\"delay_invalid\": 4"), std::string::npos);
}

TEST(ScenarioReport, NeverCrossedDelayIsNullInJsonAndEmptyInCsv) {
  // End-to-end sentinel path: a source impedance far above the g_min
  // leakage floor keeps the aggressor far end below vdd/2 forever, so the
  // full-MNA noise stage reports a NaN delay — which must surface as JSON
  // null and an empty CSV cell, never as -1 or "nan".
  sc::Scenario s = small_scenario();
  s.analysis.delay = false;
  s.analysis.noise = true;
  s.analysis.noise_model = sc::NoiseModel::kFullMna;
  s.workload.driver_resistance_kohm = 1e9;  // 1e12 Ohm
  const sc::ScenarioResult r = sc::ScenarioEngine().run(s);
  ASSERT_TRUE(r.noise.has_value());
  ASSERT_TRUE(std::isnan(r.noise->aggressor_delay_s));

  std::ostringstream json;
  sc::write_result_json_object(json, r, "");
  EXPECT_NE(json.str().find("\"aggressor_delay_s\": null"),
            std::string::npos);

  std::ostringstream csv;
  sc::write_report_csv(csv, {r});
  std::string line = csv.str();
  line = line.substr(line.find('\n') + 1);  // data row
  std::vector<std::string> fields;
  std::istringstream row(line);
  for (std::string f; std::getline(row, f, ',');) fields.push_back(f);
  const auto& header = sc::report_csv_header();
  const std::size_t col =
      static_cast<std::size_t>(std::find(header.begin(), header.end(),
                                         "aggressor_delay_ps") -
                               header.begin());
  ASSERT_LT(col, fields.size());
  EXPECT_EQ(fields[col], "");
  EXPECT_EQ(line.find("nan"), std::string::npos);
}

}  // namespace
