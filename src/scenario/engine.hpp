// ScenarioEngine: routes declarative Scenarios through the multi-scale
// stage graph
//
//   atomistic channels -> C_E (analytic | TCAD) -> compact line model
//     -> circuit KPIs (Elmore | MNA delay; ROM | full-MNA bus noise)
//     -> thermal/EM KPIs
//
// with a content-keyed MemoCache so a batch automatically shares the
// expensive per-technology / per-topology artifacts (TCAD extractions,
// bare bus netlists and descriptor systems, parametrized ROMs, full-MNA
// transients) across scenarios. Batches execute on numerics::ThreadPool
// through core::SweepEngine and are bit-identical at any thread count —
// every cached value is a pure function of its content key, so sharing
// changes cost, never results (see docs/SCENARIO_ENGINE.md).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuit/crosstalk.hpp"
#include "core/multiscale.hpp"
#include "core/mwcnt_line.hpp"
#include "core/sweep_engine.hpp"
#include "scenario/memo_cache.hpp"
#include "scenario/spec.hpp"
#include "scenario/stages.hpp"

namespace cnti::rom {
class ParametrizedBusRom;  // rom/parametrized_rom.hpp
}  // namespace cnti::rom

namespace cnti::scenario {

struct StatisticalShard;  // scenario/statistical.hpp

/// Cache bucket names of the engine's memoized stages — the keys under
/// which MemoCache::stats reports hit/miss counts. Exported so consumers
/// (benches, examples, tests) cannot drift from the engine's spelling:
/// stats() silently returns zeros for unknown stage names.
namespace stage {
inline constexpr const char* kAtomistic = "atomistic";
inline constexpr const char* kCapacitance = "capacitance";
inline constexpr const char* kDelayMna = "delay-mna";
inline constexpr const char* kBusNetlist = "bus-netlist";
inline constexpr const char* kBusProm = "bus-prom";
inline constexpr const char* kBusRomEval = "bus-rom-eval";
inline constexpr const char* kBusMna = "bus-mna";
inline constexpr const char* kThermal = "thermal";
}  // namespace stage

/// Per-scenario outputs; sections absent from the AnalysisRequest stay
/// disengaged.
struct ScenarioResult {
  std::string label;
  /// Atomistic -> materials -> compact -> delay chain, field-for-field
  /// comparable with core::run_multiscale_flow of the equivalent input.
  core::MultiscaleReport line;
  std::optional<circuit::BusCrosstalkResult> noise;
  std::optional<ThermalReport> thermal;
};

struct EngineOptions {
  /// Disable to recompute every stage per scenario (the differential
  /// baseline the cached path must match bit-for-bit).
  bool cache_enabled = true;
  /// Optional second-level store (typically a service::DiskCache): leaf
  /// stage results survive process restarts and are shared by the engines
  /// holding the same tier object. Two DiskCache instances on one
  /// directory (e.g. two daemons) never read a wrong value, but each may
  /// miss or lose the other's entries. Ignored when the cache is disabled.
  /// Persistence changes cost, never values — a revived entry is
  /// bit-identical to the computed one by the codecs' construction.
  std::shared_ptr<CacheTier> tier;
  /// Batch execution (thread count / chunk grain) for run_batch.
  core::SweepOptions sweep{};
};

class ScenarioEngine {
 public:
  explicit ScenarioEngine(EngineOptions options = {});

  /// Runs one scenario through the stage graph (thread-safe; shares the
  /// engine's cache with concurrent callers).
  ScenarioResult run(const Scenario& scenario) const;

  /// Runs a batch in flat order via core::run_sweep; results are
  /// bit-identical at any thread count and to per-scenario run() calls.
  std::vector<ScenarioResult> run_batch(
      const std::vector<Scenario>& batch) const;

  /// Runs the scenario's deterministic Monte Carlo (variability.samples
  /// technology draws, evaluated at ROM cost on statistical_rom) for the
  /// global sample range [begin, end) — one shard of a possibly
  /// multi-process study. Requires analysis.noise and
  /// variability.samples > 0; results are bit-identical at any thread
  /// count and shard partition (see scenario/statistical.hpp).
  StatisticalShard run_statistical(const Scenario& scenario,
                                   std::uint64_t begin,
                                   std::uint64_t end) const;

  /// The whole study in one process: run_statistical(s, 0, samples).
  StatisticalShard run_statistical(const Scenario& scenario) const;

  /// The driven ParametrizedBusRom run_statistical evaluates the study's
  /// samples on, reduced on first use and then served from the bus-prom
  /// cache stage — so a caller can time and validate the very reduction
  /// the study runs on.
  std::shared_ptr<const rom::ParametrizedBusRom> statistical_rom(
      const Scenario& scenario) const;

  const EngineOptions& options() const { return options_; }
  const MemoCache& cache() const { return cache_; }

 private:
  /// Shared front of run()/run_statistical(): the cached atomistic +
  /// electrostatic stages and the compact line they imply.
  struct LineStage {
    std::shared_ptr<const core::ChannelStage> channels;
    core::MwcntLine line;
  };
  LineStage line_stage(const Scenario& scenario,
                       const core::MultiscaleInput& input) const;

  EngineOptions options_;
  mutable MemoCache cache_;
};

/// The core-façade input equivalent to a scenario's technology + workload
/// (the seam the MultiscaleHooks-parity tests compare across).
core::MultiscaleInput to_multiscale_input(const Scenario& scenario);

/// The coupled-bus topology/drive implied by a scenario (what the noise
/// stages — and their cache keys — are built from).
circuit::BusTopology to_bus_topology(const Scenario& scenario,
                                     const core::MwcntLine& line);
circuit::BusDrive to_bus_drive(const Scenario& scenario);

}  // namespace cnti::scenario
