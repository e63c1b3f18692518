// Declarative scenario description — the paper's closed multi-scale flow
// (ab-initio-calibrated channels -> materials MFP -> compact RLC -> circuit
// delay/noise -> thermal limits) as *data* instead of a hand-wired .cpp per
// study. A Scenario is three orthogonal specs:
//
//   TechnologySpec — what the wire is: geometry, doping, defects, contacts,
//                    electrostatic environment (analytic or TCAD-extracted);
//   WorkloadSpec   — what the wire does: driver/load, bus topology,
//                    stimulus edge, thermal operating context;
//   AnalysisRequest — which KPIs to compute and through which models.
//
// Each spec hashes to a deterministic ContentKey, which is what lets the
// ScenarioEngine's memo cache share expensive sub-results (TCAD C_E
// extraction, bare bus netlists, PRIMA reductions) across a batch whose
// scenarios differ only in the other specs' fields.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "atomistic/doping.hpp"
#include "core/electrostatics.hpp"
#include "core/sweep_engine.hpp"
#include "scenario/content_key.hpp"

namespace cnti::scenario {

/// How the electrostatic capacitance C_E of the environment is obtained.
enum class CapacitanceModel {
  kAnalytic,  ///< core::environment_capacitance closed form.
  kTcad,      ///< 3-D finite-volume extraction (cached per geometry).
};

/// The wire and its process: everything the fabricated technology fixes.
struct TechnologySpec {
  double outer_diameter_nm = 10.0;
  atomistic::DopantSpecies dopant = atomistic::DopantSpecies::kIodineInternal;
  double dopant_concentration = 0.0;  ///< 0 = pristine.
  double temperature_k = phys::kRoomTemperature;
  double defect_spacing_um = -1.0;  ///< <= 0: defect-free growth.
  double contact_resistance_kohm = 200.0;
  core::WireEnvironment environment;
  CapacitanceModel capacitance_model = CapacitanceModel::kAnalytic;
  /// Cells across the wire side for the TCAD extraction grid (kTcad only);
  /// part of the content key because it changes the extracted value.
  int tcad_cells_per_side = 2;
};

/// The electrical job the wire performs plus its thermal context.
struct WorkloadSpec {
  double length_um = 100.0;
  double driver_resistance_kohm = 10.0;
  double load_capacitance_ff = 0.1;
  double vdd_v = 1.0;
  double edge_time_ps = 20.0;
  // Coupled-bus topology (noise analysis).
  int bus_lines = 16;
  int bus_segments = 64;
  double coupling_cap_af_per_um = 30.0;  ///< Neighbour coupling.
  int aggressor = -1;                    ///< Switching line; -1 = centre.
  // Thermal operating context (thermal analysis).
  double operating_current_ua = 20.0;
  double thermal_conductivity_w_mk = 3000.0;
  double substrate_coupling_w_mk = 0.05;
  double max_temperature_rise_k = 100.0;
};

/// Delay model for the line KPI.
enum class DelayModel {
  kElmore,        ///< 0.693 x Elmore closed form (multiscale default).
  kMnaTransient,  ///< Full driver-line-load MNA step response.
};

/// Noise model for the coupled-bus KPI.
enum class NoiseModel {
  /// Per-drive PRIMA reduction of the terminated bus (one input, 12
  /// vectors) in its line modes.
  kReducedOrder,
  kFullMna,  ///< Full sparse-MNA bus transient.
};

/// Which KPIs to compute, and through which stage implementations.
struct AnalysisRequest {
  bool delay = true;
  DelayModel delay_model = DelayModel::kElmore;
  bool noise = false;
  NoiseModel noise_model = NoiseModel::kReducedOrder;
  bool thermal = false;  ///< Self-heating, ampacity, EM verdicts.
  /// Transient grid for the MNA/ROM analyses.
  int time_steps = 600;
  /// Ladder segments for the kMnaTransient delay discretization.
  int delay_segments = 12;
};

/// Deterministic Monte Carlo axis of a scenario: how many technology
/// samples to draw, from which root seed, and how far each per-unit-length
/// electrical axis spreads multiplicatively around its nominal value.
/// `samples == 0` (the default) keeps the scenario deterministic —
/// ScenarioEngine::run ignores the spec entirely; run_statistical requires
/// samples > 0. Sample i draws its axis scales from
/// Rng(seed).fork(i).fork(axis) sub-streams, a pure function of
/// (seed, i, axis), so any shard/thread partition of [0, samples)
/// reproduces identical per-sample technologies (see
/// scenario/statistical.hpp).
struct VariabilitySpec {
  std::uint64_t seed = 0x5eed5eedULL;
  int samples = 0;
  /// Half-width of each axis's uniform multiplicative spread:
  /// scale ~ U[1 - span, 1 + span]; 0 pins the axis at nominal. Spans must
  /// lie in [0, 1) so scales stay positive.
  double resistance_span = 0.0;   ///< line resistance_per_m.
  double capacitance_span = 0.0;  ///< line capacitance_per_m.
  double coupling_span = 0.0;     ///< neighbour coupling_cap_per_m.
};

/// One fully described study point. The label is reporting metadata only —
/// it is excluded from every content key.
struct Scenario {
  std::string label;
  TechnologySpec tech;
  WorkloadSpec workload;
  AnalysisRequest analysis;
  VariabilitySpec variability;
};

/// Content keys (label-free, schema-tagged, deterministic).
ContentKey content_key(const TechnologySpec& t);
ContentKey content_key(const WorkloadSpec& w);
ContentKey content_key(const AnalysisRequest& a);
ContentKey content_key(const VariabilitySpec& v);
ContentKey content_key(const Scenario& s);

/// Expands a base scenario over a sweep grid: `apply` rewrites the copy for
/// each grid point (typically from point.at("axis")), and the returned
/// batch is in flat-index order with labels "<base>/axis=value/...".
std::vector<Scenario> expand_grid(
    const Scenario& base, const core::SweepGrid& grid,
    const std::function<void(Scenario&, const core::SweepPoint&)>& apply);

}  // namespace cnti::scenario
