#include "scenario/engine.hpp"

#include <memory>
#include <numeric>

#include "common/units.hpp"
#include "obs/obs.hpp"
#include "rom/interconnect_rom.hpp"
#include "scenario/stage_codecs.hpp"

namespace cnti::scenario {

namespace {

KeyHasher line_rlc_hasher(const char* schema, const core::LineRlc& rlc) {
  KeyHasher h(schema);
  h.add(rlc.series_resistance_ohm)
      .add(rlc.resistance_per_m)
      .add(rlc.capacitance_per_m)
      .add(rlc.inductance_per_m);
  return h;
}

KeyHasher topology_hasher(const char* schema,
                          const circuit::BusTopology& topology) {
  KeyHasher h = line_rlc_hasher(schema, topology.line);
  h.add(topology.coupling_cap_per_m)
      .add(topology.length_m)
      .add(topology.lines)
      .add(topology.segments);
  return h;
}

ContentKey topology_drive_key(const char* schema,
                              const circuit::BusTopology& topology,
                              const circuit::BusDrive& drive,
                              int time_steps) {
  KeyHasher h = topology_hasher(schema, topology);
  h.add(drive.aggressor)
      .add(drive.driver_ohm)
      .add(drive.vdd_v)
      .add(drive.edge_time_s)
      .add(drive.receiver_load_f)
      .add(drive.mna.solver)
      .add(time_steps);
  return h.key();
}

}  // namespace

core::MultiscaleInput to_multiscale_input(const Scenario& s) {
  core::MultiscaleInput in;
  in.outer_diameter_nm = s.tech.outer_diameter_nm;
  in.length_um = s.workload.length_um;
  in.dopant = s.tech.dopant;
  in.dopant_concentration = s.tech.dopant_concentration;
  in.temperature_k = s.tech.temperature_k;
  in.defect_spacing_um = s.tech.defect_spacing_um;
  in.contact_resistance_kohm = s.tech.contact_resistance_kohm;
  in.environment = s.tech.environment;
  in.driver_resistance_kohm = s.workload.driver_resistance_kohm;
  in.load_capacitance_ff = s.workload.load_capacitance_ff;
  return in;
}

circuit::BusTopology to_bus_topology(const Scenario& s,
                                     const core::MwcntLine& line) {
  circuit::BusTopology topology;
  topology.line = line.rlc();
  topology.coupling_cap_per_m =
      units::from_aF_per_um(s.workload.coupling_cap_af_per_um);
  topology.length_m = units::from_um(s.workload.length_um);
  topology.lines = s.workload.bus_lines;
  topology.segments = s.workload.bus_segments;
  return topology;
}

circuit::BusDrive to_bus_drive(const Scenario& s) {
  circuit::BusDrive drive;
  drive.aggressor = s.workload.aggressor;
  drive.driver_ohm = units::from_kOhm(s.workload.driver_resistance_kohm);
  drive.vdd_v = s.workload.vdd_v;
  drive.edge_time_s = units::from_ps(s.workload.edge_time_ps);
  drive.receiver_load_f = units::from_fF(s.workload.load_capacitance_ff);
  return drive;
}

ScenarioEngine::ScenarioEngine(EngineOptions options)
    : options_(options), cache_(options.cache_enabled, options.tier) {}

ScenarioEngine::LineStage ScenarioEngine::line_stage(
    const Scenario& s, const core::MultiscaleInput& in) const {
  // --- Atomistic stage. ---
  const auto channels = cache_.get_or_compute<core::ChannelStage>(
      stage::kAtomistic,
      KeyHasher("stage.atomistic.v2")
          .add(s.tech.dopant)
          .add(s.tech.dopant_concentration)
          .key(),
      [&] {
        return core::doping_channel_stage(s.tech.dopant,
                                          s.tech.dopant_concentration);
      },
      &channel_stage_codec());

  // --- Electrostatic environment stage (analytic or TCAD-extracted). ---
  const auto ce = cache_.get_or_compute<double>(
      stage::kCapacitance,
      KeyHasher("stage.capacitance.v2")
          .add(s.tech.capacitance_model)
          .add(s.tech.tcad_cells_per_side)
          .add(s.tech.environment.radius_m)
          .add(s.tech.environment.center_height_m)
          .add(s.tech.environment.neighbor_pitch_m)
          .add(s.tech.environment.eps_r)
          .add(s.tech.environment.coupling_factor)
          .key(),
      [&] {
        return s.tech.capacitance_model == CapacitanceModel::kTcad
                   ? tcad_environment_capacitance(s.tech.environment,
                                                  s.tech.tcad_cells_per_side)
                   : core::environment_capacitance(s.tech.environment);
      },
      &scalar_codec());

  // --- Materials + compact stage (cheap; computed inline). ---
  return {channels, core::MwcntLine(core::multiscale_line_spec(in, *channels,
                                                               *ce))};
}

ScenarioResult ScenarioEngine::run(const Scenario& s) const {
  static const obs::Counter scenarios = obs::counter("cnti.engine.scenarios");
  static const obs::Histogram scenario_hist =
      obs::histogram("cnti.engine.scenario_ns");
  scenarios.add();
  const obs::ObsSpan run_span("engine.run", "engine", scenario_hist);
  const core::MultiscaleInput in = to_multiscale_input(s);
  core::validate_multiscale_input(in);

  ScenarioResult out;
  out.label = s.label;

  const LineStage front = line_stage(s, in);
  const auto& channels = front.channels;
  const core::MwcntLine& line = front.line;

  // --- Circuit delay stage. ---
  double delay_s = 0.0;
  std::string delay_method = "none";
  if (s.analysis.delay) {
    const core::DriverLineLoad cfg =
        core::multiscale_driver_line_load(in, line);
    if (s.analysis.delay_model == DelayModel::kMnaTransient) {
      const auto d = cache_.get_or_compute<double>(
          stage::kDelayMna,
          // .v4 (2026-10-19): the line is linear, so its DC is one solve
          // at gmin = 0 instead of the four-level ladder, and the
          // transient factors once; last bits can move.
          line_rlc_hasher("stage.delay-mna.v4", cfg.line)
              .add(cfg.driver_resistance_ohm)
              .add(cfg.driver_output_capacitance_f)
              .add(cfg.length_m)
              .add(cfg.load_capacitance_f)
              .add(s.workload.vdd_v)
              .add(s.workload.edge_time_ps)
              .add(s.analysis.delay_segments)
              .add(s.analysis.time_steps)
              .key(),
          [&] {
            return mna_line_delay_s(
                cfg, s.workload.vdd_v,
                units::from_ps(s.workload.edge_time_ps),
                s.analysis.delay_segments, s.analysis.time_steps);
          },
          &scalar_codec());
      delay_s = *d;
      delay_method = "mna-transient";
    } else {
      delay_s = core::delay_50_estimate(cfg);
      delay_method = "elmore";
    }
  }
  out.line = core::assemble_multiscale_report(in, *channels, line, delay_s,
                                              delay_method);

  // --- Coupled-bus noise stage. ---
  if (s.analysis.noise) {
    const circuit::BusTopology topology = to_bus_topology(s, line);
    const circuit::BusDrive drive = to_bus_drive(s);
    if (s.analysis.noise_model == NoiseModel::kReducedOrder) {
      // Disk-persisted leaf: the evaluated noise result per (topology,
      // drive, grid). The compute stamps the bus (rom::stamp_bus checks
      // the topology and stores nothing else) and reduces it under this
      // drive as a one-input system (rom::evaluate_bus_drive); a warm disk
      // hit stamps nothing.
      // .v3: the settle window gained the receiver load and the delay
      // sentinel became NaN — same key inputs, different values, so the
      // schema bump retires every pre-fix persisted entry (PR-7 policy).
      // .v4: the sparse LU gained a blocked (panel) kernel by default;
      // last-bit rounding differed from the scalar path, so persisted
      // numeric leaves from the scalar era were retired wholesale.
      // .v6: per-drive reduction of the terminated bus (12 vectors)
      // instead of folding the drive into a bare 2N-port reduction.
      // .v7 (2026-10-18): PRIMA factors the symmetric RC pencil with a
      // banded Cholesky instead of sparse LU; last bits of the reduced
      // models move.
      // .v8 (2026-10-19): the bus is stamped as affine components instead
      // of extracted from a netlist, and the drive enters as their
      // coefficients; last bits of the reduced models move.
      // .v9 (2026-10-19): the bus is stamped in its line modes (N
      // decoupled chains, band factor at half-bandwidth 1, reciprocal
      // pivots) and PRIMA orthonormalizes by CGS2; last bits move.
      // .v10 (2026-10-20): the reduction runs in two stages (5 Krylov
      // vectors per line mode, then 12 on the block model); the reduced
      // models and KPIs move (within 3e-8 on the 16-line paper buses).
      KeyHasher eval_key = topology_hasher("stage.bus-rom-eval.v10", topology);
      eval_key.add(drive.aggressor)
          .add(drive.driver_ohm)
          .add(drive.receiver_load_f)
          .add(drive.vdd_v)
          .add(drive.edge_time_s)
          .add(s.analysis.time_steps);
      const auto result = cache_.get_or_compute<circuit::BusCrosstalkResult>(
          stage::kBusRomEval, eval_key.key(),
          [&] {
            return rom::evaluate_bus_drive(rom::stamp_bus(topology), drive,
                                           s.analysis.time_steps);
          },
          &bus_result_codec());
      out.noise = *result;
    } else {
      // Full sparse-MNA transient: each distinct drive is simulated once
      // and persisted; the bare netlist is built once per topology,
      // memory-only, nested so a disk hit skips even the build.
      // .v5 (2026-10-19): the key drops the removed factor-kernel option,
      // and the linear bus factors once per analysis with a one-solve DC;
      // buses of 1024+ unknowns leave the blocked kernel's rounding.
      // .v6 (2026-10-19): the key drops the removed sparse-threshold and
      // ordering options; values are unchanged.
      const auto result = cache_.get_or_compute<circuit::BusCrosstalkResult>(
          stage::kBusMna,
          topology_drive_key("stage.bus-mna.v6", topology, drive,
                             s.analysis.time_steps),
          [&] {
            const auto bare = cache_.get_or_compute<circuit::BusNetlist>(
                stage::kBusNetlist,
                topology_hasher("stage.bus-netlist.v2", topology).key(),
                [&] { return circuit::build_bus_netlist(topology); });
            return circuit::analyze_bus_crosstalk(*bare, topology, drive,
                                                  s.analysis.time_steps);
          },
          &bus_result_codec());
      out.noise = *result;
    }
  }

  // --- Thermal/EM stage. ---
  if (s.analysis.thermal) {
    const auto thermal = cache_.get_or_compute<ThermalReport>(
        stage::kThermal,
        KeyHasher("stage.thermal.v2")
            .add(s.tech.outer_diameter_nm)
            .add(s.tech.temperature_k)
            .add(line.resistance(units::from_um(s.workload.length_um)))
            .add(s.workload.length_um)
            .add(s.workload.operating_current_ua)
            .add(s.workload.thermal_conductivity_w_mk)
            .add(s.workload.substrate_coupling_w_mk)
            .add(s.workload.max_temperature_rise_k)
            .key(),
        [&] { return thermal_stage(s.tech, s.workload, line); },
        &thermal_report_codec());
    out.thermal = *thermal;
  }
  return out;
}

std::vector<ScenarioResult> ScenarioEngine::run_batch(
    const std::vector<Scenario>& batch) const {
  if (batch.empty()) return {};
  static const obs::Counter batches = obs::counter("cnti.engine.batches");
  batches.add();
  const obs::ObsSpan batch_span("engine.run_batch", "engine");
  // The batch rides the generic sweep engine: one index axis, evaluated in
  // flat order on the thread pool, results slot-indexed (deterministic).
  std::vector<double> indices(batch.size());
  std::iota(indices.begin(), indices.end(), 0.0);
  const core::SweepGrid grid({{"scenario", std::move(indices)}});
  return core::run_sweep(
      grid,
      [&](const core::SweepPoint& p) {
        return run(batch[p.flat_index()]);
      },
      options_.sweep);
}

}  // namespace cnti::scenario
