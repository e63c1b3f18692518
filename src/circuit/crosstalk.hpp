// Coupled-line crosstalk analysis: the circuit-level counterpart of the
// TCAD Fig. 10 cross-talk extraction. An aggressor line switches next to
// a quiet victim; both are distributed RC lines coupled segment-by-segment
// through the extracted (or analytic) coupling capacitance. Reports the
// victim noise peak — the signal-integrity metric that decides whether a
// lower-C CNT line buys noise margin.
#pragma once

#include <span>
#include <vector>

#include "circuit/mna.hpp"
#include "core/line_model.hpp"

namespace cnti::circuit {

struct CrosstalkConfig {
  core::LineRlc victim;
  core::LineRlc aggressor;
  /// Coupling capacitance per metre between the two lines [F/m]
  /// (e.g. -C_ij from tcad::extract_capacitance divided by line length).
  double coupling_cap_per_m = 20e-12;
  double length_m = 100e-6;
  int segments = 16;
  /// Holding resistance of the victim driver and drive resistance of the
  /// switching aggressor [Ohm].
  double victim_driver_ohm = 5e3;
  double aggressor_driver_ohm = 5e3;
  double vdd_v = 1.0;
  double edge_time_s = 20e-12;
  MnaOptions mna{};  ///< Linear backend routing for the transient.
};

struct CrosstalkResult {
  double peak_noise_v = 0.0;       ///< At the victim far end.
  double peak_time_s = 0.0;
  /// 50% delay of the aggressor itself; quiet NaN when the far end never
  /// reaches vdd/2 inside the window (never a negative sentinel).
  double aggressor_delay_s = 0.0;
};

/// Builds the coupled ladder, runs the MNA transient, measures the noise.
CrosstalkResult analyze_crosstalk(const CrosstalkConfig& config,
                                  int time_steps = 2500);

/// Wide coupled bus: `lines` identical RC lines side by side, coupled
/// nearest-neighbour segment-by-segment, one aggressor switching while
/// every other line is held quiet by its driver. This is the bus-level
/// scenario from the CNT-via/interconnect literature (Ting et al., Kreupl
/// et al.) — thousands of unknowns, which is exactly the regime the sparse
/// MNA backend exists for.
///
/// The description is split along the cache seam the scenario engine keys
/// on: BusTopology is everything that fixes the bare netlist (and hence
/// the MNA pattern and the PRIMA reduction); BusDrive is the per-scenario
/// termination/stimulus overlay that can vary across a batch while the
/// topology-derived artifacts are reused.
struct BusTopology {
  core::LineRlc line;                   ///< Per-line RC(L) model.
  double coupling_cap_per_m = 20e-12;   ///< Neighbour coupling [F/m].
  double length_m = 100e-6;
  int lines = 16;
  int segments = 64;
};

struct BusDrive {
  int aggressor = -1;                   ///< Switching line; -1 = centre.
  double driver_ohm = 5e3;              ///< Every line's driver resistance.
  double vdd_v = 1.0;
  double edge_time_s = 20e-12;
  double receiver_load_f = 0.2e-15;     ///< Input load at every far end.
  MnaOptions mna{};                     ///< Backend routing (kAuto -> sparse).
};

struct BusCrosstalkResult {
  double peak_noise_v = 0.0;       ///< Worst victim far-end noise.
  double peak_time_s = 0.0;
  int worst_victim = -1;           ///< Line index of the worst victim.
  /// 50% delay of the aggressor far end; quiet NaN when the waveform never
  /// crosses vdd/2 inside the window (report writers emit null/empty, the
  /// statistical layer counts the sample invalid).
  double aggressor_delay_s = 0.0;
  int unknowns = 0;                ///< MNA system size actually solved.
};

/// The bus noise KPIs of one transient, shared by the MNA pair and bus
/// analyses and the reduced-order bus: `far` holds each line's far-end
/// waveform on `time`, in line order. The worst victim is the first line
/// (then the first step) whose |v| strictly exceeds every earlier one; it
/// defaults to line 0, or 1 when line 0 is the aggressor, so all-zero
/// victims still name a victim. The aggressor delay is its first rising
/// vdd/2 crossing, a quiet NaN when there is none. `unknowns` is left 0
/// for the caller.
BusCrosstalkResult scan_bus_noise(const std::vector<double>& time,
                                  std::span<const std::vector<double>> far,
                                  int aggressor, double vdd_v);

/// Bare N-line coupled bus: the ladders and their neighbour coupling only —
/// no stimulus source, driver resistors or receiver loads. head[l]/far[l]
/// are the driver-side and receiver-side terminals of line l, which is
/// where analyze_bus_crosstalk attaches its terminations. The ROM layer's
/// rom::stamp_bus writes the same bus straight into matrices, in its line
/// modes; this netlist, rotated by the same DCT, is its test oracle.
struct BusNetlist {
  Circuit ckt;
  std::vector<NodeId> head;
  std::vector<NodeId> far;
  /// The topology this netlist was built from. analyze_bus_crosstalk
  /// checks it field-for-field, so a
  /// cached netlist can never be silently paired with a different
  /// topology's window/measurement parameters.
  BusTopology topology;
};

BusNetlist build_bus_netlist(const BusTopology& topology);

/// Attaches one drive scenario to a *prebuilt* bare bus netlist of
/// `topology` (taken by value: pass `bare` to copy, std::move(bare) to
/// consume), runs the MNA transient and scans every victim far end for
/// the worst-case coupled noise. One build — typically held in the
/// scenario engine's memo cache — serves any number of drive scenarios;
/// a single shot passes build_bus_netlist(topology).
BusCrosstalkResult analyze_bus_crosstalk(BusNetlist bus,
                                         const BusTopology& topology,
                                         const BusDrive& drive,
                                         int time_steps = 1500);

/// The single rising edge used by the crosstalk analyses: 0 -> vdd with
/// the given rise time, delayed by 5 edge times, holding high afterwards.
PulseWave bus_edge_wave(double vdd_v, double edge_time_s);

/// Length of the transient window analyze_bus_crosstalk simulates: 12 RC
/// time constants of the worst-case drive into the line (+ both-neighbour
/// coupling) capacitance plus the receiver load, floored at 20 edge
/// times. Exposed so reduced-model evaluations run on the exact same grid
/// as the full transient.
double bus_settle_time_s(const BusTopology& topology, const BusDrive& drive);

}  // namespace cnti::circuit
