// Direct measurements of full sparse-MNA crosstalk transients: the circuit
// and numerics layers, for a workload whose timed requests never run one.
#pragma once

#include "circuit/crosstalk.hpp"
#include "harness.hpp"

namespace perfbench {

/// Times the same drive at steps/10 and `steps` steps (median of three
/// timings each) and sets circuit.per_step_ms to the slope and
/// circuit.per_pattern_ms to the intercept: ordering, symbolic analysis,
/// fresh factorizations and DC.
void fit_step_cost(const cnti::circuit::BusNetlist& bare,
                   const cnti::circuit::BusTopology& topology,
                   const cnti::circuit::BusDrive& drive, int steps,
                   Layers& out);

/// Builds the bare netlist of `topology` and runs one transient of `steps`
/// steps with timing on. Sets circuit.netlist_build_ms, circuit.self_ms,
/// the numerics.* counts, times and nnz_lu of that transient, and the
/// fit_step_cost pair.
void probe_mna_transient(const cnti::circuit::BusTopology& topology,
                         const cnti::circuit::BusDrive& drive, int steps,
                         Layers& out);

}  // namespace perfbench
