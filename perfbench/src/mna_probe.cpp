#include "mna_probe.hpp"

namespace perfbench {

namespace circuit = cnti::circuit;
namespace obs = cnti::obs;

void fit_step_cost(const circuit::BusNetlist& bare,
                   const circuit::BusTopology& topology,
                   const circuit::BusDrive& drive, int steps, Layers& out) {
  // The short run sits near the intercept, so the slope's noise barely
  // reaches it.
  constexpr int kReps = 3;
  const int lo = steps / 10, hi = steps;
  std::vector<double> t_lo, t_hi;
  for (int r = 0; r < kReps; ++r) {
    Clock::time_point t0 = Clock::now();
    circuit::analyze_bus_crosstalk(bare, topology, drive, lo);
    t_lo.push_back(elapsed_ms(t0));
    t0 = Clock::now();
    circuit::analyze_bus_crosstalk(bare, topology, drive, hi);
    t_hi.push_back(elapsed_ms(t0));
  }
  const double per_step = (median(t_hi) - median(t_lo)) / (hi - lo);
  out["circuit.per_step_ms"] = per_step;
  out["circuit.per_pattern_ms"] = median(t_lo) - lo * per_step;
}

void probe_mna_transient(const circuit::BusTopology& topology,
                         const circuit::BusDrive& drive, int steps,
                         Layers& out) {
  const Clock::time_point t0 = Clock::now();
  const circuit::BusNetlist bare = circuit::build_bus_netlist(topology);
  out["circuit.netlist_build_ms"] = elapsed_ms(t0);
  {
    // A session turns on the solver's factor and solve histograms.
    obs::TraceSession session;
    const obs::MetricsSnapshot before = obs::metrics_snapshot();
    const Clock::time_point t1 = Clock::now();
    {
      const obs::ObsSpan span("perfbench.analyze_bus_crosstalk", "perfbench");
      circuit::analyze_bus_crosstalk(bare, topology, drive, steps);
    }
    const double transient_ms = elapsed_ms(t1);
    const obs::MetricsSnapshot after = obs::metrics_snapshot();
    session.stop();
    numerics_layers(RegistryDelta(before, after), 1.0, out);
    out["circuit.self_ms"] = transient_ms - out["numerics.factor_ms"] -
                             out["numerics.solve_ms"];
  }
  fit_step_cost(bare, topology, drive, steps, out);
}

}  // namespace perfbench
