// Signal-integrity study of doped CNT interconnects using the extension
// toolkit: AC bandwidth (where the kinetic inductance lives), coupled-line
// crosstalk, repeater planning for a multi-millimetre link, a 16-line
// coupled bus (2000+ MNA unknowns) that only the sparse engine makes
// tractable, and a declarative scenario-engine batch whose memo cache
// shares one PRIMA reduction per bus topology.
//
//   $ ./examples/signal_integrity_study
#include <cmath>
#include <iostream>

#include "circuit/ac.hpp"
#include "circuit/builders.hpp"
#include "circuit/crosstalk.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/mwcnt_line.hpp"
#include "core/repeater.hpp"
#include "core/sweep_engine.hpp"
#include "scenario/engine.hpp"

int main() {
  using namespace cnti;

  std::cout << "Signal integrity of a 10 nm MWCNT interconnect\n\n";

  // --- Bandwidth vs. doping (AC analysis). -------------------------------
  std::cout << "1) 3 dB bandwidth of a source-driven 200 um line:\n";
  Table bw({"N_c per shell", "R line [kOhm]", "f_3dB [GHz]"});
  for (double nc : {2.0, 4.0, 10.0}) {
    const core::MwcntLine line = core::make_paper_mwcnt(10, nc, 100e3);
    circuit::Circuit ckt;
    const auto in = ckt.node("in");
    const auto out = ckt.node("out");
    ckt.add_vsource("vin", in, 0, circuit::DcWave{0.0});
    circuit::add_distributed_line(ckt, "ln", in, out, line.rlc(), 200e-6,
                                  12);
    ckt.add_capacitor("cl", out, 0, 1e-15);
    const auto freqs = circuit::log_frequency_grid(1e6, 1e12, 20);
    const auto res = circuit::ac_analysis(ckt, "vin", out, freqs);
    bw.add_row({Table::num(nc, 3),
                Table::num(units::to_kOhm(line.resistance(200e-6)), 4),
                Table::num(circuit::bandwidth_3db(res) / 1e9, 3)});
  }
  bw.print(std::cout);

  // --- Crosstalk noise budget. -------------------------------------------
  std::cout << "\n2) Victim noise vs. spacing-equivalent coupling "
               "(50 um neighbours):\n";
  Table xt({"coupling [aF/um]", "noise pristine [mV]", "noise doped [mV]"});
  for (double cc_af : {10.0, 30.0, 60.0}) {
    const auto noise = [&](double nc) {
      circuit::CrosstalkConfig cfg;
      cfg.victim = core::make_paper_mwcnt(10, nc, 20e3).rlc();
      cfg.aggressor = cfg.victim;
      cfg.coupling_cap_per_m = cc_af * 1e-12;
      cfg.length_m = 50e-6;
      cfg.segments = 12;
      return circuit::analyze_crosstalk(cfg, 1200).peak_noise_v * 1e3;
    };
    xt.add_row({Table::num(cc_af, 3), Table::num(noise(2), 4),
                Table::num(noise(10), 4)});
  }
  xt.print(std::cout);

  // --- Repeater plan for a 5 mm link. -------------------------------------
  std::cout << "\n3) Repeater plan, 5 mm link (contacts re-paid per "
               "repeater):\n";
  Table rp({"line", "k_opt", "size", "delay [ns]", "energy [fJ]"});
  for (double nc : {2.0, 10.0}) {
    const auto plan = core::optimize_repeaters(
        core::make_paper_mwcnt(10, nc, 50e3).rlc(), 5e-3);
    rp.add_row({nc == 2 ? "pristine" : "doped Nc=10",
                std::to_string(plan.count), Table::num(plan.size, 3),
                Table::num(units::to_ns(plan.total_delay_s), 4),
                Table::num(plan.energy_per_transition_j * 1e15, 3)});
  }
  rp.print(std::cout);

  // --- Wide coupled bus (sparse MNA engine). -----------------------------
  // 16 parallel 100 um lines, nearest-neighbour coupled, 128 segments each:
  // ~2100 MNA unknowns. The dense O(n^3) path needs minutes per handful of
  // timesteps here; the sparse backend's pattern-frozen refactorization
  // runs the full transient in about a second.
  std::cout << "\n4) 16-line coupled bus, centre aggressor (sparse MNA):\n";
  Table bus({"bus", "unknowns", "worst victim", "noise pristine [mV]",
             "noise doped [mV]"});
  {
    const auto bus_noise = [&](double nc, int* unknowns, int* victim) {
      circuit::BusTopology topology;
      topology.line = core::make_paper_mwcnt(10, nc, 20e3).rlc();
      topology.coupling_cap_per_m = 30e-12;
      topology.length_m = 100e-6;
      topology.lines = 16;
      topology.segments = 128;  // kAuto routes this to the sparse backend
      const auto r = circuit::analyze_bus_crosstalk(
          circuit::build_bus_netlist(topology), topology,
          circuit::BusDrive{}, 600);
      *unknowns = r.unknowns;
      *victim = r.worst_victim;
      return r.peak_noise_v * 1e3;
    };
    int unknowns = 0, victim = 0;
    const double pristine = bus_noise(2, &unknowns, &victim);
    const double doped = bus_noise(10, &unknowns, &victim);
    bus.add_row({"16 x 128 seg", std::to_string(unknowns),
                 "line " + std::to_string(victim), Table::num(pristine, 4),
                 Table::num(doped, 4)});
  }
  bus.print(std::cout);

  // --- Scenario-engine design-space batch (PRIMA behind the cache). ------
  // Driver strength x receiver load x length over the 16-line doped bus,
  // now expressed as a declarative scenario batch instead of a hand-wired
  // ROM loop: the engine routes each scenario through the full
  // atomistic -> C_E -> compact -> ROM-noise stage graph, and its memo
  // cache reduces each length's topology exactly once — the drive
  // scenarios fold into the cached reduction. At full order this grid
  // would be dozens of 1000+-unknown transients.
  std::cout << "\n5) Scenario engine: driver x load x length batch "
               "(16-line doped bus, cached per-length reductions):\n";
  scenario::Scenario base;
  base.label = "si";
  base.tech.dopant_concentration = 1.0;  // saturated iodine doping
  base.tech.contact_resistance_kohm = 20.0;
  base.workload.bus_lines = 16;
  base.workload.bus_segments = 64;
  base.workload.coupling_cap_af_per_um = 30.0;
  base.analysis.noise = true;
  base.analysis.time_steps = 600;
  const std::vector<double> drivers = {2.0, 5.0, 10.0};
  const std::vector<double> loads = {0.1, 0.2, 0.5};
  const core::SweepGrid sweep_grid({{"len_um", {50.0, 100.0}},
                                    {"driver_kohm", drivers},
                                    {"load_ff", loads}});
  const auto batch = scenario::expand_grid(
      base, sweep_grid, [](scenario::Scenario& s, const core::SweepPoint& p) {
        s.workload.length_um = p.at("len_um");
        s.workload.driver_resistance_kohm = p.at("driver_kohm");
        s.workload.load_capacitance_ff = p.at("load_ff");
      });
  const scenario::ScenarioEngine engine;
  const auto results = engine.run_batch(batch);

  Table rom_t({"len [um]", "driver [kOhm]", "noise min..max [mV]",
               "delay min..max [ps]"});
  for (std::size_t i = 0; i < results.size(); i += loads.size()) {
    double n_min = 1e9, n_max = -1e9, d_min = 1e9, d_max = -1e9;
    for (std::size_t l = 0; l < loads.size(); ++l) {
      const auto& r = *results[i + l].noise;
      n_min = std::min(n_min, std::abs(r.peak_noise_v));
      n_max = std::max(n_max, std::abs(r.peak_noise_v));
      d_min = std::min(d_min, r.aggressor_delay_s);
      d_max = std::max(d_max, r.aggressor_delay_s);
    }
    const auto p = sweep_grid.point(i);
    rom_t.add_row({Table::num(p.at("len_um"), 3),
                   Table::num(p.at("driver_kohm"), 3),
                   Table::num(n_min * 1e3, 3) + ".." +
                       Table::num(n_max * 1e3, 3),
                   Table::num(units::to_ps(d_min), 3) + ".." +
                       Table::num(units::to_ps(d_max), 3)});
  }
  rom_t.print(std::cout);
  const auto eval_stats = engine.cache().stats(scenario::stage::kBusRomEval);
  std::cout << "\n   cache: " << eval_stats.misses
            << " per-drive bus reductions for " << results.size()
            << " scenarios (" << eval_stats.hits << " hits)\n";

  // Corner cross-check: the same corner scenario through the full
  // sparse-MNA noise stage must confirm the cached ROM numbers.
  {
    scenario::Scenario corner = batch.front();  // 50 um, 2 kOhm, 0.1 fF
    const auto red = *results.front().noise;
    corner.analysis.noise_model = scenario::NoiseModel::kFullMna;
    const auto ref = *engine.run(corner).noise;
    std::cout << "\n   corner check (50 um, 2 kOhm, 0.1 fF): noise "
              << Table::num(red.peak_noise_v * 1e3, 4) << " mV (ROM) vs "
              << Table::num(ref.peak_noise_v * 1e3, 4)
              << " mV (full MNA, " << ref.unknowns << " unknowns), delay "
              << Table::num(units::to_ps(red.aggressor_delay_s), 4)
              << " ps vs "
              << Table::num(units::to_ps(ref.aggressor_delay_s), 4)
              << " ps\n";
  }

  std::cout << "\nDoping buys bandwidth, noise margin and repeater count "
               "simultaneously — the circuit-level case for the paper's "
               "doping program — the sparse MNA engine extends the "
               "analysis from line pairs to full buses, and the scenario "
               "engine's cached PRIMA reductions turn bus-level "
               "design-space sweeps into declarative batches.\n";
  return 0;
}
