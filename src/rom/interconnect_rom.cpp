#include "rom/interconnect_rom.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "numerics/interp.hpp"
#include "obs/obs.hpp"
#include "rom/detail.hpp"

namespace cnti::rom {

namespace {

using circuit::BusConfig;
using circuit::BusCrosstalkResult;

/// Builds the reduced model for the bare bus with head/far ports. The
/// descriptor system and the per-line head/far state indices are written
/// to the output parameters for BusRom::full_system / preconditioner.
ReducedModel reduce_bus(const BusConfig& cfg, PrimaOptions opt,
                        StateSpace& ss_out,
                        std::vector<std::size_t>& head_states,
                        std::vector<std::size_t>& far_states) {
  BusStateSpace bss = extract_bus_state_space(cfg.topology());
  ss_out = std::move(bss.ss);
  head_states = std::move(bss.head_states);
  far_states = std::move(bss.far_states);

  if (opt.order <= 0) {
    // Default budget: three block moments' worth of columns (ports at both
    // ends of every line), capped well below the full order so the
    // reduction stays a reduction. Empirically this holds the 16 x 128
    // paper bus to ~1e-4 % noise/delay error vs the full transient.
    opt.order = std::min(6 * cfg.lines, ss_out.size / 2);
  }
  if (opt.expansion_rad_per_s <= 0.0) {
    // The bare network is held up only by g_min (the drivers that ground
    // it are attached per scenario), so expand about the analysis window's
    // corner frequency instead of DC.
    opt.expansion_rad_per_s = 20.0 / circuit::bus_settle_time_s(cfg);
  }
  opt.keep_basis = true;  // preconditioner() needs V
  return prima_reduce(ss_out, opt);
}

}  // namespace

BusStateSpace extract_bus_state_space(const circuit::BusTopology& topology) {
  circuit::BusNetlist bus = circuit::build_bus_netlist(topology);
  StateSpaceOptions ss_opt;
  ss_opt.include_sources = false;  // the bare bus has none
  for (int l = 0; l < topology.lines; ++l) {
    ss_opt.ports.push_back(
        {"head" + std::to_string(l), bus.head[static_cast<std::size_t>(l)]});
  }
  for (int l = 0; l < topology.lines; ++l) {
    ss_opt.ports.push_back(
        {"far" + std::to_string(l), bus.far[static_cast<std::size_t>(l)]});
  }
  BusStateSpace out;
  out.ss = extract_state_space(bus.ckt, ss_opt);
  for (int l = 0; l < topology.lines; ++l) {
    out.head_states.push_back(
        static_cast<std::size_t>(bus.head[static_cast<std::size_t>(l)] - 1));
    out.far_states.push_back(
        static_cast<std::size_t>(bus.far[static_cast<std::size_t>(l)] - 1));
  }
  return out;
}

ReducedModel terminate_bare_bus(const ReducedModel& bare, int lines,
                                int aggressor, const BusScenario& sc) {
  CNTI_EXPECTS(sc.driver_ohm > 0, "BusRom: driver resistance must be > 0");
  CNTI_EXPECTS(sc.receiver_load_f >= 0, "BusRom: load must be >= 0");
  CNTI_EXPECTS(aggressor >= 0 && aggressor < lines,
               "BusRom: aggressor index out of range");
  CNTI_EXPECTS(bare.inputs() >= 2 * lines && bare.outputs() >= 2 * lines,
               "BusRom: bare model is missing head/far ports");
  const int nl = lines;

  // Terminations: every head sees its driver's output conductance (the
  // aggressor's Thevenin source becomes a Norton drive at the same port),
  // every far end its receiver load. Port k is input k and output k by
  // construction in extract_bus_state_space.
  std::vector<PortTermination> loads;
  loads.reserve(static_cast<std::size_t>(2 * nl));
  for (int l = 0; l < nl; ++l) {
    loads.push_back({l, l, 1.0 / sc.driver_ohm, 0.0});
  }
  for (int l = 0; l < nl; ++l) {
    loads.push_back({nl + l, nl + l, 0.0, sc.receiver_load_f});
  }
  numerics::MatrixD g = bare.gr();
  numerics::MatrixD c = bare.cr();
  detail::fold_terminations(g, c, bare.br(), bare.lr(), loads);

  // Only the aggressor head is driven and only the far ends are read, so
  // the driven model keeps just that input column and those outputs.
  const std::size_t q = g.rows();
  numerics::MatrixD b(q, 1);
  numerics::MatrixD l_far(q, static_cast<std::size_t>(nl));
  for (std::size_t i = 0; i < q; ++i) {
    b(i, 0) = bare.br()(i, static_cast<std::size_t>(aggressor));
    for (int l = 0; l < nl; ++l) {
      l_far(i, static_cast<std::size_t>(l)) =
          bare.lr()(i, static_cast<std::size_t>(nl + l));
    }
  }
  return ReducedModel(
      std::move(g), std::move(c), std::move(b), std::move(l_far),
      {bare.input_names()[static_cast<std::size_t>(aggressor)]},
      std::vector<std::string>(bare.output_names().begin() + nl,
                               bare.output_names().begin() + 2 * nl),
      bare.full_order());
}

BusCrosstalkResult evaluate_driven_bus(const ReducedModel& driven,
                                       int aggressor, const BusScenario& sc,
                                       double t_stop_s, int time_steps) {
  CNTI_EXPECTS(time_steps >= 2, "BusRom: need at least two time steps");
  const int nl = driven.outputs();
  CNTI_EXPECTS(aggressor >= 0 && aggressor < nl,
               "BusRom: aggressor index out of range");
  CNTI_EXPECTS(driven.inputs() == 1,
               "BusRom: driven model needs exactly the aggressor input");
  static const obs::Counter evaluations = obs::counter("cnti.rom.evaluations");
  static const obs::Histogram eval_hist =
      obs::histogram("cnti.rom.evaluate_ns");
  evaluations.add();
  const obs::ObsSpan eval_span("rom.evaluate", "rom", eval_hist);

  // Norton drive: i(t) = v_edge(t) / R_driver into the aggressor head.
  circuit::PulseWave edge = circuit::bus_edge_wave(sc.vdd_v, sc.edge_time_s);
  edge.v2 /= sc.driver_ohm;
  const ReducedModel::Transient tr =
      driven.simulate({edge}, t_stop_s, t_stop_s / time_steps);

  BusCrosstalkResult out;
  out.unknowns = driven.order();
  out.worst_victim = aggressor == 0 ? 1 : 0;
  for (int l = 0; l < nl; ++l) {
    if (l == aggressor) continue;
    const auto& vn = tr.outputs[static_cast<std::size_t>(l)];
    for (std::size_t i = 0; i < tr.time.size(); ++i) {
      if (std::abs(vn[i]) > std::abs(out.peak_noise_v)) {
        out.peak_noise_v = vn[i];
        out.peak_time_s = tr.time[i];
        out.worst_victim = l;
      }
    }
  }
  // Same sentinel policy as analyze_bus_crosstalk: never-crossed is a
  // quiet NaN, not a negative delay.
  const double crossing = numerics::first_crossing_time(
      tr.time, tr.outputs[static_cast<std::size_t>(aggressor)],
      sc.vdd_v / 2.0, /*rising=*/true);
  out.aggressor_delay_s =
      crossing < 0.0 ? std::numeric_limits<double>::quiet_NaN() : crossing;
  return out;
}

BusRom::BusRom(const BusConfig& config, PrimaOptions options)
    : config_(config),
      aggressor_(config.aggressor < 0 ? config.lines / 2 : config.aggressor),
      rom_(reduce_bus(config, options, ss_, head_states_, far_states_)) {
  CNTI_EXPECTS(aggressor_ >= 0 && aggressor_ < config_.lines,
               "BusRom: aggressor index out of range");
}

BusRom::BusRom(const circuit::BusTopology& topology, int aggressor,
               PrimaOptions options)
    : BusRom(circuit::make_bus_config(topology,
                                      circuit::BusDrive{.aggressor =
                                                            aggressor}),
             options) {}

double BusRom::nominal_shift_rad_per_s() const {
  return 20.0 / circuit::bus_settle_time_s(config_);
}

BusSystem BusRom::full_system(const BusScenario& sc, double s) const {
  CNTI_EXPECTS(sc.driver_ohm > 0, "BusRom: driver resistance must be > 0");
  CNTI_EXPECTS(sc.receiver_load_f >= 0, "BusRom: load must be >= 0");
  CNTI_EXPECTS(s >= 0, "BusRom: shift must be >= 0");
  const std::size_t n = static_cast<std::size_t>(ss_.size);

  // A = G + s C over the bare pattern, then the scenario's terminations on
  // the port diagonals — the same network evaluate() folds into the
  // reduced matrices, assembled at full order.
  numerics::SparseBuilder b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t t = ss_.g.row_ptr()[r]; t < ss_.g.row_ptr()[r + 1];
         ++t) {
      b.add(r, ss_.g.col_indices()[t], ss_.g.values()[t]);
    }
  }
  if (s != 0.0) {
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t t = ss_.c.row_ptr()[r]; t < ss_.c.row_ptr()[r + 1];
           ++t) {
        b.add(r, ss_.c.col_indices()[t], s * ss_.c.values()[t]);
      }
    }
  }
  const double g_drv = 1.0 / sc.driver_ohm;
  for (const std::size_t h : head_states_) b.add(h, h, g_drv);
  if (sc.receiver_load_f > 0.0 && s != 0.0) {
    for (const std::size_t f : far_states_) {
      b.add(f, f, s * sc.receiver_load_f);
    }
  }

  BusSystem sys;
  sys.a = b.build();
  sys.rhs.assign(n, 0.0);
  // Norton drive: the aggressor's settled Thevenin source vdd behind
  // R_driver injects vdd / R_driver at its head port.
  sys.rhs[head_states_[static_cast<std::size_t>(aggressor_)]] =
      sc.vdd_v * g_drv;
  return sys;
}

BusScenario BusRom::nominal_scenario() const {
  BusScenario sc;
  sc.driver_ohm = config_.driver_ohm;
  sc.receiver_load_f = config_.receiver_load_f;
  sc.vdd_v = config_.vdd_v;
  sc.edge_time_s = config_.edge_time_s;
  return sc;
}

double BusRom::window_s(const BusScenario& sc) const {
  // Same window/grid as the full transient of the matching BusConfig —
  // every scenario field that enters the settle estimate (driver strength,
  // edge time *and receiver load*) is propagated.
  circuit::BusDrive drive;
  drive.aggressor = aggressor_;
  drive.driver_ohm = sc.driver_ohm;
  drive.vdd_v = sc.vdd_v;
  drive.edge_time_s = sc.edge_time_s;
  drive.receiver_load_f = sc.receiver_load_f;
  return circuit::bus_settle_time_s(config_.topology(), drive);
}

BusCrosstalkResult BusRom::evaluate(const BusScenario& sc,
                                    int time_steps) const {
  return evaluate_driven_bus(
      terminate_bare_bus(rom_, config_.lines, aggressor_, sc), aggressor_, sc,
      window_s(sc), time_steps);
}

}  // namespace cnti::rom
