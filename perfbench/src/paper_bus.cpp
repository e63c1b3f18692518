// paper_bus_transient: four closed-loop callers running full sparse-MNA
// crosstalk transients against one bare bus netlist built once.
#include <map>
#include <optional>
#include <sstream>

#include "circuit/crosstalk.hpp"
#include "core/mwcnt_line.hpp"
#include "harness.hpp"
#include "mna_probe.hpp"
#include "rom/parametrized_rom.hpp"

namespace perfbench {
namespace {

namespace circuit = cnti::circuit;
namespace obs = cnti::obs;
namespace rom = cnti::rom;

constexpr int kLines = 16;
constexpr int kSegments = 128;
constexpr int kSteps = 200;
/// Callers sharing the prebuilt netlist. analyze_bus_crosstalk takes it by
/// value, so each request works on its own copy; several callers average
/// the run over CPUs instead of riding one CPU's slow and fast phases.
constexpr int kCallers = 4;

/// ROM and MNA agree far tighter than this (~1e-5); 1 % is the
/// repository's ROM-vs-MNA acceptance gate.
constexpr double kTolerance = 0.01;

class PaperBusWorkload final : public Workload {
 public:
  explicit PaperBusWorkload(std::uint64_t seed) : seed_(seed) {
    topology_.line = cnti::core::make_paper_mwcnt(10, 4.0, 20e3).rlc();
    topology_.coupling_cap_per_m = 30e-12;
    topology_.length_m = 100e-6;
    topology_.lines = kLines;
    topology_.segments = kSegments;
  }

  int callers() const override { return kCallers; }

  std::string request_description() const override {
    return "analyze_bus_crosstalk on the prebuilt 16x128 paper-MWCNT bus "
           "(2098 unknowns), 200 steps, seed-drawn driver, load and "
           "aggressor, over one of 4 callers";
  }

  void setup() override {
    logs_.assign(kCallers, {});
    bare_.reset();
    const Clock::time_point t0 = Clock::now();
    {
      const obs::ObsSpan span("perfbench.build_bus_netlist", "perfbench");
      bare_ = circuit::build_bus_netlist(topology_);
    }
    build_ms_ = elapsed_ms(t0);
    analyze(drive_for(kWarmupStream), kSteps);
  }

  void request(int caller, std::uint64_t index) override {
    const circuit::BusDrive drive = drive_for(stream(caller, index));
    logs_[static_cast<std::size_t>(caller)].push_back(
        {drive, analyze(drive, kSteps)});
  }

  std::uint64_t check(double reference_skew) override {
    std::uint64_t failed = 0;
    for (const std::vector<Record>& log : logs_) {
      for (const Record& r : log) {
        rom::BusScenario sc;
        sc.driver_ohm = r.drive.driver_ohm;
        sc.receiver_load_f = r.drive.receiver_load_f;
        sc.vdd_v = r.drive.vdd_v;
        sc.edge_time_s = r.drive.edge_time_s;
        const circuit::BusCrosstalkResult ref =
            reference_rom(r.drive.aggressor).evaluate({}, sc, kSteps);
        if (!within(r.result.peak_noise_v, ref.peak_noise_v * reference_skew,
                    kTolerance) ||
            !within(r.result.aggressor_delay_s,
                    ref.aggressor_delay_s * reference_skew, kTolerance)) {
          ++failed;
        }
      }
    }
    return failed;
  }

  std::uint64_t traced_requests() const override { return 8; }

  void layers(const TracedPhase& phase, Layers& out) override {
    out["circuit.netlist_build_ms"] = build_ms_;
    out["circuit.self_ms"] =
        phase.request_ms - out["numerics.factor_ms"] - out["numerics.solve_ms"];
    fit_step_cost(*bare_, topology_, drive_for(stream(0, 0)), kSteps, out);
  }

  std::string describe_inputs(std::uint64_t count) const override {
    std::ostringstream out;
    out.precision(17);
    for (std::uint64_t i = 0; i < count; ++i) {
      const circuit::BusDrive d = drive_for(stream(0, i));
      out << d.driver_ohm << ' ' << d.receiver_load_f << ' ' << d.aggressor
          << '\n';
    }
    return out.str();
  }

 private:
  static constexpr std::uint64_t kWarmupStream = 999;

  struct Record {
    circuit::BusDrive drive;
    circuit::BusCrosstalkResult result;
  };

  /// Request `index` of `caller` draws from its own input stream.
  static std::uint64_t stream(int caller, std::uint64_t index) {
    return 1000 + index * kCallers + static_cast<std::uint64_t>(caller);
  }

  circuit::BusDrive drive_for(std::uint64_t stream) const {
    InputRng rng(seed_, stream);
    circuit::BusDrive d;
    d.driver_ohm = rng.uniform(2e3, 10e3);
    d.receiver_load_f = rng.uniform(0.1e-15, 1e-15);
    d.aggressor = rng.index(kLines);
    return d;
  }

  circuit::BusCrosstalkResult analyze(const circuit::BusDrive& drive,
                                      int steps) const {
    const obs::ObsSpan span("perfbench.analyze_bus_crosstalk", "perfbench");
    return circuit::analyze_bus_crosstalk(*bare_, topology_, drive, steps);
  }

  /// Degenerate-box parametrized ROM of the same bus: an independent
  /// (reduced-order) path to the same transient, reduced once per aggressor.
  const rom::ParametrizedBusRom& reference_rom(int aggressor) {
    auto it = roms_.find(aggressor);
    if (it == roms_.end()) {
      it = roms_
               .emplace(aggressor, std::make_unique<rom::ParametrizedBusRom>(
                                       topology_, rom::BusTechBox{}, aggressor))
               .first;
    }
    return *it->second;
  }

  std::uint64_t seed_;
  circuit::BusTopology topology_;
  std::optional<circuit::BusNetlist> bare_;
  double build_ms_ = 0.0;
  std::vector<std::vector<Record>> logs_;
  std::map<int, std::unique_ptr<rom::ParametrizedBusRom>> roms_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_bus_transient(std::uint64_t seed) {
  return std::make_unique<PaperBusWorkload>(seed);
}

}  // namespace perfbench
