// statistical_study: ScenarioEngine::run_statistical on the 16x128 paper
// bus, one caller taking the next contiguous 8-sample range per request.
#include <cmath>
#include <map>
#include <sstream>

#include "circuit/crosstalk.hpp"
#include "core/electrostatics.hpp"
#include "core/multiscale.hpp"
#include "harness.hpp"
#include "mna_probe.hpp"
#include "rom/parametrized_rom.hpp"
#include "scenario/engine.hpp"
#include "scenario/statistical.hpp"

namespace perfbench {
namespace {

namespace circuit = cnti::circuit;
namespace core = cnti::core;
namespace obs = cnti::obs;
namespace rom = cnti::rom;
namespace scenario = cnti::scenario;

constexpr int kThreads = 2;
constexpr std::uint64_t kSamplesPerRequest = 8;
constexpr int kSteps = 600;
/// Samples checked against full MNA per run (~1 s each).
constexpr int kMnaProbes = 2;
/// Sample points timed directly on the ROM for model_at / evaluate.
constexpr std::uint64_t kRomProbes = 16;
/// Steps of the full-MNA transient timed for the circuit and numerics
/// layers: one paper_bus_transient request.
constexpr int kMnaProbeSteps = 200;
/// The statistical ROM's acceptance gate against full MNA.
constexpr double kTolerance = 0.01;

scenario::Scenario study_scenario(std::uint64_t seed) {
  scenario::Scenario s;
  s.label = "paper-bus-statistical";
  s.workload.bus_lines = 16;
  s.workload.bus_segments = 128;
  s.workload.coupling_cap_af_per_um = 30.0;
  s.analysis.noise = true;
  s.analysis.noise_model = scenario::NoiseModel::kReducedOrder;
  s.analysis.time_steps = kSteps;
  s.variability.seed = seed;
  s.variability.samples = 1'000'000'000;  // ranges never run out
  s.variability.resistance_span = 0.15;
  s.variability.capacitance_span = 0.10;
  s.variability.coupling_span = 0.20;
  return s;
}

class StatisticalWorkload final : public Workload {
 public:
  explicit StatisticalWorkload(std::uint64_t seed)
      : seed_(seed), scenario_(study_scenario(seed)) {
    // The nominal bus the engine derives from the scenario, rebuilt from
    // the core stage functions for the full-MNA reference.
    const core::MultiscaleInput in = scenario::to_multiscale_input(scenario_);
    const core::ChannelStage channels = core::doping_channel_stage(
        scenario_.tech.dopant, scenario_.tech.dopant_concentration);
    const core::MwcntLine line(core::multiscale_line_spec(
        in, channels,
        core::environment_capacitance(scenario_.tech.environment)));
    nominal_ = scenario::to_bus_topology(scenario_, line);
    drive_ = scenario::to_bus_drive(scenario_);
  }

  std::string request_description() const override {
    return "run_statistical over the next 8 samples of a 600-step study on "
           "the 16x128 paper bus (+-15/10/20 % R/C/coupling, pool of 2 "
           "threads)";
  }

  void setup() override {
    log_.clear();
    scenario::EngineOptions options;
    options.sweep.threads = kThreads;
    engine_ = std::make_unique<scenario::ScenarioEngine>(options);
    // Warm-up request: builds the corner-anchored ROM.
    run_range(0);
  }

  void request(int, std::uint64_t index) override {
    log_.push_back(run_range((index + 1) * kSamplesPerRequest));
  }

  std::uint64_t check(double reference_skew) override {
    std::uint64_t failed = 0;
    std::vector<bool> bad(log_.size(), false);
    for (std::size_t r = 0; r < log_.size(); ++r) {
      const scenario::StatisticalShard& sh = log_[r];
      bool ok = sh.end - sh.begin == kSamplesPerRequest &&
                sh.noise_v.size() == kSamplesPerRequest &&
                sh.delay_s.size() == kSamplesPerRequest;
      for (std::size_t i = 0; ok && i < sh.noise_v.size(); ++i) {
        ok = std::isfinite(sh.noise_v[i]) && std::isfinite(sh.delay_s[i]) &&
             std::abs(sh.noise_v[i]) < drive_.vdd_v;
      }
      bad[r] = !ok;
    }
    InputRng pick(seed_, 7);
    for (int p = 0; p < kMnaProbes && !log_.empty(); ++p) {
      const std::size_t r = static_cast<std::size_t>(
          pick.index(static_cast<int>(log_.size())));
      const std::size_t i = static_cast<std::size_t>(
          pick.index(static_cast<int>(kSamplesPerRequest)));
      const scenario::StatisticalShard& sh = log_[r];
      if (bad[r] || i >= sh.noise_v.size()) continue;
      const circuit::BusCrosstalkResult& ref = full_mna(sh.begin + i);
      if (!within(sh.noise_v[i], ref.peak_noise_v * reference_skew,
                  kTolerance) ||
          !within(sh.delay_s[i], ref.aggressor_delay_s * reference_skew,
                  kTolerance)) {
        bad[r] = true;
      }
    }
    for (bool b : bad) failed += b ? 1 : 0;
    return failed;
  }

  std::uint64_t traced_requests() const override { return 16; }

  void layers(const TracedPhase& phase, Layers& out) override {
    // Evaluate time on the critical path: the pool's two threads share it.
    out["scenario.statistical_self_ms"] =
        phase.request_ms -
        phase.registry->hist_sum_ms("cnti.rom.evaluate_ns") /
            static_cast<double>(phase.requests) / kThreads;

    // The same corner-anchored ROM the engine caches, built here so its
    // blend and evaluation can be timed directly.
    const rom::ParametrizedBusRom prom(
        nominal_, scenario::tech_box(scenario_.variability), drive_.aggressor);
    out["rom.order"] = prom.order();
    rom::BusScenario sc;
    sc.driver_ohm = drive_.driver_ohm;
    sc.receiver_load_f = drive_.receiver_load_f;
    sc.vdd_v = drive_.vdd_v;
    sc.edge_time_s = drive_.edge_time_s;
    std::vector<double> model_ms, eval_ms;
    for (std::uint64_t id = 0; id < kRomProbes; ++id) {
      const rom::BusTechPoint p =
          scenario::sample_tech_point(scenario_.variability, id);
      Clock::time_point t0 = Clock::now();
      const rom::ReducedModel m = prom.model_at(p);
      model_ms.push_back(elapsed_ms(t0));
      t0 = Clock::now();
      prom.evaluate(p, sc, kSteps);
      eval_ms.push_back(elapsed_ms(t0));
    }
    out["rom.model_at_ms"] = median(model_ms);
    out["rom.evaluate_ms"] = median(eval_ms);

    // The timed loop runs no MNA transient; its check runs them on this
    // bus. One is measured here so the circuit and numerics layers are
    // reported by a gated workload (see perfbench/README.md).
    probe_mna_transient(nominal_, drive_, kMnaProbeSteps, out);
  }

  std::string describe_inputs(std::uint64_t count) const override {
    std::ostringstream out;
    out.precision(17);
    for (std::uint64_t id = 0; id < count; ++id) {
      const rom::BusTechPoint p =
          scenario::sample_tech_point(scenario_.variability, id);
      out << p.resistance_scale << ' ' << p.capacitance_scale << ' '
          << p.coupling_scale << '\n';
    }
    return out.str();
  }

 private:
  scenario::StatisticalShard run_range(std::uint64_t begin) const {
    const obs::ObsSpan span("perfbench.run_statistical", "perfbench");
    return engine_->run_statistical(scenario_, begin,
                                    begin + kSamplesPerRequest);
  }

  /// Full sparse-MNA transient of one sample's technology (memoized: the
  /// traced run checks the same samples twice).
  const circuit::BusCrosstalkResult& full_mna(std::uint64_t sample_id) {
    auto it = mna_.find(sample_id);
    if (it == mna_.end()) {
      const rom::BusTechPoint p =
          scenario::sample_tech_point(scenario_.variability, sample_id);
      circuit::BusTopology t = nominal_;
      t.line.resistance_per_m *= p.resistance_scale;
      t.line.capacitance_per_m *= p.capacitance_scale;
      t.coupling_cap_per_m *= p.coupling_scale;
      it = mna_.emplace(sample_id, circuit::analyze_bus_crosstalk(
                                       circuit::build_bus_netlist(t), t,
                                       drive_, kSteps))
               .first;
    }
    return it->second;
  }

  std::uint64_t seed_;
  scenario::Scenario scenario_;
  circuit::BusTopology nominal_;
  circuit::BusDrive drive_;
  std::unique_ptr<scenario::ScenarioEngine> engine_;
  std::vector<scenario::StatisticalShard> log_;
  std::map<std::uint64_t, circuit::BusCrosstalkResult> mna_;
};

}  // namespace

std::unique_ptr<Workload> make_statistical_study(std::uint64_t seed) {
  return std::make_unique<StatisticalWorkload>(seed);
}

}  // namespace perfbench
