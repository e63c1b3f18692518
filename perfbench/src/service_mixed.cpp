// service_mixed: an in-process ScenarioServer over a DiskCache, driven by
// three ScenarioClient connections with a mixed repeat/new-drive/
// new-topology scenario stream.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <sstream>

#include "harness.hpp"
#include "service/client.hpp"
#include "service/disk_cache.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace perfbench {
namespace {

namespace obs = cnti::obs;
namespace scenario = cnti::scenario;
namespace service = cnti::service;

constexpr int kClients = 3;
constexpr int kScenariosPerRequest = 8;
constexpr int kEngineThreads = 2;
/// Topologies warmed in setup.
constexpr int kWarmTopologies = 4;
/// Each block of 20 scenarios holds exactly 14 repeats, 5 new drives on a
/// warmed topology and 1 new topology (70/25/5 %), in seed-shuffled order:
/// a fixed mix keeps the work per run steady across seeds.
constexpr std::array<char, 20> kBlock = {'R', 'R', 'R', 'R', 'R', 'R', 'R',
                                         'R', 'R', 'R', 'R', 'R', 'R', 'R',
                                         'D', 'D', 'D', 'D', 'D', 'T'};
/// Codec timing repetitions over the traced payloads.
constexpr int kCodecReps = 5;

scenario::Scenario base_scenario(double length_um) {
  scenario::Scenario s;
  s.workload.length_um = length_um;
  s.workload.bus_lines = 16;
  s.workload.bus_segments = 64;
  s.analysis.delay = true;
  s.analysis.noise = true;
  s.analysis.noise_model = scenario::NoiseModel::kReducedOrder;
  s.analysis.thermal = true;
  return s;
}

void draw_drive(InputRng& rng, scenario::Scenario& s) {
  s.workload.driver_resistance_kohm = rng.uniform(2.0, 20.0);
  s.workload.load_capacitance_ff = rng.uniform(0.1, 2.0);
}

/// The setup traffic shared by every caller's history: two drives on each
/// warmed topology before the restart, one more after it.
struct WarmSet {
  std::vector<double> lengths_um;
  std::vector<scenario::Scenario> before_restart, after_restart;
};

WarmSet warm_set(std::uint64_t seed) {
  InputRng rng(seed, 50);
  WarmSet w;
  for (int t = 0; t < kWarmTopologies; ++t) {
    w.lengths_um.push_back(rng.uniform(60.0, 140.0));
  }
  for (int pass = 0; pass < 3; ++pass) {
    for (int t = 0; t < kWarmTopologies; ++t) {
      scenario::Scenario s = base_scenario(w.lengths_um[t]);
      draw_drive(rng, s);
      s.label = "warm-" + std::to_string(pass) + "-" + std::to_string(t);
      (pass < 2 ? w.before_restart : w.after_restart).push_back(s);
    }
  }
  return w;
}

/// One caller's deterministic scenario stream.
class ScenarioStream {
 public:
  ScenarioStream(std::uint64_t seed, int caller, const WarmSet& warm)
      : rng_(seed, 100 + static_cast<std::uint64_t>(caller)),
        caller_(caller),
        warm_lengths_(warm.lengths_um) {
    history_ = warm.before_restart;
    history_.insert(history_.end(), warm.after_restart.begin(),
                    warm.after_restart.end());
  }

  scenario::Scenario next() {
    if (pos_ == block_.size()) {
      block_ = kBlock;
      for (std::size_t i = block_.size() - 1; i > 0; --i) {
        std::swap(block_[i], block_[static_cast<std::size_t>(
                                 rng_.index(static_cast<int>(i + 1)))]);
      }
      pos_ = 0;
    }
    const char kind = block_[pos_++];
    if (kind == 'R') {
      return history_[static_cast<std::size_t>(
          rng_.index(static_cast<int>(history_.size())))];
    }
    scenario::Scenario s = base_scenario(
        kind == 'D' ? warm_lengths_[static_cast<std::size_t>(
                          rng_.index(kWarmTopologies))]
                    : rng_.uniform(40.0, 160.0));
    draw_drive(rng_, s);
    s.label = "c" + std::to_string(caller_) + "-" + std::to_string(serial_++);
    history_.push_back(s);
    return s;
  }

 private:
  InputRng rng_;
  int caller_;
  std::vector<double> warm_lengths_;
  std::vector<scenario::Scenario> history_;
  std::array<char, 20> block_{};
  std::size_t pos_ = kBlock.size();
  std::uint64_t serial_ = 0;
};

class ServiceWorkload final : public Workload {
 public:
  ServiceWorkload(std::uint64_t seed, std::string work_dir)
      : seed_(seed), work_dir_(std::move(work_dir)), warm_(warm_set(seed)) {}

  ~ServiceWorkload() override { teardown(); }
  ServiceWorkload(const ServiceWorkload&) = delete;
  ServiceWorkload& operator=(const ServiceWorkload&) = delete;

  int callers() const override { return kClients; }

  std::string request_description() const override {
    return "a run of 8 scenarios (16x64 bus, ROM noise, Elmore delay, "
           "thermal) over one of 3 client connections";
  }

  // Fresh cache directory; a first server computes the warm set into it and
  // stops; a second server restarts on the same directory (later repeats of
  // the warm set are disk hits) and re-reduces the warmed topologies.
  void setup() override {
    teardown();
    dir_ = work_dir_ + "/service-" + std::to_string(::getpid()) + "-" +
           std::to_string(setups_++);
    std::filesystem::remove_all(dir_);
    {
      service::ScenarioServer first(server_options());
      first.start();
      service::ScenarioClient(first.port()).run(warm_.before_restart);
      first.stop();
    }
    server_ = std::make_unique<service::ScenarioServer>(server_options());
    server_->start();
    service::ScenarioClient(server_->port()).run(warm_.after_restart);
    for (int c = 0; c < kClients; ++c) {
      clients_.push_back(
          std::make_unique<service::ScenarioClient>(server_->port()));
      streams_.emplace_back(seed_, c, warm_);
    }
    logs_.assign(kClients, {});
  }

  void request(int caller, std::uint64_t) override {
    const auto c = static_cast<std::size_t>(caller);
    Record r;
    for (int i = 0; i < kScenariosPerRequest; ++i) {
      r.scenarios.push_back(streams_[c].next());
    }
    {
      const obs::ObsSpan span("perfbench.client_run", "perfbench");
      r.results = clients_[c]->run(r.scenarios);
    }
    logs_[c].push_back(std::move(r));
  }

  std::uint64_t check(double reference_skew) override {
    std::uint64_t failed = 0;
    for (const std::vector<Record>& log : logs_) {
      for (const Record& r : log) {
        bool ok = r.results.size() == r.scenarios.size();
        for (std::size_t i = 0; ok && i < r.scenarios.size(); ++i) {
          scenario::ScenarioResult ref = server_->engine().run(r.scenarios[i]);
          if (ref.noise) ref.noise->peak_noise_v *= reference_skew;
          ok = service::result_to_json(r.results[i]) ==
               service::result_to_json(ref);
        }
        failed += ok ? 0 : 1;
      }
    }
    return failed;
  }

  std::uint64_t traced_requests() const override { return 90; }

  void layers(const TracedPhase&, Layers& out) override {
    // Client-side codec cost on this run's payloads, per request.
    std::vector<std::string> result_lines;
    std::size_t records = 0;
    for (const std::vector<Record>& log : logs_) {
      for (const Record& r : log) {
        ++records;
        for (const scenario::ScenarioResult& res : r.results) {
          result_lines.push_back(service::result_to_json(res));
        }
      }
    }
    std::vector<double> encode_ms, decode_ms;
    std::size_t sink = 0;
    for (int rep = 0; rep < kCodecReps; ++rep) {
      Clock::time_point t0 = Clock::now();
      for (const std::vector<Record>& log : logs_) {
        for (const Record& r : log) {
          for (const scenario::Scenario& s : r.scenarios) {
            sink += service::scenario_to_json(s).size();
          }
        }
      }
      encode_ms.push_back(elapsed_ms(t0) / static_cast<double>(records));
      t0 = Clock::now();
      for (const std::string& line : result_lines) {
        sink += service::result_from_json(service::parse_json(line))
                    .label.size();
      }
      decode_ms.push_back(elapsed_ms(t0) / static_cast<double>(records));
    }
    if (sink == 0) throw std::logic_error("codec timing produced nothing");
    out["service.encode_ms"] = median(encode_ms);
    out["service.decode_ms"] = median(decode_ms);
  }

  std::string describe_inputs(std::uint64_t count) const override {
    ScenarioStream stream(seed_, 0, warm_);
    std::ostringstream out;
    for (std::uint64_t i = 0; i < count; ++i) {
      out << service::scenario_to_json(stream.next()) << '\n';
    }
    return out.str();
  }

 private:
  struct Record {
    std::vector<scenario::Scenario> scenarios;
    std::vector<scenario::ScenarioResult> results;
  };

  service::ServerOptions server_options() const {
    service::ServerOptions o;
    o.engine.tier = std::make_shared<service::DiskCache>(
        service::DiskCacheOptions{.dir = dir_});
    o.engine.sweep.threads = kEngineThreads;
    return o;
  }

  void teardown() {
    clients_.clear();
    streams_.clear();
    if (server_) server_->stop();
    server_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
    dir_.clear();
  }

  std::uint64_t seed_;
  std::string work_dir_;
  WarmSet warm_;
  std::string dir_;
  int setups_ = 0;
  std::unique_ptr<service::ScenarioServer> server_;
  std::vector<std::unique_ptr<service::ScenarioClient>> clients_;
  std::vector<ScenarioStream> streams_;
  std::vector<std::vector<Record>> logs_;
};

}  // namespace

std::unique_ptr<Workload> make_service_mixed(std::uint64_t seed,
                                             std::string work_dir) {
  return std::make_unique<ServiceWorkload>(seed, std::move(work_dir));
}

}  // namespace perfbench
