#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace obs = cnti::obs;

InputRng::InputRng(std::uint64_t seed, std::uint64_t stream)
    : state_(seed * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL) {}

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double InputRng::uniform(double lo, double hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

int InputRng::index(int n) {
  return static_cast<int>(next() % static_cast<std::uint64_t>(n));
}

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kLayerMetrics = {
    {"circuit.per_step_ms", "ms"},
    {"circuit.per_pattern_ms", "ms"},
    {"circuit.self_ms", "ms"},
    {"circuit.netlist_build_ms", "ms"},
    {"numerics.factorizations", "count"},
    {"numerics.refactorizations", "count"},
    {"numerics.solves", "count"},
    {"numerics.repivot_fallbacks", "count"},
    {"numerics.factor_ms", "ms"},
    {"numerics.solve_ms", "ms"},
    {"numerics.nnz_lu", "count"},
    {"numerics.pool_queue_wait_ms", "ms"},
    {"rom.reductions", "count"},
    {"rom.reduce_ms", "ms"},
    {"rom.order", "count"},
    {"rom.model_at_ms", "ms"},
    {"rom.evaluate_ms", "ms"},
    {"rom.evaluations", "count"},
    {"scenario.statistical_self_ms", "ms"},
    {"scenario.cache_hit_ratio", "ratio"},
    {"scenario.run_batch_ms", "ms"},
    {"scenario.scenarios_per_batch", "count"},
    {"service.server_request_ms", "ms"},
    {"service.wire_wait_ms", "ms"},
    {"service.encode_ms", "ms"},
    {"service.decode_ms", "ms"},
    {"service.disk_hits", "count"},
    {"service.disk_stores", "count"},
    {"service.disk_store_ms", "ms"},
    {"service.disk_load_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
};

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile of no samples");
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

double elapsed_ms(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

bool within(double got, double ref, double tol) {
  if (std::isnan(got) || std::isnan(ref)) {
    return std::isnan(got) && std::isnan(ref);
  }
  return std::abs(got - ref) <= tol * std::abs(ref);
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

std::optional<double> tail_percentile(const std::vector<double>& samples,
                                      int pct) {
  constexpr std::size_t kMinBeyond = 10;
  if (samples.size() * static_cast<std::size_t>(100 - pct) <
      kMinBeyond * 100) {
    return std::nullopt;
  }
  return quantile(samples, pct / 100.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

RegistryDelta::RegistryDelta(const obs::MetricsSnapshot& before,
                             const obs::MetricsSnapshot& after)
    : before_(before), after_(after) {}

namespace {

template <typename Map>
const typename Map::mapped_type* find(const Map& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? nullptr : &it->second;
}

}  // namespace

double RegistryDelta::counter(const std::string& name) const {
  const auto* a = find(after_.counters, name);
  const auto* b = find(before_.counters, name);
  return static_cast<double>((a ? *a : 0) - (b ? *b : 0));
}

double RegistryDelta::hist_count(const std::string& name) const {
  const auto* a = find(after_.histograms, name);
  const auto* b = find(before_.histograms, name);
  return static_cast<double>((a ? a->count : 0) - (b ? b->count : 0));
}

double RegistryDelta::hist_sum_ms(const std::string& name) const {
  const auto* a = find(after_.histograms, name);
  const auto* b = find(before_.histograms, name);
  return static_cast<double>((a ? a->sum_ns : 0) - (b ? b->sum_ns : 0)) /
         1e6;
}

double RegistryDelta::hist_mean_ms(const std::string& name) const {
  const double n = hist_count(name);
  return n > 0 ? hist_sum_ms(name) / n : 0.0;
}

double RegistryDelta::gauge(const std::string& name) const {
  const auto* a = find(after_.gauges, name);
  return a ? *a : 0.0;
}

void numerics_layers(const RegistryDelta& delta, double n, Layers& out) {
  const double factorizations = delta.counter("cnti.solver.factorizations");
  const double refactorizations =
      delta.counter("cnti.solver.refactorizations");
  out["numerics.factorizations"] = factorizations / n;
  out["numerics.refactorizations"] = refactorizations / n;
  out["numerics.solves"] = delta.counter("cnti.solver.solves") / n;
  out["numerics.repivot_fallbacks"] =
      delta.counter("cnti.solver.repivot_fallbacks") / n;
  out["numerics.factor_ms"] =
      (delta.hist_sum_ms("cnti.solver.factor_ns") +
       delta.hist_sum_ms("cnti.solver.factor_blocked_ns")) /
      n;
  out["numerics.solve_ms"] = delta.hist_sum_ms("cnti.solver.solve_ns") / n;
  if (factorizations + refactorizations > 0) {
    out["numerics.nnz_lu"] = delta.gauge("cnti.solver.nnz_lu");
  }
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_bus_transient", "statistical_study", "service_mixed"};
  return names;
}

std::unique_ptr<Workload> make_workload(const RunConfig& config) {
  if (config.workload == "paper_bus_transient") {
    return make_paper_bus_transient(config.seed);
  }
  if (config.workload == "statistical_study") {
    return make_statistical_study(config.seed);
  }
  if (config.workload == "service_mixed") {
    return make_service_mixed(config.seed, config.work_dir);
  }
  throw std::invalid_argument("unknown workload: " + config.workload);
}

namespace {

// An untraced run sets up at least kSetupRuns times and for at least
// kSetupSeconds before the timed loop, and as often again after the check,
// so a cheap setup is sampled often enough, and at both ends of the run,
// for a steady median; setup_s is that median.
constexpr int kSetupRuns = 2;
constexpr double kSetupSeconds = 1.5;

struct LoopResult {
  std::vector<double> latencies_ms;
  std::uint64_t attempted = 0;
  std::uint64_t raised = 0;
  double elapsed_s = 0.0;
  /// Peak RSS once `rss_after` requests had completed (or at the end).
  double rss_mb = 0.0;
};

/// Closed loop: each caller issues its next request when the previous one
/// returns. Runs for `seconds` (at least one request per caller) or, when
/// `fixed_requests` > 0, exactly that many requests split over the callers.
/// Peak RSS is read when `rss_after` requests have completed: a server's
/// caches grow with the requests it has served, so a time-bound run would
/// otherwise report more memory the faster it is.
LoopResult closed_loop(Workload& wl, double seconds,
                       std::uint64_t fixed_requests,
                       std::uint64_t rss_after = 0) {
  const int callers = wl.callers();
  const std::uint64_t per_caller =
      fixed_requests / static_cast<std::uint64_t>(callers);
  struct CallerLog {
    std::vector<double> latencies_ms;
    std::uint64_t raised = 0;
  };
  std::vector<CallerLog> logs(static_cast<std::size_t>(callers));
  std::atomic<std::uint64_t> completed{0};
  std::atomic<double> rss_mb{0.0};
  const Clock::time_point t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  const auto body = [&](int c) {
    CallerLog& log = logs[static_cast<std::size_t>(c)];
    for (std::uint64_t i = 0;; ++i) {
      if (fixed_requests > 0 ? i >= per_caller
                             : i > 0 && Clock::now() >= deadline) {
        break;
      }
      const Clock::time_point r0 = Clock::now();
      try {
        const obs::ObsSpan span("perfbench.request", "perfbench");
        wl.request(c, i);
      } catch (const std::exception& e) {
        if (log.raised++ == 0) {
          std::cerr << "request failed (caller " << c << "): " << e.what()
                    << "\n";
        }
      }
      log.latencies_ms.push_back(elapsed_ms(r0));
      if (++completed == rss_after) rss_mb = peak_rss_mb();
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < callers; ++c) threads.emplace_back(body, c);
  body(0);
  for (std::thread& t : threads) t.join();

  LoopResult out;
  out.elapsed_s = elapsed_ms(t0) / 1e3;
  for (const CallerLog& log : logs) {
    out.latencies_ms.insert(out.latencies_ms.end(), log.latencies_ms.begin(),
                            log.latencies_ms.end());
    out.raised += log.raised;
  }
  out.attempted = out.latencies_ms.size();
  out.rss_mb = rss_after > 0 && out.attempted >= rss_after ? rss_mb.load()
                                                            : peak_rss_mb();
  return out;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

std::string fmt(double v) {
  std::ostringstream out;
  out.precision(6);
  out << v;
  return out.str();
}

RunResult run_end_to_end(Workload& wl, const RunConfig& config) {
  RunResult result;
  std::vector<double> setups;
  const auto set_up = [&] {
    double total_s = 0.0;
    for (int i = 0; i < kSetupRuns || total_s < kSetupSeconds; ++i) {
      const Clock::time_point t0 = Clock::now();
      wl.setup();
      setups.push_back(elapsed_ms(t0) / 1e3);
      total_s += setups.back();
    }
  };
  set_up();
  const LoopResult loop =
      closed_loop(wl, config.seconds, 0, wl.traced_requests());
  result.attempted = loop.attempted;
  result.failed = loop.raised + wl.check(config.reference_skew);
  set_up();

  const double completed = static_cast<double>(loop.attempted - loop.raised);
  std::map<std::string, double> values = {
      {"throughput_per_s", completed / loop.elapsed_s},
      {"latency_p50_ms", median(loop.latencies_ms)},
      {"setup_s", median(setups)},
      {"peak_rss_mb", loop.rss_mb}};
  if (const auto p90 = tail_percentile(loop.latencies_ms, 90)) {
    values["latency_p90_ms"] = *p90;
  }
  for (const MetricSpec& m : kEndToEndMetrics) {
    if (const auto it = values.find(m.name); it != values.end()) {
      result.metrics[m.name] = {it->second, m.unit};
    }
  }

  result.notes.push_back("requests " + std::to_string(loop.attempted) +
                         " in " + fmt(loop.elapsed_s) + " s from " +
                         std::to_string(wl.callers()) + " closed-loop caller(s)");
  if (!values.count("latency_p90_ms")) {
    result.notes.push_back(
        "latency_p90_ms omitted: fewer than ten samples beyond p90");
  }
  result.notes.push_back(
      "error_rate " +
      fmt(static_cast<double>(result.failed) /
          static_cast<double>(result.attempted)) +
      " (" + std::to_string(result.failed) + " of " +
      std::to_string(result.attempted) + " failed)");
  std::string setup_line = "setup runs (s):";
  for (double s : setups) setup_line += " " + fmt(s);
  result.notes.push_back(setup_line);
  return result;
}

/// Sums the engine's memo-cache counters (`cnti.cache.<stage>.*`; the
/// disk tier's own `cnti.cache.disk.*` counters are not memo lookups).
double cache_hit_ratio(const obs::MetricsSnapshot& before,
                       const obs::MetricsSnapshot& after) {
  const RegistryDelta d(before, after);
  const std::string prefix = "cnti.cache.";
  double served = 0.0, lookups = 0.0;
  for (const auto& entry : after.counters) {
    const std::string& name = entry.first;
    if (name.rfind(prefix, 0) != 0 || name.rfind("cnti.cache.disk.", 0) == 0) {
      continue;
    }
    const auto ends_with = [&](std::string_view suffix) {
      return name.size() > suffix.size() &&
             name.compare(name.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
    };
    if (ends_with(".disk_hits") || ends_with(".hits")) {
      served += d.counter(name);
      lookups += d.counter(name);
    } else if (ends_with(".misses")) {
      lookups += d.counter(name);
    }
  }
  return lookups > 0 ? served / lookups : 0.0;
}

RunResult run_traced(Workload& wl, const RunConfig& config) {
  const std::uint64_t k = wl.traced_requests();
  RunResult result;

  wl.setup();
  const LoopResult base = closed_loop(wl, 0.0, k);
  std::uint64_t failed = base.raised + wl.check(config.reference_skew);

  obs::MetricsSnapshot s0, s1, s2;
  std::vector<obs::TraceEvent> events;
  LoopResult traced;
  std::uint64_t epoch_ns = 0, requests_t0_ns = 0;
  {
    obs::TraceSession session;
    epoch_ns = obs::now_ns();
    s0 = obs::metrics_snapshot();
    {
      const obs::ObsSpan span("perfbench.setup", "perfbench");
      wl.setup();
    }
    s1 = obs::metrics_snapshot();
    requests_t0_ns = obs::now_ns();
    traced = closed_loop(wl, 0.0, k);
    s2 = obs::metrics_snapshot();
    events = session.stop();
  }
  if (!config.trace_path.empty()) {
    std::ofstream out(config.trace_path);
    obs::write_trace_json(out, events, epoch_ns, /*include_metrics=*/true);
    if (!out) throw std::runtime_error("cannot write " + config.trace_path);
  }
  failed += traced.raised + wl.check(config.reference_skew);

  const RegistryDelta req(s1, s2), all(s0, s2);
  const double n = static_cast<double>(k);
  Layers l;
  for (const MetricSpec& m : kLayerMetrics) l[m.name] = 0.0;
  numerics_layers(req, n, l);
  l["numerics.pool_queue_wait_ms"] =
      req.hist_sum_ms("cnti.pool.queue_wait_ns") / n;
  l["rom.reductions"] = all.counter("cnti.rom.reductions");
  l["rom.reduce_ms"] = all.hist_mean_ms("cnti.rom.reduce_ns");
  if (l["rom.reductions"] > 0) l["rom.order"] = all.gauge("cnti.rom.basis_size");
  l["rom.evaluations"] = req.counter("cnti.rom.evaluations") / n;
  l["rom.evaluate_ms"] = req.hist_mean_ms("cnti.rom.evaluate_ns");
  l["scenario.cache_hit_ratio"] = cache_hit_ratio(s1, s2);
  std::vector<double> batch_ms;
  for (const obs::TraceEvent& e : events) {
    if (e.t0_ns >= requests_t0_ns &&
        std::string_view(e.name) == "engine.run_batch") {
      batch_ms.push_back(static_cast<double>(e.dur_ns) / 1e6);
    }
  }
  l["scenario.run_batch_ms"] = mean(batch_ms);
  if (req.counter("cnti.service.batches") > 0) {
    l["scenario.scenarios_per_batch"] =
        req.counter("cnti.service.scenarios") /
        req.counter("cnti.service.batches");
  }
  l["service.server_request_ms"] = req.hist_mean_ms("cnti.service.request_ns");
  if (l["service.server_request_ms"] > 0) {
    l["service.wire_wait_ms"] =
        mean(traced.latencies_ms) - l["service.server_request_ms"];
  }
  l["service.disk_hits"] = req.counter("cnti.cache.disk.hits") / n;
  l["service.disk_stores"] = req.counter("cnti.cache.disk.stores") / n;
  l["service.disk_store_ms"] = req.hist_mean_ms("cnti.cache.disk.store_ns");
  l["service.disk_load_ms"] = req.hist_mean_ms("cnti.cache.disk.load_ns");
  l["obs.trace_overhead_pct"] =
      (traced.elapsed_s / base.elapsed_s - 1.0) * 100.0;

  wl.layers({k, mean(traced.latencies_ms), &req}, l);

  result.attempted = base.attempted + traced.attempted;
  result.failed = failed;
  for (const MetricSpec& m : kLayerMetrics) {
    result.metrics[m.name] = {l.at(m.name), m.unit};
  }
  result.notes.push_back(
      "traced run: " + std::to_string(k) + " requests untraced in " +
      fmt(base.elapsed_s) + " s, then setup + " + std::to_string(k) +
      " requests traced in " + fmt(traced.elapsed_s) + " s; " +
      std::to_string(events.size()) + " trace events, " +
      std::to_string(obs::dropped_events()) + " dropped");
  return result;
}

}  // namespace

RunResult run(const RunConfig& config) {
  const std::unique_ptr<Workload> wl = make_workload(config);
  RunResult result =
      config.trace ? run_traced(*wl, config) : run_end_to_end(*wl, config);
  result.notes.insert(result.notes.begin(),
                      "workload " + config.workload + " seed " +
                          std::to_string(config.seed) + ": one request = " +
                          wl->request_description());
  return result;
}

std::string result_json(const RunResult& result) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << m.value << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
