// Benchmark harness: the closed-loop timing, the traced per-layer run and
// the result line shared by every workload (see perfbench/README.md).
//
// A run is one workload at one seed. The untraced run reports the
// end-to-end metrics: it sets up several times (setup_s is the median),
// then drives requests from `callers()` closed-loop threads for the given
// number of seconds, then checks every recorded output against an
// independent reference outside the timed region. The traced run replays a
// fixed number of requests twice — once untraced, once under an
// obs::TraceSession — and derives the per-layer metrics from the metrics
// registry deltas, the trace events and the workload's own probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

/// splitmix64 input stream. Kept apart from the library's own RNG so the
/// generated inputs do not change when the program under test does.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed, std::uint64_t stream = 0);
  std::uint64_t next();
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  int index(int n);

 private:
  std::uint64_t state_;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for workload files (the service's disk cache).
  std::string work_dir = ".bench_build/work";
  /// Where the traced run writes the Perfetto trace it collected.
  std::string trace_path;
  /// Multiplies every correctness reference before the comparison. 1 in
  /// real runs; the self-test skews it to show a wrong output counts as a
  /// failed request.
  double reference_skew = 1.0;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported by every untraced run, in this order; latency_p90_ms only when
/// the run holds enough requests for it (see tail_percentile).
extern const std::vector<MetricSpec> kEndToEndMetrics;
/// Reported by every traced run; a layer a workload never calls reads 0.
extern const std::vector<MetricSpec> kLayerMetrics;

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;
};

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since `t0`.
double elapsed_ms(Clock::time_point t0);

/// Whether `got` lies within the relative tolerance `tol` of `ref`; a NaN
/// (the library's "never crossed" delay) matches only another NaN.
bool within(double got, double ref, double tol);

/// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// The tail rule: the `pct` percentile exists only when at least ten
/// samples lie beyond it, i.e. n * (100 - pct) / 100 >= 10.
std::optional<double> tail_percentile(const std::vector<double>& samples,
                                      int pct);

/// Peak resident set size of this process so far [MB].
double peak_rss_mb();

/// Difference of two registry snapshots.
class RegistryDelta {
 public:
  RegistryDelta(const cnti::obs::MetricsSnapshot& before,
                const cnti::obs::MetricsSnapshot& after);
  double counter(const std::string& name) const;
  double hist_count(const std::string& name) const;
  double hist_sum_ms(const std::string& name) const;
  /// Mean histogram sample [ms]; 0 when nothing was recorded.
  double hist_mean_ms(const std::string& name) const;
  /// Gauge value at the later snapshot.
  double gauge(const std::string& name) const;

 private:
  const cnti::obs::MetricsSnapshot& before_;
  const cnti::obs::MetricsSnapshot& after_;
};

/// What the traced run hands to Workload::layers.
struct TracedPhase {
  std::uint64_t requests = 0;
  /// Mean request latency of the traced requests [ms].
  double request_ms = 0.0;
  /// Registry delta around the traced requests.
  const RegistryDelta* registry = nullptr;
};

/// Per-layer values by kLayerMetrics name.
using Layers = std::map<std::string, double>;

/// Sets the sparse solver's numerics.* counts and times from `delta`,
/// divided by `n` requests, and numerics.nnz_lu when `delta` factored.
void numerics_layers(const RegistryDelta& delta, double n, Layers& out);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Closed-loop callers issuing requests concurrently.
  virtual int callers() const { return 1; }
  /// What one request contains (printed with the results).
  virtual std::string request_description() const = 0;
  /// Builds fresh state, replacing any earlier one. Timed as setup_s.
  virtual void setup() = 0;
  /// Issues request `index` of caller `caller` and records its output.
  /// Callers run on their own threads; state is per caller.
  virtual void request(int caller, std::uint64_t index) = 0;
  /// Checks every output recorded since setup() against an independent
  /// reference; returns the number of requests that failed.
  virtual std::uint64_t check(double reference_skew) = 0;
  /// Requests in each traced-run phase. Fixed, so the registry counts of
  /// two traced runs with the same seed repeat exactly.
  virtual std::uint64_t traced_requests() const = 0;
  /// Fills the workload's per-layer metrics. The harness has already set
  /// the registry-derived ones; the tracing session is stopped.
  virtual void layers(const TracedPhase& phase, Layers& out) = 0;
  /// A printable digest of the first `count` generated inputs (pure
  /// function of the seed; used by the self-test).
  virtual std::string describe_inputs(std::uint64_t count) const = 0;
};

std::unique_ptr<Workload> make_paper_bus_transient(std::uint64_t seed);
std::unique_ptr<Workload> make_statistical_study(std::uint64_t seed);
std::unique_ptr<Workload> make_service_mixed(std::uint64_t seed,
                                             std::string work_dir);

/// The workload names the driver accepts. BENCHMARK.json gates all but
/// paper_bus_transient, which spreads too widely on shared hosts (see
/// perfbench/README.md) and is run by hand.
const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const RunConfig& config);

/// Runs the untraced or the traced run of `config`.
RunResult run(const RunConfig& config);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const RunResult& result);

}  // namespace perfbench
