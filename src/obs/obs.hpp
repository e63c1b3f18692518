// Observability spine: scoped spans drained into Chrome trace-event /
// Perfetto-compatible JSON, plus a process-wide metrics registry of named
// counters, gauges, and log-bucketed latency histograms with mergeable
// per-thread shards (same merge discipline as numerics::Accumulator: each
// thread accumulates privately, a snapshot folds the shards).
//
// Design contract (see docs/OBSERVABILITY.md):
//  - Bit-effect-free. Instrumentation never touches RNG streams, never
//    changes iteration order, and never perturbs a cached value; reading a
//    monotonic clock is its only observable action. The byte-identity
//    suites run with tracing enabled to prove it.
//  - Cheap when off. A disabled span site costs one relaxed atomic load
//    and a branch — no clock read, no allocation. Counters stay live at
//    all times (one relaxed add into a thread-local cell) because they are
//    the substance of the `metrics` wire verb.
//  - TSan-clean by construction. Every shared cell is a std::atomic; trace
//    ring slots carry a per-slot sequence number (seqlock) so a drain on
//    another thread never observes a torn event.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace cnti::obs {

/// Number of power-of-two latency buckets per histogram. Bucket `i` counts
/// samples with `bit_width(ns) == i`, i.e. ns in [2^(i-1), 2^i); bucket 0
/// is exactly ns == 0 and the last bucket absorbs everything wider.
inline constexpr std::size_t kHistogramBuckets = 64;

namespace detail {
// Enable levels are counters, not booleans, so an env-driven session and a
// programmatic TraceSession can coexist (each holds one reference).
extern std::atomic<int> g_trace_level;
extern std::atomic<int> g_timing_level;
}  // namespace detail

/// True while at least one trace sink (CNTI_TRACE or a TraceSession) is
/// active: spans write ring events and latency histograms.
inline bool trace_active() {
  return detail::g_trace_level.load(std::memory_order_relaxed) > 0;
}

/// True while span timings are wanted at all — either a trace sink is
/// active or timing-only collection (latency histograms without the ring)
/// was requested, e.g. by the long-running service daemon.
inline bool timing_active() {
  return detail::g_timing_level.load(std::memory_order_relaxed) > 0 ||
         trace_active();
}

/// Monotonic clock in nanoseconds (steady_clock). Never consulted on the
/// disabled fast path.
std::uint64_t now_ns();

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Monotonic counter handle. Cheap to copy; a default-constructed handle is
/// an inert no-op (useful before registration). `add` is a relaxed
/// fetch-add into the calling thread's shard cell.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) const;
  /// Folded value across retired shards + all live threads.
  std::uint64_t value() const;

 private:
  friend Counter counter(std::string_view);
  explicit Counter(std::size_t cell) : cell_(cell) {}
  std::size_t cell_ = SIZE_MAX;
};

/// Last-write-wins gauge (a single global atomic double). Not sharded:
/// gauges are not summable across threads.
class Gauge {
 public:
  Gauge() = default;
  void set(double v) const;
  double value() const;

 private:
  friend Gauge gauge(std::string_view);
  explicit Gauge(std::size_t slot) : slot_(slot) {}
  std::size_t slot_ = SIZE_MAX;
};

/// Log-bucketed latency histogram handle (count, sum_ns, and
/// kHistogramBuckets power-of-two buckets, all sharded per thread).
/// Merging shards is an element-wise add, so merged == single-pass holds
/// exactly — the property test_obs pins.
class Histogram {
 public:
  Histogram() = default;
  void record_ns(std::uint64_t ns) const;
  bool valid() const { return cell0_ != SIZE_MAX; }

 private:
  friend Histogram histogram(std::string_view);
  friend void span_end(const char*, const char*, std::uint64_t, Histogram);
  explicit Histogram(std::size_t cell0) : cell0_(cell0) {}
  std::size_t cell0_ = SIZE_MAX;
};

/// Register-or-look-up by name. Names follow `cnti.<tier>.<name>`; a name
/// maps to exactly one kind (re-registering under a different kind throws
/// PreconditionError). Handles are valid for the process lifetime.
Counter counter(std::string_view name);
Gauge gauge(std::string_view name);
Histogram histogram(std::string_view name);

/// Intern a dynamically built span name (e.g. "stage.bus-rom") into
/// process-lifetime storage so ring events can hold a stable const char*.
const char* intern_name(std::string_view name);

/// Timing-only collection (latency histograms without a trace ring); used
/// by the service daemon, which wants live latency data at all times.
void set_timing_enabled(bool enabled);

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Fold retired shards + every live thread's cells into one snapshot.
MetricsSnapshot metrics_snapshot();

/// Strict-JSON rendering of a snapshot:
///   {"counters":{...},"gauges":{...},
///    "histograms":{name:{"count":..,"sum_ns":..,"buckets":[[i,n],...]}}}
/// Buckets are sparse [index,count] pairs; parseable by service::parse_json.
void write_metrics_json(std::ostream& out, const MetricsSnapshot& snap);

/// Prometheus text exposition (dots become underscores; histograms render
/// cumulative `_bucket{le="<seconds>"}` series plus `_sum`/`_count`).
void write_metrics_prometheus(std::ostream& out, const MetricsSnapshot& snap);

/// Zero every metric value (registrations survive). Test-only: races with
/// concurrent writers are benign (all cells are atomics) but values written
/// before the reset on other threads may be lost.
void reset_metrics_values_for_test();

// ---------------------------------------------------------------------------
// Spans + trace sessions
// ---------------------------------------------------------------------------

/// One completed span drained from a thread ring. `name`/`tier` point at
/// string literals or interned storage and never dangle.
struct TraceEvent {
  const char* name = nullptr;
  const char* tier = nullptr;
  std::uint64_t t0_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
};

/// Start a span clock: returns now_ns() when timing is active, 0 otherwise.
/// The 0/now split keeps the disabled path free of clock reads.
std::uint64_t span_start();

/// Finish a span started at `t0` (no-op when t0 == 0): records a ring event
/// while tracing and feeds `hist` (if valid) while timing. `name` and
/// `tier` must be string literals or intern_name() results.
void span_end(const char* name, const char* tier, std::uint64_t t0,
              Histogram hist = {});

/// RAII span. Usage:
///   obs::ObsSpan span("prima.reduce", "rom", reduce_hist);
class ObsSpan {
 public:
  explicit ObsSpan(const char* name, const char* tier, Histogram hist = {})
      : name_(name), tier_(tier), hist_(hist), t0_(span_start()) {}
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;
  ~ObsSpan() {
    if (t0_ != 0) span_end(name_, tier_, t0_, hist_);
  }

 private:
  const char* name_;
  const char* tier_;
  Histogram hist_;
  std::uint64_t t0_;
};

/// Programmatic trace capture. Construction enables tracing (stacking on
/// top of an env session if one is active); stop() disables this session's
/// reference, drains every thread ring — including rings retired by
/// exited threads — and returns the spans that started after the session
/// opened as a sorted event list. A drain hands its events to every open
/// sink, so the CNTI_TRACE file and other live sessions keep theirs too.
class TraceSession {
 public:
  TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;
  ~TraceSession();

  /// Disable + drain. Idempotent; the second call returns an empty list.
  std::vector<TraceEvent> stop();

  /// stop() + write_trace_json() in one step.
  void write_json(std::ostream& out, bool include_metrics = true);

 private:
  bool stopped_ = false;
  std::uint64_t epoch_ns_ = 0;
};

/// Render drained events as a Chrome trace-event / Perfetto JSON object:
///   {"displayTimeUnit":"ms","droppedEvents":N,"traceEvents":[{"name",
///    "cat","ph":"X","pid","tid","ts","dur"},...],"metrics":{...}}
/// ts/dur are microseconds relative to `epoch_ns`. droppedEvents counts the
/// events that fell off a ring since the trace period began (the first
/// live session's start, or process start under CNTI_TRACE), as of the
/// last drain; a complete trace has 0. The output passes the strict
/// service::parse_json reader (no duplicate keys, bounded depth).
void write_trace_json(std::ostream& out, const std::vector<TraceEvent>& events,
                      std::uint64_t epoch_ns, bool include_metrics);

/// Events that fell off a ring before a drain (ring capacity exceeded),
/// over the process lifetime. Exposed so trace consumers can tell "quiet"
/// from "lossy".
std::uint64_t dropped_events();

}  // namespace cnti::obs
