#include "obs/obs.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>

#include "common/error.hpp"
#include "common/json_sink.hpp"

namespace cnti::obs {

namespace detail {
std::atomic<int> g_trace_level{0};
std::atomic<int> g_timing_level{0};
}  // namespace detail

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

// Capacity limits. Cells back counters (1 each) and histograms
// (2 + kHistogramBuckets each); at 4096 cells a shard costs 32 KiB per
// thread that touches a metric. Gauges are global singles, not sharded.
constexpr std::size_t kMaxCells = 4096;
constexpr std::size_t kMaxGauges = 256;
// Per-thread trace ring: power of two, ~1.3 MiB heap per traced thread,
// allocated only while a trace sink is active on that thread; its pages
// are faulted in only as spans fill them.
constexpr std::uint64_t kRingCapacity = 1ull << 15;

/// One thread's private metric cells. All atomics so a concurrent snapshot
/// is race-free; the owner only ever does relaxed fetch-adds.
struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCells> cells{};
};

/// Trace ring slot guarded by a per-slot sequence number: the writer
/// brackets its field stores with seq = 2i+1 (write in progress) and
/// seq = 2i+2 (slot i stable); a drain accepts a slot only when it reads
/// the same stable value before and after copying the fields. The words are
/// plain and left uninitialized, and every access goes through
/// std::atomic_ref: a fresh ring touches no page until a span lands in it,
/// and a drain reads only slots written since the last one.
struct Slot {
  std::uint64_t seq;
  const char* name;
  const char* tier;
  std::uint64_t t0;
  std::uint64_t dur;
};
static_assert(alignof(std::uint64_t) >=
                  std::atomic_ref<std::uint64_t>::required_alignment &&
              alignof(const char*) >=
                  std::atomic_ref<const char*>::required_alignment);

/// Single-writer (owning thread) / single-drainer (registry mutex holder)
/// ring. `head` is a monotonic write count; `drained` is the reader floor.
struct Ring {
  explicit Ring(std::uint32_t tid_value) : tid(tid_value) {}
  const std::uint32_t tid;
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> drained{0};
  std::atomic<bool> retired{false};
  std::array<Slot, kRingCapacity> slots;  // default-initialized: untouched
};

/// An open trace sink — the CNTI_TRACE file (no owner) or a TraceSession —
/// and the drained events that started at or after it opened.
struct Sink {
  const void* owner = nullptr;
  std::uint64_t epoch_ns = 0;
  std::vector<TraceEvent> events;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

struct MetricInfo {
  MetricKind kind;
  std::size_t index;  // cell start (counter/histogram) or gauge slot
};

/// Process-wide registry state. Leaked deliberately: the CNTI_TRACE atexit
/// writer and late-exiting thread destructors must be able to use it at
/// any point during shutdown.
struct Global {
  std::mutex mu;
  std::map<std::string, MetricInfo, std::less<>> metrics;
  std::size_t next_cell = 0;
  std::size_t next_gauge = 0;
  std::array<std::uint64_t, kMaxCells> retired_cells{};
  std::vector<Shard*> live_shards;
  std::vector<Ring*> rings;  // live + retired, drained under mu
  std::vector<Sink> sinks;   // open trace sinks, under mu
  std::array<std::atomic<std::uint64_t>, kMaxGauges> gauges{};
  std::vector<std::unique_ptr<std::string>> interned;
  std::map<std::string, const char*, std::less<>> intern_index;
  std::atomic<std::uint64_t> dropped{0};
  /// `dropped` when the current trace period began (0 for CNTI_TRACE).
  std::atomic<std::uint64_t> dropped_at_epoch{0};
  std::atomic<std::uint64_t> epoch_ns{0};
  std::uint32_t next_tid = 1;
  std::string env_path;
};

Global& g() {
  static Global* inst = new Global;
  return *inst;
}

/// Per-thread handles into the global structures. The destructor folds the
/// shard into `retired_cells` (the Accumulator merge discipline: private
/// accumulation, explicit fold) and retires the ring with its undrained
/// events intact so a later drain still sees them.
struct ThreadState {
  Shard* shard = nullptr;
  Ring* ring = nullptr;
  ~ThreadState() {
    Global& gl = g();
    const std::lock_guard<std::mutex> lock(gl.mu);
    if (shard != nullptr) {
      for (std::size_t i = 0; i < kMaxCells; ++i) {
        gl.retired_cells[i] += shard->cells[i].load(std::memory_order_relaxed);
      }
      std::erase(gl.live_shards, shard);
      delete shard;
      shard = nullptr;
    }
    if (ring != nullptr) {
      ring->retired.store(true, std::memory_order_relaxed);
      ring = nullptr;
    }
  }
};

thread_local ThreadState t_state;

Shard& my_shard() {
  if (t_state.shard == nullptr) {
    auto* shard = new Shard();
    Global& gl = g();
    const std::lock_guard<std::mutex> lock(gl.mu);
    gl.live_shards.push_back(shard);
    t_state.shard = shard;
  }
  return *t_state.shard;
}

Ring& my_ring() {
  if (t_state.ring == nullptr) {
    Global& gl = g();
    const std::lock_guard<std::mutex> lock(gl.mu);
    auto* ring = new Ring(gl.next_tid++);
    gl.rings.push_back(ring);
    t_state.ring = ring;
  }
  return *t_state.ring;
}

void ring_write(Ring& ring, const char* name, const char* tier,
                std::uint64_t t0, std::uint64_t dur) {
  const std::uint64_t h = ring.head.load(std::memory_order_relaxed);
  Slot& slot = ring.slots[h % kRingCapacity];
  std::atomic_ref(slot.seq).store(2 * h + 1, std::memory_order_relaxed);
  std::atomic_ref(slot.name).store(name, std::memory_order_relaxed);
  std::atomic_ref(slot.tier).store(tier, std::memory_order_relaxed);
  std::atomic_ref(slot.t0).store(t0, std::memory_order_relaxed);
  std::atomic_ref(slot.dur).store(dur, std::memory_order_relaxed);
  std::atomic_ref(slot.seq).store(2 * h + 2, std::memory_order_release);
  ring.head.store(h + 1, std::memory_order_release);
}

void drain_ring(Ring& ring, std::vector<TraceEvent>& out,
                std::uint64_t* dropped) {
  const std::uint64_t head = ring.head.load(std::memory_order_acquire);
  std::uint64_t lo = ring.drained.load(std::memory_order_relaxed);
  if (head > kRingCapacity && lo < head - kRingCapacity) {
    *dropped += (head - kRingCapacity) - lo;
    lo = head - kRingCapacity;
  }
  for (std::uint64_t i = lo; i < head; ++i) {
    Slot& slot = ring.slots[i % kRingCapacity];
    const std::uint64_t stable = 2 * i + 2;
    if (std::atomic_ref(slot.seq).load(std::memory_order_acquire) != stable) {
      continue;
    }
    TraceEvent ev;
    ev.name = std::atomic_ref(slot.name).load(std::memory_order_relaxed);
    ev.tier = std::atomic_ref(slot.tier).load(std::memory_order_relaxed);
    ev.t0_ns = std::atomic_ref(slot.t0).load(std::memory_order_relaxed);
    ev.dur_ns = std::atomic_ref(slot.dur).load(std::memory_order_relaxed);
    ev.tid = ring.tid;
    if (std::atomic_ref(slot.seq).load(std::memory_order_relaxed) != stable) {
      continue;
    }
    out.push_back(ev);
  }
  ring.drained.store(head, std::memory_order_relaxed);
}

/// Drain every ring into every open sink, so no sink loses the spans
/// another one drained; delete rings whose owner thread has exited and
/// fold the drop count. The caller holds gl.mu.
void drain_to_sinks(Global& gl) {
  std::vector<TraceEvent> events;
  std::uint64_t dropped_local = 0;
  for (auto it = gl.rings.begin(); it != gl.rings.end();) {
    Ring* ring = *it;
    drain_ring(*ring, events, &dropped_local);
    if (ring->retired.load(std::memory_order_relaxed)) {
      delete ring;
      it = gl.rings.erase(it);
    } else {
      ++it;
    }
  }
  gl.dropped.fetch_add(dropped_local, std::memory_order_relaxed);
  for (Sink& sink : gl.sinks) {
    for (const TraceEvent& ev : events) {
      if (ev.t0_ns >= sink.epoch_ns) sink.events.push_back(ev);
    }
  }
}

/// Drains, closes `owner`'s sink and returns its events sorted by start.
std::vector<TraceEvent> close_sink(const void* owner) {
  Global& gl = g();
  const std::lock_guard<std::mutex> lock(gl.mu);
  drain_to_sinks(gl);
  const auto it = std::find_if(gl.sinks.begin(), gl.sinks.end(),
                               [&](const Sink& s) { return s.owner == owner; });
  std::vector<TraceEvent> out = std::move(it->events);
  gl.sinks.erase(it);
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.t0_ns != b.t0_ns) return a.t0_ns < b.t0_ns;
              return a.tid < b.tid;
            });
  return out;
}

MetricInfo register_metric(std::string_view name, MetricKind kind,
                           std::size_t cells) {
  Global& gl = g();
  const std::lock_guard<std::mutex> lock(gl.mu);
  const auto it = gl.metrics.find(name);
  if (it != gl.metrics.end()) {
    CNTI_EXPECTS(it->second.kind == kind,
                 "obs: metric name re-registered with a different kind");
    return it->second;
  }
  std::size_t index = 0;
  if (kind == MetricKind::kGauge) {
    CNTI_EXPECTS(gl.next_gauge < kMaxGauges, "obs: gauge capacity exhausted");
    index = gl.next_gauge++;
  } else {
    CNTI_EXPECTS(gl.next_cell + cells <= kMaxCells,
                 "obs: metric cell capacity exhausted");
    index = gl.next_cell;
    gl.next_cell += cells;
  }
  gl.metrics.emplace(std::string(name), MetricInfo{kind, index});
  return MetricInfo{kind, index};
}

/// Format nanoseconds as a microsecond decimal ("12.345") — exact, locale-
/// independent, and stable across platforms (no double rounding).
std::string format_us(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03" PRIu64, ns / 1000,
                ns % 1000);
  return buf;
}

/// `cnti.solver.solve_ns` -> `cnti_solver_solve_ns` (Prometheus charset).
std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Metric handles
// ---------------------------------------------------------------------------

void Counter::add(std::uint64_t n) const {
  if (cell_ == SIZE_MAX) return;
  my_shard().cells[cell_].fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const {
  if (cell_ == SIZE_MAX) return 0;
  Global& gl = g();
  const std::lock_guard<std::mutex> lock(gl.mu);
  std::uint64_t total = gl.retired_cells[cell_];
  for (const Shard* shard : gl.live_shards) {
    total += shard->cells[cell_].load(std::memory_order_relaxed);
  }
  return total;
}

void Gauge::set(double v) const {
  if (slot_ == SIZE_MAX) return;
  g().gauges[slot_].store(std::bit_cast<std::uint64_t>(v),
                          std::memory_order_relaxed);
}

double Gauge::value() const {
  if (slot_ == SIZE_MAX) return 0.0;
  return std::bit_cast<double>(
      g().gauges[slot_].load(std::memory_order_relaxed));
}

void Histogram::record_ns(std::uint64_t ns) const {
  if (cell0_ == SIZE_MAX) return;
  Shard& shard = my_shard();
  shard.cells[cell0_].fetch_add(1, std::memory_order_relaxed);
  shard.cells[cell0_ + 1].fetch_add(ns, std::memory_order_relaxed);
  const std::size_t bucket = std::min<std::size_t>(
      static_cast<std::size_t>(std::bit_width(ns)), kHistogramBuckets - 1);
  shard.cells[cell0_ + 2 + bucket].fetch_add(1, std::memory_order_relaxed);
}

Counter counter(std::string_view name) {
  return Counter(register_metric(name, MetricKind::kCounter, 1).index);
}

Gauge gauge(std::string_view name) {
  return Gauge(register_metric(name, MetricKind::kGauge, 0).index);
}

Histogram histogram(std::string_view name) {
  return Histogram(
      register_metric(name, MetricKind::kHistogram, 2 + kHistogramBuckets)
          .index);
}

const char* intern_name(std::string_view name) {
  Global& gl = g();
  const std::lock_guard<std::mutex> lock(gl.mu);
  const auto it = gl.intern_index.find(name);
  if (it != gl.intern_index.end()) return it->second;
  gl.interned.push_back(std::make_unique<std::string>(name));
  const char* stable = gl.interned.back()->c_str();
  gl.intern_index.emplace(std::string(name), stable);
  return stable;
}

void set_timing_enabled(bool enabled) {
  detail::g_timing_level.fetch_add(enabled ? 1 : -1,
                                   std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Snapshot + renderers
// ---------------------------------------------------------------------------

MetricsSnapshot metrics_snapshot() {
  Global& gl = g();
  const std::lock_guard<std::mutex> lock(gl.mu);
  std::array<std::uint64_t, kMaxCells> folded = gl.retired_cells;
  for (const Shard* shard : gl.live_shards) {
    for (std::size_t i = 0; i < gl.next_cell; ++i) {
      folded[i] += shard->cells[i].load(std::memory_order_relaxed);
    }
  }
  MetricsSnapshot snap;
  for (const auto& [name, info] : gl.metrics) {
    switch (info.kind) {
      case MetricKind::kCounter:
        snap.counters[name] = folded[info.index];
        break;
      case MetricKind::kGauge:
        snap.gauges[name] = std::bit_cast<double>(
            gl.gauges[info.index].load(std::memory_order_relaxed));
        break;
      case MetricKind::kHistogram: {
        HistogramSnapshot h;
        h.count = folded[info.index];
        h.sum_ns = folded[info.index + 1];
        for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
          h.buckets[b] = folded[info.index + 2 + b];
        }
        snap.histograms[name] = h;
        break;
      }
    }
  }
  return snap;
}

void write_metrics_json(std::ostream& out, const MetricsSnapshot& snap) {
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":" << value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":" << json_number(value);
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":{\"count\":" << h.count
        << ",\"sum_ns\":" << h.sum_ns << ",\"buckets\":[";
    bool first_bucket = true;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first_bucket) out << ",";
      first_bucket = false;
      out << "[" << b << "," << h.buckets[b] << "]";
    }
    out << "]}";
  }
  out << "}}";
}

void write_metrics_prometheus(std::ostream& out, const MetricsSnapshot& snap) {
  for (const auto& [name, value] : snap.counters) {
    const std::string pn = prometheus_name(name);
    out << "# TYPE " << pn << " counter\n" << pn << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string pn = prometheus_name(name);
    out << "# TYPE " << pn << " gauge\n"
        << pn << " " << json_number(value) << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string pn = prometheus_name(name);
    out << "# TYPE " << pn << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      cumulative += h.buckets[b];
      // Bucket b holds ns with bit_width == b, so its upper bound is
      // 2^b - 1 ns; expose the bound in seconds per Prometheus convention.
      const double le_s = (std::ldexp(1.0, static_cast<int>(b)) - 1.0) * 1e-9;
      out << pn << "_bucket{le=\"" << json_number(le_s) << "\"} " << cumulative
          << "\n";
    }
    out << pn << "_bucket{le=\"+Inf\"} " << h.count << "\n"
        << pn << "_sum " << json_number(static_cast<double>(h.sum_ns) * 1e-9)
        << "\n"
        << pn << "_count " << h.count << "\n";
  }
}

void reset_metrics_values_for_test() {
  Global& gl = g();
  const std::lock_guard<std::mutex> lock(gl.mu);
  gl.retired_cells.fill(0);
  for (Shard* shard : gl.live_shards) {
    for (std::size_t i = 0; i < kMaxCells; ++i) {
      shard->cells[i].store(0, std::memory_order_relaxed);
    }
  }
  for (std::size_t i = 0; i < kMaxGauges; ++i) {
    gl.gauges[i].store(std::bit_cast<std::uint64_t>(0.0),
                       std::memory_order_relaxed);
  }
}

std::uint64_t dropped_events() {
  return g().dropped.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

std::uint64_t span_start() { return timing_active() ? now_ns() : 0; }

void span_end(const char* name, const char* tier, std::uint64_t t0,
              Histogram hist) {
  if (t0 == 0) return;
  const std::uint64_t t1 = now_ns();
  const std::uint64_t dur = t1 > t0 ? t1 - t0 : 0;
  if (hist.valid()) hist.record_ns(dur);
  if (trace_active()) ring_write(my_ring(), name, tier, t0, dur);
}

// ---------------------------------------------------------------------------
// Trace sessions
// ---------------------------------------------------------------------------

TraceSession::TraceSession() {
  Global& gl = g();
  const std::lock_guard<std::mutex> lock(gl.mu);
  // Events recorded so far belong to the sinks already open (or to none).
  drain_to_sinks(gl);
  epoch_ns_ = now_ns();
  gl.sinks.push_back({this, epoch_ns_, {}});
  if (detail::g_trace_level.fetch_add(1, std::memory_order_relaxed) == 0) {
    gl.epoch_ns.store(epoch_ns_, std::memory_order_relaxed);
    gl.dropped_at_epoch.store(dropped_events(), std::memory_order_relaxed);
  }
}

TraceSession::~TraceSession() {
  if (!stopped_) stop();
}

std::vector<TraceEvent> TraceSession::stop() {
  if (stopped_) return {};
  stopped_ = true;
  std::vector<TraceEvent> events = close_sink(this);
  detail::g_trace_level.fetch_sub(1, std::memory_order_relaxed);
  return events;
}

void TraceSession::write_json(std::ostream& out, bool include_metrics) {
  const std::vector<TraceEvent> events = stop();
  write_trace_json(out, events, epoch_ns_, include_metrics);
}

void write_trace_json(std::ostream& out, const std::vector<TraceEvent>& events,
                      std::uint64_t epoch_ns, bool include_metrics) {
  const std::uint64_t dropped =
      dropped_events() - g().dropped_at_epoch.load(std::memory_order_relaxed);
  out << "{\"displayTimeUnit\":\"ms\",\"droppedEvents\":" << dropped
      << ",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (ev.name == nullptr || ev.tier == nullptr) continue;
    if (!first) out << ",";
    first = false;
    const std::uint64_t rel = ev.t0_ns > epoch_ns ? ev.t0_ns - epoch_ns : 0;
    out << "\n{\"name\":\"" << json_escape(ev.name) << "\",\"cat\":\""
        << json_escape(ev.tier) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << ev.tid << ",\"ts\":" << format_us(rel)
        << ",\"dur\":" << format_us(ev.dur_ns) << "}";
  }
  out << "\n]";
  if (include_metrics) {
    out << ",\"metrics\":";
    write_metrics_json(out, metrics_snapshot());
  }
  out << "}\n";
}

// ---------------------------------------------------------------------------
// CNTI_TRACE env knob: enable at static-init time, write at process exit.
// ---------------------------------------------------------------------------

namespace {

void write_env_trace_at_exit() {
  const std::vector<TraceEvent> events = close_sink(nullptr);
  std::string path = g().env_path;
  const std::size_t pos = path.find("%p");
  if (pos != std::string::npos) {
    path.replace(pos, 2, std::to_string(::getpid()));
  }
  std::ofstream out(path);
  if (!out) return;
  write_trace_json(out, events, g().epoch_ns.load(std::memory_order_relaxed),
                   /*include_metrics=*/true);
}

struct EnvTraceSession {
  EnvTraceSession() {
    const char* path = std::getenv("CNTI_TRACE");
    if (path == nullptr || *path == '\0') return;
    Global& gl = g();
    const std::lock_guard<std::mutex> lock(gl.mu);
    gl.env_path = path;
    gl.sinks.push_back({nullptr, 0, {}});
    gl.epoch_ns.store(now_ns(), std::memory_order_relaxed);
    detail::g_trace_level.fetch_add(1, std::memory_order_relaxed);
    std::atexit(&write_env_trace_at_exit);
  }
};

const EnvTraceSession g_env_trace_session;

}  // namespace

}  // namespace cnti::obs
