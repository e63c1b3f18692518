// Observability spine: registry semantics (shard folding across thread
// exit, histogram merge exactness, kind collisions), trace well-formedness
// under the service's strict JSON reader, wire round-trips, and the load-
// bearing contract of the whole layer — tracing is bit-effect-free, pinned
// by running the byte-identity suites at several thread counts with a
// TraceSession live.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "scenario/engine.hpp"
#include "scenario/report.hpp"
#include "scenario/statistical.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"

namespace {

namespace obs = cnti::obs;
namespace sc = cnti::scenario;

// ---------------------------------------------------------------------------
// Registry: counters, gauges, histograms.

TEST(Metrics, CounterFoldsLiveShardsAndRetiredThreads) {
  const obs::Counter c = obs::counter("cnti.test.fold_counter");
  const std::uint64_t before = c.value();

  c.add(5);  // this thread's live shard
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 1000; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  // The workers have exited: their shards were folded into the retired
  // accumulator. The snapshot must still see every add exactly once.
  EXPECT_EQ(c.value(), before + 5 + 4 * 1000);

  // Same name returns a handle onto the same cell.
  const obs::Counter again = obs::counter("cnti.test.fold_counter");
  again.add(1);
  EXPECT_EQ(c.value(), before + 5 + 4 * 1000 + 1);
}

TEST(Metrics, NameToKindBindingIsExclusive) {
  (void)obs::counter("cnti.test.kind_bound");
  EXPECT_THROW((void)obs::gauge("cnti.test.kind_bound"),
               cnti::PreconditionError);
  EXPECT_THROW((void)obs::histogram("cnti.test.kind_bound"),
               cnti::PreconditionError);
}

TEST(Metrics, GaugeIsLastWriteWinsAndBitExact) {
  const obs::Gauge g = obs::gauge("cnti.test.gauge");
  g.set(0.1 + 0.2);  // a value with no short decimal form
  EXPECT_EQ(g.value(), 0.1 + 0.2);
  g.set(-3.25);
  EXPECT_EQ(g.value(), -3.25);
}

TEST(Metrics, HistogramBucketsFollowBitWidth) {
  const obs::Histogram h = obs::histogram("cnti.test.hist_buckets");
  h.record_ns(0);    // bucket 0
  h.record_ns(1);    // bucket 1: [1, 2)
  h.record_ns(2);    // bucket 2: [2, 4)
  h.record_ns(3);    // bucket 2
  h.record_ns(~0ull);  // clamps into the last bucket

  const auto snap = obs::metrics_snapshot();
  const auto& hs = snap.histograms.at("cnti.test.hist_buckets");
  EXPECT_EQ(hs.count, 5u);
  EXPECT_EQ(hs.sum_ns, 0u + 1 + 2 + 3 + ~0ull);
  EXPECT_EQ(hs.buckets[0], 1u);
  EXPECT_EQ(hs.buckets[1], 1u);
  EXPECT_EQ(hs.buckets[2], 2u);
  EXPECT_EQ(hs.buckets[obs::kHistogramBuckets - 1], 1u);
}

TEST(Metrics, ShardedHistogramMergeEqualsSinglePass) {
  // The same multiset of samples recorded (a) split across worker threads
  // and (b) sequentially on one thread must fold to identical snapshots —
  // merge is an element-wise add, not an approximation.
  const obs::Histogram sharded = obs::histogram("cnti.test.hist_sharded");
  const obs::Histogram single = obs::histogram("cnti.test.hist_single");

  std::vector<std::uint64_t> samples;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    samples.push_back(i * i * 2654435761u % (1ull << 40));
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < 5; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < samples.size();
           i += 5) {
        sharded.record_ns(samples[i]);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const std::uint64_t s : samples) single.record_ns(s);

  const auto snap = obs::metrics_snapshot();
  const auto& a = snap.histograms.at("cnti.test.hist_sharded");
  const auto& b = snap.histograms.at("cnti.test.hist_single");
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum_ns, b.sum_ns);
  EXPECT_EQ(a.buckets, b.buckets);
}

TEST(Metrics, InternedNamesAreStableAndDeduplicated) {
  const char* a = obs::intern_name("stage.test-intern");
  const std::string copy = "stage.test-intern";  // different backing bytes
  const char* b = obs::intern_name(copy);
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "stage.test-intern");
}

// ---------------------------------------------------------------------------
// Wire formats: strict-JSON round-trip and Prometheus text.

TEST(Metrics, JsonRoundTripsThroughTheStrictParser) {
  const obs::Counter c = obs::counter("cnti.test.wire_counter");
  c.add(42);
  obs::gauge("cnti.test.wire_gauge").set(2.5);
  const obs::Histogram h = obs::histogram("cnti.test.wire_hist");
  h.record_ns(100);
  h.record_ns(100000);

  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  std::ostringstream out;
  obs::write_metrics_json(out, snap);

  // The writer's output must satisfy the service's strict reader
  // (duplicate keys and malformed nesting are hard errors there).
  const auto parsed = cnti::service::parse_json(out.str());
  const obs::MetricsSnapshot back =
      cnti::service::metrics_snapshot_from_json(parsed);

  EXPECT_EQ(back.counters, snap.counters);
  EXPECT_EQ(back.gauges, snap.gauges);
  ASSERT_EQ(back.histograms.size(), snap.histograms.size());
  for (const auto& [name, hs] : snap.histograms) {
    const auto& bs = back.histograms.at(name);
    EXPECT_EQ(bs.count, hs.count) << name;
    EXPECT_EQ(bs.sum_ns, hs.sum_ns) << name;
    EXPECT_EQ(bs.buckets, hs.buckets) << name;
  }
}

TEST(Metrics, PrometheusRenderingIsCumulativeAndComplete) {
  obs::counter("cnti.test.prom_counter").add(3);
  const obs::Histogram h = obs::histogram("cnti.test.prom_hist");
  h.record_ns(10);
  h.record_ns(10);
  h.record_ns(1000000);

  std::ostringstream out;
  obs::write_metrics_prometheus(out, obs::metrics_snapshot());
  const std::string text = out.str();

  // Dots become underscores; the histogram renders cumulative buckets
  // ending in +Inf plus _sum/_count.
  EXPECT_NE(text.find("cnti_test_prom_hist_bucket"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("cnti_test_prom_hist_count"), std::string::npos);
  EXPECT_NE(text.find("cnti_test_prom_hist_sum"), std::string::npos);
  EXPECT_NE(text.find("cnti_test_prom_counter 3"), std::string::npos);
  EXPECT_EQ(text.find("cnti.test"), std::string::npos)
      << "metric names must be sanitized for Prometheus";
}

// ---------------------------------------------------------------------------
// Spans and trace sessions.

TEST(Trace, DisabledSpanNeverReadsTheClock) {
  if (obs::timing_active()) {
    GTEST_SKIP() << "a trace/timing session is live (CNTI_TRACE set?)";
  }
  EXPECT_EQ(obs::span_start(), 0u);
}

TEST(Trace, SessionCapturesSpansAcrossThreadsSortedByStart) {
  obs::TraceSession session;
  {
    obs::ObsSpan outer("test.outer", "engine");
    std::thread worker([] { obs::ObsSpan inner("test.worker", "pool"); });
    worker.join();
  }
  const std::vector<obs::TraceEvent> events = session.stop();

  ASSERT_GE(events.size(), 2u);
  bool saw_outer = false, saw_worker = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_NE(events[i].name, nullptr);
    ASSERT_NE(events[i].tier, nullptr);
    if (i > 0) {
      EXPECT_GE(events[i].t0_ns, events[i - 1].t0_ns);
    }
    if (std::string(events[i].name) == "test.outer") saw_outer = true;
    if (std::string(events[i].name) == "test.worker") saw_worker = true;
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_worker) << "rings retired by exited threads must drain";

  // stop() is idempotent and the session released its enable reference.
  EXPECT_TRUE(session.stop().empty());
}

TEST(Trace, OverlappingSessionsEachKeepTheirOwnSpans) {
  // A drain hands its events to every open sink: the inner session's stop
  // must not take the outer session's spans, and a session never returns
  // a span that started before it opened.
  const auto names = [](const std::vector<obs::TraceEvent>& events) {
    std::vector<std::string> out;
    for (const obs::TraceEvent& ev : events) out.emplace_back(ev.name);
    return out;
  };
  obs::TraceSession outer;
  { obs::ObsSpan a("test.before_inner", "engine"); }
  std::vector<obs::TraceEvent> inner_events;
  {
    obs::TraceSession inner;
    { obs::ObsSpan b("test.inside_inner", "engine"); }
    inner_events = inner.stop();
  }
  { obs::ObsSpan c("test.after_inner", "engine"); }
  const std::vector<obs::TraceEvent> outer_events = outer.stop();
  EXPECT_EQ(names(inner_events), std::vector<std::string>{"test.inside_inner"});
  EXPECT_EQ(names(outer_events),
            (std::vector<std::string>{"test.before_inner", "test.inside_inner",
                                      "test.after_inner"}));
}

TEST(Trace, JsonOutputSatisfiesTheStrictReader) {
  obs::TraceSession session;
  {
    obs::ObsSpan a("test.alpha", "engine");
    obs::ObsSpan b(obs::intern_name("stage.test\"quoted\""), "cache");
  }
  std::ostringstream out;
  session.write_json(out, /*include_metrics=*/true);

  const auto root = cnti::service::parse_json(out.str());
  EXPECT_EQ(root.at("displayTimeUnit").as_string(), "ms");
  EXPECT_GE(root.at("droppedEvents").as_number(), 0.0);
  const auto& events = root.at("traceEvents").as_array();
  ASSERT_GE(events.size(), 2u);
  bool saw_escaped = false;
  for (const auto& ev : events) {
    EXPECT_EQ(ev.at("ph").as_string(), "X");
    EXPECT_EQ(ev.at("pid").as_number(), 1.0);
    EXPECT_GE(ev.at("dur").as_number(), 0.0);
    if (ev.at("name").as_string() == "stage.test\"quoted\"") {
      saw_escaped = true;
    }
  }
  EXPECT_TRUE(saw_escaped) << "span names must be JSON-escaped, not dropped";
  // The embedded metrics side-car parses with the protocol inverse too.
  (void)cnti::service::metrics_snapshot_from_json(root.at("metrics"));
}

TEST(Trace, OverfilledRingReportsItsDropsInTheJson) {
  // One thread writes 100 spans more than its 32,768-slot ring holds
  // before the drain: the ring keeps the newest 32,768, and the trace
  // file says how many fell off.
  constexpr std::size_t kRingSlots = 32768;
  constexpr std::size_t kExtra = 100;
  obs::TraceSession session;
  for (std::size_t i = 0; i < kRingSlots + kExtra; ++i) {
    obs::ObsSpan span("test.flood", "engine");
  }
  std::ostringstream out;
  session.write_json(out, /*include_metrics=*/false);

  const auto root = cnti::service::parse_json(out.str());
  EXPECT_EQ(root.at("droppedEvents").as_number(),
            static_cast<double>(kExtra));
  EXPECT_EQ(root.at("traceEvents").as_array().size(), kRingSlots);
}

TEST(Trace, TimingOnlyModeFeedsHistogramsWithoutARing) {
  if (obs::trace_active()) GTEST_SKIP() << "external trace session is live";
  const obs::Histogram h = obs::histogram("cnti.test.timing_only");
  const auto count_of = [] {
    return obs::metrics_snapshot()
        .histograms.at("cnti.test.timing_only")
        .count;
  };
  obs::set_timing_enabled(true);
  {
    obs::ObsSpan span("test.timing", "engine", h);
  }
  obs::set_timing_enabled(false);
  const std::uint64_t after = count_of();
  EXPECT_GE(after, 1u);
  {
    obs::ObsSpan span("test.timing", "engine", h);  // timing now off
  }
  EXPECT_EQ(count_of(), after);
}

// ---------------------------------------------------------------------------
// The load-bearing contract: tracing is bit-effect-free.

sc::Scenario small_scenario() {
  sc::Scenario s;
  s.label = "obs-identity";
  s.tech.outer_diameter_nm = 10.0;
  s.tech.dopant_concentration = 1.0;
  s.tech.contact_resistance_kohm = 20.0;
  s.workload.length_um = 25.0;
  s.workload.driver_resistance_kohm = 5.0;
  s.workload.load_capacitance_ff = 0.2;
  s.workload.bus_lines = 4;
  s.workload.bus_segments = 8;
  s.analysis.time_steps = 200;
  return s;
}

std::vector<sc::Scenario> identity_batch() {
  std::vector<sc::Scenario> batch;
  for (int i = 0; i < 6; ++i) {
    sc::Scenario s = small_scenario();
    s.label = "obs-identity/" + std::to_string(i);
    s.workload.length_um = 20.0 + 5.0 * i;
    s.analysis.noise = (i % 2 == 0);
    s.analysis.noise_model = sc::NoiseModel::kReducedOrder;
    s.analysis.thermal = (i % 3 == 0);
    batch.push_back(std::move(s));
  }
  return batch;
}

std::string batch_bytes(const sc::ScenarioEngine& engine,
                        const std::vector<sc::Scenario>& batch) {
  std::ostringstream out;
  sc::write_report_json(out, engine.run_batch(batch), nullptr);
  return out.str();
}

std::string study_bytes(const sc::ScenarioEngine& engine,
                        const sc::Scenario& s) {
  std::ostringstream out;
  sc::write_study_json(out, sc::reduce_shards({engine.run_statistical(s)}));
  return out.str();
}

class TracedByteIdentity : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Obs, TracedByteIdentity, ::testing::Values(1, 2, 5));

TEST_P(TracedByteIdentity, BatchReportBytesUnchangedUnderTracing) {
  sc::EngineOptions opt;
  opt.sweep.threads = GetParam();
  const auto batch = identity_batch();
  const std::string baseline =
      batch_bytes(sc::ScenarioEngine(opt), batch);

  obs::TraceSession session;
  const std::string traced = batch_bytes(sc::ScenarioEngine(opt), batch);
  const auto events = session.stop();
  EXPECT_EQ(traced, baseline);
  EXPECT_FALSE(events.empty()) << "the traced leg must actually trace";
}

TEST_P(TracedByteIdentity, StatisticalStudyBytesUnchangedUnderTracing) {
  sc::Scenario s = small_scenario();
  s.analysis.delay = false;
  s.analysis.noise = true;
  s.variability.samples = 24;
  s.variability.resistance_span = 0.15;
  s.variability.capacitance_span = 0.10;
  s.variability.coupling_span = 0.20;

  sc::EngineOptions opt;
  opt.sweep.threads = GetParam();
  const std::string baseline = study_bytes(sc::ScenarioEngine(opt), s);

  obs::TraceSession session;
  const std::string traced = study_bytes(sc::ScenarioEngine(opt), s);
  const auto events = session.stop();
  EXPECT_EQ(traced, baseline);
  EXPECT_FALSE(events.empty());
}

}  // namespace
