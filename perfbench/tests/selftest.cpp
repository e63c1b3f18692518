// Self-test of the benchmark harness. Run from the checkout root:
//   python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using perfbench::RunConfig;
using perfbench::RunResult;

std::set<std::string> names_of(const RunResult& r) {
  std::set<std::string> out;
  for (const auto& [name, m] : r.metrics) out.insert(name);
  return out;
}

std::set<std::string> names_of(const std::vector<perfbench::MetricSpec>& specs) {
  std::set<std::string> out;
  for (const auto& s : specs) out.insert(s.name);
  return out;
}

RunConfig quick(const std::string& workload, std::uint64_t seed) {
  RunConfig c;
  c.workload = workload;
  c.seed = seed;
  c.seconds = 0.01;  // one request per caller
  c.work_dir = ".bench_build/work-selftest";
  return c;
}

TEST(PercentileRule, P90NeedsTenSamplesBeyondIt) {
  std::vector<double> samples;
  for (int i = 0; i < 99; ++i) samples.push_back(i);
  EXPECT_FALSE(perfbench::tail_percentile(samples, 90).has_value());
  samples.push_back(99);
  const auto p90 = perfbench::tail_percentile(samples, 90);
  ASSERT_TRUE(p90.has_value());
  int beyond = 0;
  for (double s : samples) beyond += s > *p90 ? 1 : 0;
  EXPECT_GE(beyond, 10);
  EXPECT_DOUBLE_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
}

TEST(ErrorRate, CorruptedReferenceCountsAsFailed) {
  for (const char* workload :
       {"paper_bus_transient", "statistical_study", "service_mixed"}) {
    SCOPED_TRACE(workload);
    RunConfig good = quick(workload, 5);
    const RunResult ok = perfbench::run(good);
    EXPECT_GE(ok.attempted, 1u);
    EXPECT_EQ(ok.failed, 0u);

    RunConfig bad = good;
    bad.reference_skew = 1.05;
    const RunResult corrupted = perfbench::run(bad);
    ASSERT_GE(corrupted.attempted, 1u);
    EXPECT_GT(static_cast<double>(corrupted.failed) /
                  static_cast<double>(corrupted.attempted),
              0.0);
    EXPECT_NE(perfbench::result_json(corrupted).find("\"correct\": false"),
              std::string::npos);
  }
}

TEST(Seeds, DifferentInputsSameMetricNames) {
  for (const std::string& workload : perfbench::workload_names()) {
    SCOPED_TRACE(workload);
    const auto a = perfbench::make_workload(quick(workload, 1));
    const auto a2 = perfbench::make_workload(quick(workload, 1));
    const auto b = perfbench::make_workload(quick(workload, 2));
    EXPECT_EQ(a->describe_inputs(40), a2->describe_inputs(40));
    EXPECT_NE(a->describe_inputs(40), b->describe_inputs(40));
  }
  for (bool trace : {false, true}) {
    RunConfig c1 = quick("paper_bus_transient", 1);
    RunConfig c2 = quick("paper_bus_transient", 2);
    c1.trace = c2.trace = trace;
    const auto n1 = names_of(perfbench::run(c1));
    EXPECT_EQ(n1, names_of(perfbench::run(c2)));
    auto expected = names_of(trace ? perfbench::kLayerMetrics
                                   : perfbench::kEndToEndMetrics);
    // A quick run holds too few requests for a p90.
    expected.erase("latency_p90_ms");
    EXPECT_EQ(n1, expected);
  }
}

}  // namespace
