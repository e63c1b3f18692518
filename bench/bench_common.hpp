// Shared bench-binary scaffolding: every reproduction binary prints its
// table/series first (the paper-reproduction payload), then runs its
// google-benchmark kernels. Reproduction code can additionally record
// named scalar metrics (bench::json()); when the opt-in CNTI_BENCH_JSON
// environment variable is set, those metrics are written as a
// machine-readable BENCH_<name>.json so the perf trajectory can be
// tracked across commits without scraping stdout tables. The sink itself
// lives in common/json_sink.hpp (unit-tested; rejects duplicate metric
// names and escapes them).
#pragma once

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>

#include "common/json_sink.hpp"
#include "common/table.hpp"

namespace cnti::bench {

inline void print_header(const std::string& experiment,
                         const std::string& description) {
  std::cout << "\n=== " << experiment << " ===\n" << description << "\n\n";
}

/// Flat name -> value metric sink (see common/json_sink.hpp).
using JsonResults = ::cnti::JsonMetricSink;

/// Shorthand for the per-binary metric sink.
inline JsonResults& json() { return JsonResults::instance(); }

/// Acceptance failures the reproduction recorded through check().
inline int& failures() {
  static int count = 0;
  return count;
}

/// Records an acceptance line: prints FAIL and counts it when `ok` is
/// false, so the binary exits non-zero instead of only printing it.
inline void check(bool ok, const std::string& what) {
  if (ok) return;
  std::cout << "FAIL: " << what << "\n";
  ++failures();
}

/// Standard main body: reproduction output, optional JSON metric dump,
/// then benchmark kernels. A reproduction that recorded a failed check()
/// exits 1 after the JSON dump, without running the kernels.
#define CNTI_BENCH_MAIN(print_reproduction)                        \
  int main(int argc, char** argv) {                                \
    print_reproduction();                                          \
    const std::string cnti_json_path = ::cnti::bench::json().write(); \
    if (!cnti_json_path.empty()) {                                 \
      std::cout << "\n[json results: " << cnti_json_path << "]\n"; \
    }                                                              \
    if (::cnti::bench::failures() > 0) return 1;                   \
    ::benchmark::Initialize(&argc, argv);                          \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {    \
      return 1;                                                    \
    }                                                              \
    ::benchmark::RunSpecifiedBenchmarks();                         \
    ::benchmark::Shutdown();                                       \
    return 0;                                                      \
  }

}  // namespace cnti::bench
