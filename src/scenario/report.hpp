// Structured emission of scenario batch results: a flat CSV (one row per
// scenario, stable column set, blank cells for KPIs the scenario did not
// request) and a JSON document (scenario array plus the engine's cache
// statistics) for machine consumption alongside the benches'
// CNTI_BENCH_JSON trajectory files.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "scenario/engine.hpp"

namespace cnti::scenario {

/// A double as a CSV cell that round-trips exactly (max_digits10).
std::string csv_number(double v);

/// Header of write_report_csv, exposed so consumers can bind columns.
const std::vector<std::string>& report_csv_header();

void write_report_csv(std::ostream& out,
                      const std::vector<ScenarioResult>& results);
void write_report_csv(const std::string& path,
                      const std::vector<ScenarioResult>& results);

/// `cache` adds a "cache" section with per-stage hit/disk-hit/miss counts.
void write_report_json(std::ostream& out,
                       const std::vector<ScenarioResult>& results,
                       const MemoCache* cache = nullptr);
void write_report_json(const std::string& path,
                       const std::vector<ScenarioResult>& results,
                       const MemoCache* cache = nullptr);

/// One result as a JSON object in exactly the report's scenario schema.
/// `indent` selects the layout: non-empty pretty-prints at that base indent
/// (the report form), empty emits a single newline-free line (the service
/// wire form — the protocol parser is the inverse of this writer).
void write_result_json_object(std::ostream& out, const ScenarioResult& r,
                              const std::string& indent);

/// The report's "cache" section ({"enabled": ..., "stages": {...}}), also
/// reused by the service's end-of-batch wire message. Empty indent =
/// single-line form.
void write_cache_stats_json_object(std::ostream& out, const MemoCache& cache,
                                   const std::string& indent);

}  // namespace cnti::scenario
