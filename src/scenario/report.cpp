#include "scenario/report.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/json_sink.hpp"
#include "common/units.hpp"

namespace cnti::scenario {

namespace {

/// RFC-4180 style field quoting (labels may carry arbitrary text).
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open report file for writing: " + path);
  }
  return out;
}

}  // namespace

std::string csv_number(double v) {
  // max_digits10: the engine guarantees bit-identical results, so the CSV
  // must round-trip doubles exactly — precision(12) silently dropped the
  // last ~5 bits of every value (the JSON writer was already exact).
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

const std::vector<std::string>& report_csv_header() {
  static const std::vector<std::string> header = {
      "label",
      "fermi_shift_ev",
      "channels_per_shell",
      "mfp_um",
      "shells",
      "resistance_kohm",
      "capacitance_ff",
      "electrostatic_cap_af_per_um",
      "delay_ps",
      "delay_method",
      "noise_peak_mv",
      "noise_peak_time_ps",
      "worst_victim",
      "aggressor_delay_ps",
      "mna_unknowns",
      "thermal_peak_rise_k",
      "ampacity_ua",
      "current_density_a_cm2",
      "cnt_em_immune",
      "cu_reference_mttf_s",
  };
  return header;
}

void write_report_csv(std::ostream& out,
                      const std::vector<ScenarioResult>& results) {
  const auto& header = report_csv_header();
  for (std::size_t i = 0; i < header.size(); ++i) {
    out << header[i] << (i + 1 < header.size() ? "," : "\n");
  }
  for (const ScenarioResult& r : results) {
    out << csv_field(r.label) << ',' << csv_number(r.line.fermi_shift_ev)
        << ',' << csv_number(r.line.channels_per_shell) << ','
        << csv_number(r.line.mfp_um) << ',' << r.line.shells << ','
        << csv_number(r.line.resistance_kohm) << ','
        << csv_number(r.line.capacitance_ff) << ','
        << csv_number(r.line.electrostatic_cap_af_per_um) << ','
        << csv_number(r.line.delay_ps) << ',' << csv_field(r.line.delay_method)
        << ',';
    if (r.noise) {
      // A NaN aggressor delay (the 50% level was never crossed inside the
      // window) is an empty cell, mirroring the JSON writer's null — a
      // literal "nan" would not survive strict CSV consumers.
      const double delay_ps = units::to_ps(r.noise->aggressor_delay_s);
      out << csv_number(r.noise->peak_noise_v * 1e3) << ','
          << csv_number(units::to_ps(r.noise->peak_time_s)) << ','
          << r.noise->worst_victim << ','
          << (std::isfinite(delay_ps) ? csv_number(delay_ps) : "") << ','
          << r.noise->unknowns << ',';
    } else {
      out << ",,,,,";
    }
    if (r.thermal) {
      out << csv_number(r.thermal->peak_rise_k) << ','
          << csv_number(r.thermal->ampacity_ua) << ','
          << csv_number(r.thermal->current_density_a_cm2) << ','
          << (r.thermal->cnt_em_immune ? 1 : 0) << ','
          << csv_number(r.thermal->cu_reference_mttf_s);
    } else {
      out << ",,,,";
    }
    out << '\n';
  }
}

void write_report_csv(const std::string& path,
                      const std::vector<ScenarioResult>& results) {
  auto out = open_or_throw(path);
  write_report_csv(out, results);
}

void write_result_json_object(std::ostream& out, const ScenarioResult& r,
                              const std::string& indent) {
  // Pretty (report) and compact (wire) modes share one schema: an empty
  // indent collapses every break to a single space-free line, which is
  // what the JSON-lines service protocol frames by.
  const bool pretty = !indent.empty();
  const std::string open = pretty ? "{\n" + indent + "  " : "{";
  const std::string sep = pretty ? ",\n" + indent + "  " : ", ";
  const std::string close = pretty ? "\n" + indent + "}" : "}";
  out << (pretty ? indent : "") << open;
  out << "\"label\": \"" << json_escape(r.label) << "\"" << sep;
  out << "\"line\": {"
      << "\"fermi_shift_ev\": " << json_number(r.line.fermi_shift_ev)
      << ", \"channels_per_shell\": " << json_number(r.line.channels_per_shell)
      << ", \"mfp_um\": " << json_number(r.line.mfp_um)
      << ", \"shells\": " << r.line.shells
      << ", \"resistance_kohm\": " << json_number(r.line.resistance_kohm)
      << ", \"capacitance_ff\": " << json_number(r.line.capacitance_ff)
      << ", \"electrostatic_cap_af_per_um\": "
      << json_number(r.line.electrostatic_cap_af_per_um)
      << ", \"delay_ps\": " << json_number(r.line.delay_ps)
      << ", \"delay_method\": \"" << json_escape(r.line.delay_method)
      << "\"}";
  if (r.noise) {
    out << sep << "\"noise\": {"
        << "\"peak_noise_v\": " << json_number(r.noise->peak_noise_v)
        << ", \"peak_time_s\": " << json_number(r.noise->peak_time_s)
        << ", \"worst_victim\": " << r.noise->worst_victim
        << ", \"aggressor_delay_s\": "
        << json_number(r.noise->aggressor_delay_s)
        << ", \"unknowns\": " << r.noise->unknowns << "}";
  }
  if (r.thermal) {
    out << sep << "\"thermal\": {"
        << "\"peak_rise_k\": " << json_number(r.thermal->peak_rise_k)
        << ", \"hot_resistance_kohm\": "
        << json_number(r.thermal->hot_resistance_kohm)
        << ", \"thermal_runaway\": "
        << (r.thermal->thermal_runaway ? "true" : "false")
        << ", \"ampacity_ua\": " << json_number(r.thermal->ampacity_ua)
        << ", \"current_density_a_cm2\": "
        << json_number(r.thermal->current_density_a_cm2)
        << ", \"cnt_em_immune\": "
        << (r.thermal->cnt_em_immune ? "true" : "false")
        << ", \"cu_reference_mttf_s\": "
        << json_number(r.thermal->cu_reference_mttf_s) << "}";
  }
  out << close;
}

void write_cache_stats_json_object(std::ostream& out, const MemoCache& cache,
                                   const std::string& indent) {
  const bool pretty = !indent.empty();
  const std::string open = pretty ? "{\n" + indent + "  " : "{";
  const std::string sep = pretty ? ",\n" + indent + "  " : ", ";
  const std::string close = pretty ? "\n" + indent + "}" : "}";
  out << open << "\"enabled\": " << (cache.enabled() ? "true" : "false")
      << sep << "\"stages\": {";
  const auto stats = cache.all_stats();
  bool first = true;
  for (const auto& [stage, s] : stats) {
    if (!first) out << ",";
    if (pretty) out << "\n" << indent << "    ";
    else if (!first) out << " ";
    out << "\"" << json_escape(stage) << "\": {\"hits\": " << s.hits
        << ", \"disk_hits\": " << s.disk_hits << ", \"misses\": " << s.misses
        << "}";
    first = false;
  }
  if (pretty && !first) out << "\n" << indent << "  ";
  out << "}" << close;
}

void write_report_json(std::ostream& out,
                       const std::vector<ScenarioResult>& results,
                       const MemoCache* cache) {
  out << "{\n  \"scenarios\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    write_result_json_object(out, results[i], "    ");
  }
  out << "\n  ]";
  if (cache != nullptr) {
    out << ",\n  \"cache\": ";
    write_cache_stats_json_object(out, *cache, "  ");
  }
  out << "\n}\n";
}

void write_report_json(const std::string& path,
                       const std::vector<ScenarioResult>& results,
                       const MemoCache* cache) {
  auto out = open_or_throw(path);
  write_report_json(out, results, cache);
}

}  // namespace cnti::scenario
