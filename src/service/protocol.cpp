#include "service/protocol.hpp"

#include <cmath>
#include <cstdint>
#include <sstream>

#include "common/json_sink.hpp"
#include "scenario/report.hpp"

namespace cnti::service {

namespace {

[[noreturn]] void unknown_name(const char* what, const std::string& s) {
  throw ProtocolError(std::string("unknown ") + what + " \"" + s + "\"");
}

double num_or(const JsonValue& v, const char* key, double fallback) {
  const JsonValue* m = v.find(key);
  if (m == nullptr) return fallback;
  if (m->is_null()) return std::nan("");  // json_number emits null for these
  return m->as_number();
}

int int_or(const JsonValue& v, const char* key, int fallback) {
  const JsonValue* m = v.find(key);
  if (m == nullptr) return fallback;
  const double d = m->as_number();
  const int i = static_cast<int>(d);
  if (static_cast<double>(i) != d) {
    throw ProtocolError(std::string("member \"") + key +
                        "\" must be an integer");
  }
  return i;
}

bool bool_or(const JsonValue& v, const char* key, bool fallback) {
  const JsonValue* m = v.find(key);
  return m == nullptr ? fallback : m->as_bool();
}

std::string str_or(const JsonValue& v, const char* key,
                   const std::string& fallback) {
  const JsonValue* m = v.find(key);
  return m == nullptr ? fallback : m->as_string();
}

/// 64-bit seeds travel as 16-hex-digit strings: a JSON number is a double
/// and would silently drop the low bits of seeds past 2^53, breaking the
/// reproduce-by-seed contract.
std::string seed_to_wire(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

std::uint64_t seed_or(const JsonValue& v, const char* key,
                      std::uint64_t fallback) {
  const JsonValue* m = v.find(key);
  if (m == nullptr) return fallback;
  const std::string& s = m->as_string();
  if (s.size() != 16 ||
      s.find_first_not_of("0123456789abcdef") != std::string::npos) {
    throw ProtocolError(std::string("member \"") + key +
                        "\" must be a 16-hex-digit string");
  }
  std::uint64_t out = 0;
  for (const char c : s) {
    out = (out << 4) |
          static_cast<std::uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  return out;
}

}  // namespace

std::string to_wire(scenario::CapacitanceModel m) {
  switch (m) {
    case scenario::CapacitanceModel::kAnalytic: return "analytic";
    case scenario::CapacitanceModel::kTcad: return "tcad";
  }
  unknown_name("capacitance model", std::to_string(static_cast<int>(m)));
}

std::string to_wire(scenario::DelayModel m) {
  switch (m) {
    case scenario::DelayModel::kElmore: return "elmore";
    case scenario::DelayModel::kMnaTransient: return "mna-transient";
  }
  unknown_name("delay model", std::to_string(static_cast<int>(m)));
}

std::string to_wire(scenario::NoiseModel m) {
  switch (m) {
    case scenario::NoiseModel::kReducedOrder: return "reduced-order";
    case scenario::NoiseModel::kFullMna: return "full-mna";
  }
  unknown_name("noise model", std::to_string(static_cast<int>(m)));
}

std::string to_wire(atomistic::DopantSpecies s) {
  switch (s) {
    case atomistic::DopantSpecies::kIodineInternal: return "iodine-internal";
    case atomistic::DopantSpecies::kIodineExternal: return "iodine-external";
    case atomistic::DopantSpecies::kPtCl4External: return "ptcl4-external";
    case atomistic::DopantSpecies::kPtClInternal: return "ptcl-internal";
  }
  unknown_name("dopant species", std::to_string(static_cast<int>(s)));
}

scenario::CapacitanceModel capacitance_model_from_wire(const std::string& s) {
  if (s == "analytic") return scenario::CapacitanceModel::kAnalytic;
  if (s == "tcad") return scenario::CapacitanceModel::kTcad;
  unknown_name("capacitance model", s);
}

scenario::DelayModel delay_model_from_wire(const std::string& s) {
  if (s == "elmore") return scenario::DelayModel::kElmore;
  if (s == "mna-transient") return scenario::DelayModel::kMnaTransient;
  unknown_name("delay model", s);
}

scenario::NoiseModel noise_model_from_wire(const std::string& s) {
  if (s == "reduced-order") return scenario::NoiseModel::kReducedOrder;
  if (s == "full-mna") return scenario::NoiseModel::kFullMna;
  unknown_name("noise model", s);
}

atomistic::DopantSpecies dopant_from_wire(const std::string& s) {
  if (s == "iodine-internal") return atomistic::DopantSpecies::kIodineInternal;
  if (s == "iodine-external") return atomistic::DopantSpecies::kIodineExternal;
  if (s == "ptcl4-external") return atomistic::DopantSpecies::kPtCl4External;
  if (s == "ptcl-internal") return atomistic::DopantSpecies::kPtClInternal;
  unknown_name("dopant species", s);
}

std::string scenario_to_json(const scenario::Scenario& s) {
  std::ostringstream out;
  out << "{\"label\": \"" << json_escape(s.label) << "\"";
  out << ", \"tech\": {"
      << "\"outer_diameter_nm\": " << json_number(s.tech.outer_diameter_nm)
      << ", \"dopant\": \"" << to_wire(s.tech.dopant) << "\""
      << ", \"dopant_concentration\": "
      << json_number(s.tech.dopant_concentration)
      << ", \"temperature_k\": " << json_number(s.tech.temperature_k)
      << ", \"defect_spacing_um\": " << json_number(s.tech.defect_spacing_um)
      << ", \"contact_resistance_kohm\": "
      << json_number(s.tech.contact_resistance_kohm)
      << ", \"environment\": {"
      << "\"radius_m\": " << json_number(s.tech.environment.radius_m)
      << ", \"center_height_m\": "
      << json_number(s.tech.environment.center_height_m)
      << ", \"neighbor_pitch_m\": "
      << json_number(s.tech.environment.neighbor_pitch_m)
      << ", \"eps_r\": " << json_number(s.tech.environment.eps_r)
      << ", \"coupling_factor\": "
      << json_number(s.tech.environment.coupling_factor) << "}"
      << ", \"capacitance_model\": \"" << to_wire(s.tech.capacitance_model)
      << "\""
      << ", \"tcad_cells_per_side\": " << s.tech.tcad_cells_per_side << "}";
  out << ", \"workload\": {"
      << "\"length_um\": " << json_number(s.workload.length_um)
      << ", \"driver_resistance_kohm\": "
      << json_number(s.workload.driver_resistance_kohm)
      << ", \"load_capacitance_ff\": "
      << json_number(s.workload.load_capacitance_ff)
      << ", \"vdd_v\": " << json_number(s.workload.vdd_v)
      << ", \"edge_time_ps\": " << json_number(s.workload.edge_time_ps)
      << ", \"bus_lines\": " << s.workload.bus_lines
      << ", \"bus_segments\": " << s.workload.bus_segments
      << ", \"coupling_cap_af_per_um\": "
      << json_number(s.workload.coupling_cap_af_per_um)
      << ", \"aggressor\": " << s.workload.aggressor
      << ", \"operating_current_ua\": "
      << json_number(s.workload.operating_current_ua)
      << ", \"thermal_conductivity_w_mk\": "
      << json_number(s.workload.thermal_conductivity_w_mk)
      << ", \"substrate_coupling_w_mk\": "
      << json_number(s.workload.substrate_coupling_w_mk)
      << ", \"max_temperature_rise_k\": "
      << json_number(s.workload.max_temperature_rise_k) << "}";
  out << ", \"analysis\": {"
      << "\"delay\": " << (s.analysis.delay ? "true" : "false")
      << ", \"delay_model\": \"" << to_wire(s.analysis.delay_model) << "\""
      << ", \"noise\": " << (s.analysis.noise ? "true" : "false")
      << ", \"noise_model\": \"" << to_wire(s.analysis.noise_model) << "\""
      << ", \"thermal\": " << (s.analysis.thermal ? "true" : "false")
      << ", \"time_steps\": " << s.analysis.time_steps
      << ", \"delay_segments\": " << s.analysis.delay_segments << "}";
  out << ", \"variability\": {"
      << "\"seed\": \"" << seed_to_wire(s.variability.seed) << "\""
      << ", \"samples\": " << s.variability.samples
      << ", \"resistance_span\": " << json_number(s.variability.resistance_span)
      << ", \"capacitance_span\": "
      << json_number(s.variability.capacitance_span)
      << ", \"coupling_span\": " << json_number(s.variability.coupling_span)
      << "}";
  out << "}";
  return out.str();
}

scenario::Scenario scenario_from_json(const JsonValue& v) {
  check_members(v, "scenario",
                {"label", "tech", "workload", "analysis", "variability"});
  scenario::Scenario s;
  s.label = str_or(v, "label", "");
  if (const JsonValue* tech = v.find("tech")) {
    check_members(*tech, "tech",
                  {"outer_diameter_nm", "dopant", "dopant_concentration",
                   "temperature_k", "defect_spacing_um",
                   "contact_resistance_kohm", "environment",
                   "capacitance_model", "tcad_cells_per_side"});
    auto& t = s.tech;
    t.outer_diameter_nm =
        num_or(*tech, "outer_diameter_nm", t.outer_diameter_nm);
    if (const JsonValue* d = tech->find("dopant")) {
      t.dopant = dopant_from_wire(d->as_string());
    }
    t.dopant_concentration =
        num_or(*tech, "dopant_concentration", t.dopant_concentration);
    t.temperature_k = num_or(*tech, "temperature_k", t.temperature_k);
    t.defect_spacing_um =
        num_or(*tech, "defect_spacing_um", t.defect_spacing_um);
    t.contact_resistance_kohm =
        num_or(*tech, "contact_resistance_kohm", t.contact_resistance_kohm);
    if (const JsonValue* env = tech->find("environment")) {
      check_members(*env, "environment",
                    {"radius_m", "center_height_m", "neighbor_pitch_m",
                     "eps_r", "coupling_factor"});
      auto& e = t.environment;
      e.radius_m = num_or(*env, "radius_m", e.radius_m);
      e.center_height_m = num_or(*env, "center_height_m", e.center_height_m);
      e.neighbor_pitch_m =
          num_or(*env, "neighbor_pitch_m", e.neighbor_pitch_m);
      e.eps_r = num_or(*env, "eps_r", e.eps_r);
      e.coupling_factor = num_or(*env, "coupling_factor", e.coupling_factor);
    }
    if (const JsonValue* m = tech->find("capacitance_model")) {
      t.capacitance_model = capacitance_model_from_wire(m->as_string());
    }
    t.tcad_cells_per_side =
        int_or(*tech, "tcad_cells_per_side", t.tcad_cells_per_side);
  }
  if (const JsonValue* wl = v.find("workload")) {
    check_members(*wl, "workload",
                  {"length_um", "driver_resistance_kohm",
                   "load_capacitance_ff", "vdd_v", "edge_time_ps",
                   "bus_lines", "bus_segments", "coupling_cap_af_per_um",
                   "aggressor", "operating_current_ua",
                   "thermal_conductivity_w_mk", "substrate_coupling_w_mk",
                   "max_temperature_rise_k"});
    auto& w = s.workload;
    w.length_um = num_or(*wl, "length_um", w.length_um);
    w.driver_resistance_kohm =
        num_or(*wl, "driver_resistance_kohm", w.driver_resistance_kohm);
    w.load_capacitance_ff =
        num_or(*wl, "load_capacitance_ff", w.load_capacitance_ff);
    w.vdd_v = num_or(*wl, "vdd_v", w.vdd_v);
    w.edge_time_ps = num_or(*wl, "edge_time_ps", w.edge_time_ps);
    w.bus_lines = int_or(*wl, "bus_lines", w.bus_lines);
    w.bus_segments = int_or(*wl, "bus_segments", w.bus_segments);
    w.coupling_cap_af_per_um =
        num_or(*wl, "coupling_cap_af_per_um", w.coupling_cap_af_per_um);
    w.aggressor = int_or(*wl, "aggressor", w.aggressor);
    w.operating_current_ua =
        num_or(*wl, "operating_current_ua", w.operating_current_ua);
    w.thermal_conductivity_w_mk =
        num_or(*wl, "thermal_conductivity_w_mk", w.thermal_conductivity_w_mk);
    w.substrate_coupling_w_mk =
        num_or(*wl, "substrate_coupling_w_mk", w.substrate_coupling_w_mk);
    w.max_temperature_rise_k =
        num_or(*wl, "max_temperature_rise_k", w.max_temperature_rise_k);
  }
  if (const JsonValue* an = v.find("analysis")) {
    check_members(*an, "analysis",
                  {"delay", "delay_model", "noise", "noise_model", "thermal",
                   "time_steps", "delay_segments"});
    auto& a = s.analysis;
    a.delay = bool_or(*an, "delay", a.delay);
    if (const JsonValue* m = an->find("delay_model")) {
      a.delay_model = delay_model_from_wire(m->as_string());
    }
    a.noise = bool_or(*an, "noise", a.noise);
    if (const JsonValue* m = an->find("noise_model")) {
      a.noise_model = noise_model_from_wire(m->as_string());
    }
    a.thermal = bool_or(*an, "thermal", a.thermal);
    a.time_steps = int_or(*an, "time_steps", a.time_steps);
    a.delay_segments = int_or(*an, "delay_segments", a.delay_segments);
  }
  if (const JsonValue* var = v.find("variability")) {
    check_members(*var, "variability",
                  {"seed", "samples", "resistance_span", "capacitance_span",
                   "coupling_span"});
    auto& vr = s.variability;
    vr.seed = seed_or(*var, "seed", vr.seed);
    vr.samples = int_or(*var, "samples", vr.samples);
    vr.resistance_span = num_or(*var, "resistance_span", vr.resistance_span);
    vr.capacitance_span =
        num_or(*var, "capacitance_span", vr.capacitance_span);
    vr.coupling_span = num_or(*var, "coupling_span", vr.coupling_span);
  }
  return s;
}

std::string result_to_json(const scenario::ScenarioResult& r) {
  std::ostringstream out;
  scenario::write_result_json_object(out, r, "");
  return out.str();
}

scenario::ScenarioResult result_from_json(const JsonValue& v) {
  check_members(v, "result", {"label", "line", "noise", "thermal"});
  scenario::ScenarioResult r;
  r.label = str_or(v, "label", "");
  const JsonValue& line = v.at("line");
  check_members(line, "line",
                {"fermi_shift_ev", "channels_per_shell", "mfp_um", "shells",
                 "resistance_kohm", "capacitance_ff",
                 "electrostatic_cap_af_per_um", "delay_ps", "delay_method"});
  r.line.fermi_shift_ev = line.at("fermi_shift_ev").as_number();
  r.line.channels_per_shell = line.at("channels_per_shell").as_number();
  r.line.mfp_um = line.at("mfp_um").as_number();
  r.line.shells = int_or(line, "shells", 0);
  r.line.resistance_kohm = line.at("resistance_kohm").as_number();
  r.line.capacitance_ff = line.at("capacitance_ff").as_number();
  r.line.electrostatic_cap_af_per_um =
      line.at("electrostatic_cap_af_per_um").as_number();
  r.line.delay_ps = line.at("delay_ps").as_number();
  r.line.delay_method = line.at("delay_method").as_string();
  if (const JsonValue* noise = v.find("noise")) {
    check_members(*noise, "noise",
                  {"peak_noise_v", "peak_time_s", "worst_victim",
                   "aggressor_delay_s", "unknowns"});
    r.noise.emplace();
    r.noise->peak_noise_v = noise->at("peak_noise_v").as_number();
    r.noise->peak_time_s = noise->at("peak_time_s").as_number();
    r.noise->worst_victim = int_or(*noise, "worst_victim", -1);
    // null is the wire form of the never-crossed NaN sentinel (json_number
    // emits null for non-finite values).
    const JsonValue& delay = noise->at("aggressor_delay_s");
    r.noise->aggressor_delay_s =
        delay.is_null() ? std::nan("") : delay.as_number();
    r.noise->unknowns = int_or(*noise, "unknowns", 0);
  }
  if (const JsonValue* thermal = v.find("thermal")) {
    check_members(*thermal, "thermal",
                  {"peak_rise_k", "hot_resistance_kohm", "thermal_runaway",
                   "ampacity_ua", "current_density_a_cm2", "cnt_em_immune",
                   "cu_reference_mttf_s"});
    r.thermal.emplace();
    r.thermal->peak_rise_k = thermal->at("peak_rise_k").as_number();
    r.thermal->hot_resistance_kohm =
        thermal->at("hot_resistance_kohm").as_number();
    r.thermal->thermal_runaway = thermal->at("thermal_runaway").as_bool();
    r.thermal->ampacity_ua = thermal->at("ampacity_ua").as_number();
    r.thermal->current_density_a_cm2 =
        thermal->at("current_density_a_cm2").as_number();
    r.thermal->cnt_em_immune = thermal->at("cnt_em_immune").as_bool();
    r.thermal->cu_reference_mttf_s =
        thermal->at("cu_reference_mttf_s").as_number();
  }
  return r;
}

std::map<std::string, scenario::CacheStats> cache_stats_from_json(
    const JsonValue& stages) {
  std::map<std::string, scenario::CacheStats> out;
  for (const auto& [stage, counts] : stages.as_object()) {
    check_members(counts, "cache stage stats",
                  {"hits", "disk_hits", "misses"});
    scenario::CacheStats s;
    s.hits = static_cast<std::uint64_t>(int_or(counts, "hits", 0));
    s.disk_hits = static_cast<std::uint64_t>(int_or(counts, "disk_hits", 0));
    s.misses = static_cast<std::uint64_t>(int_or(counts, "misses", 0));
    out.emplace(stage, s);
  }
  return out;
}

namespace {

std::uint64_t as_u64(const JsonValue& v, const char* where) {
  const double d = v.as_number();
  if (d < 0 || d != std::floor(d)) {
    throw ProtocolError(std::string(where) +
                        ": expected a non-negative integer");
  }
  return static_cast<std::uint64_t>(d);
}

}  // namespace

obs::MetricsSnapshot metrics_snapshot_from_json(const JsonValue& v) {
  check_members(v, "metrics", {"counters", "gauges", "histograms"});
  obs::MetricsSnapshot snap;
  for (const auto& [name, value] : v.at("counters").as_object()) {
    snap.counters[name] = as_u64(value, "metrics counter");
  }
  for (const auto& [name, value] : v.at("gauges").as_object()) {
    snap.gauges[name] = value.as_number();
  }
  for (const auto& [name, value] : v.at("histograms").as_object()) {
    check_members(value, "metrics histogram", {"count", "sum_ns", "buckets"});
    obs::HistogramSnapshot h;
    h.count = as_u64(value.at("count"), "metrics histogram count");
    h.sum_ns = as_u64(value.at("sum_ns"), "metrics histogram sum_ns");
    for (const JsonValue& pair : value.at("buckets").as_array()) {
      const auto& kv = pair.as_array();
      if (kv.size() != 2) {
        throw ProtocolError("metrics histogram bucket: expected [index, n]");
      }
      const std::uint64_t index = as_u64(kv[0], "metrics bucket index");
      if (index >= obs::kHistogramBuckets) {
        throw ProtocolError("metrics bucket index out of range");
      }
      h.buckets[index] = as_u64(kv[1], "metrics bucket count");
    }
    snap.histograms[name] = h;
  }
  return snap;
}

}  // namespace cnti::service
