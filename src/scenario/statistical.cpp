#include "scenario/statistical.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/json_sink.hpp"
#include "numerics/rng.hpp"
#include "numerics/thread_pool.hpp"
#include "obs/obs.hpp"
#include "scenario/engine.hpp"
#include "scenario/report.hpp"
#include "service/json.hpp"

namespace cnti::scenario {

namespace {

void validate_spec(const VariabilitySpec& spec) {
  const double spans[] = {spec.resistance_span, spec.capacitance_span,
                          spec.coupling_span};
  for (const double s : spans) {
    CNTI_EXPECTS(s >= 0.0 && s < 1.0,
                 "VariabilitySpec: spans must lie in [0, 1)");
  }
}

/// 16-hex-digit fixed-width rendering of one key half (u64 does not
/// survive a JSON double, so keys travel as strings).
std::string hex_u64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

std::uint64_t parse_hex_u64(const std::string& s, const char* what) {
  if (s.size() != 16 ||
      s.find_first_not_of("0123456789abcdef") != std::string::npos) {
    throw service::ProtocolError(std::string("shard report: malformed ") +
                                 what);
  }
  std::uint64_t v = 0;
  for (const char c : s) {
    v = (v << 4) |
        static_cast<std::uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  return v;
}

/// Exact nonnegative integer from a JSON number (doubles are exact up to
/// 2^53 — far beyond any sample count this layer accepts).
std::uint64_t to_u64(const service::JsonValue& v, const char* what) {
  const double d = v.as_number();
  if (!(d >= 0.0) || d != std::floor(d) || d > 9.007199254740992e15) {
    throw service::ProtocolError(
        std::string("shard report: not a nonnegative integer: ") + what);
  }
  return static_cast<std::uint64_t>(d);
}

void write_kpi_array(std::ostream& out, const std::vector<double>& values) {
  out << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_number(values[i]);
  }
  out << "]";
}

std::vector<double> read_kpi_array(const service::JsonValue& v,
                                   bool allow_null, const char* what) {
  std::vector<double> out;
  out.reserve(v.as_array().size());
  for (const service::JsonValue& e : v.as_array()) {
    if (e.is_null()) {
      if (!allow_null) {
        throw service::ProtocolError(std::string("shard report: null in ") +
                                     what);
      }
      out.push_back(std::numeric_limits<double>::quiet_NaN());
    } else {
      out.push_back(e.as_number());
    }
  }
  return out;
}

void write_summary_json(std::ostream& out, const numerics::Summary& s) {
  out << "{\"count\": " << s.count << ", \"mean\": " << json_number(s.mean)
      << ", \"stddev\": " << json_number(s.stddev)
      << ", \"min\": " << json_number(s.min)
      << ", \"max\": " << json_number(s.max)
      << ", \"median\": " << json_number(s.median)
      << ", \"p05\": " << json_number(s.p05)
      << ", \"p95\": " << json_number(s.p95) << "}";
}

void write_summary_csv_row(std::ostream& out, const char* kpi,
                           const numerics::Summary& s) {
  out << kpi << ',' << s.count << ',' << csv_number(s.mean) << ','
      << csv_number(s.stddev) << ',' << csv_number(s.min) << ','
      << csv_number(s.max) << ',' << csv_number(s.median) << ','
      << csv_number(s.p05) << ',' << csv_number(s.p95) << '\n';
}

}  // namespace

rom::BusTechBox tech_box(const VariabilitySpec& spec) {
  validate_spec(spec);
  rom::BusTechBox box;
  box.lo = {1.0 - spec.resistance_span, 1.0 - spec.capacitance_span,
            1.0 - spec.coupling_span};
  box.hi = {1.0 + spec.resistance_span, 1.0 + spec.capacitance_span,
            1.0 + spec.coupling_span};
  return box;
}

rom::BusTechPoint sample_tech_point(const VariabilitySpec& spec,
                                    std::uint64_t sample_id) {
  validate_spec(spec);
  const numerics::Rng sample_stream =
      numerics::Rng(spec.seed).fork(sample_id);
  const auto draw = [&](std::uint64_t axis, double span) {
    if (span == 0.0) return 1.0;  // pinned axis: no stream consumed
    numerics::Rng axis_stream = sample_stream.fork(axis);
    return axis_stream.uniform(1.0 - span, 1.0 + span);
  };
  return {draw(0, spec.resistance_span), draw(1, spec.capacitance_span),
          draw(2, spec.coupling_span)};
}

std::pair<std::uint64_t, std::uint64_t> shard_range(std::uint64_t total,
                                                    std::uint64_t index,
                                                    std::uint64_t count) {
  CNTI_EXPECTS(count >= 1, "shard_range: need at least one shard");
  CNTI_EXPECTS(index < count, "shard_range: shard index out of range");
  return {index * total / count, (index + 1) * total / count};
}

StatisticalStudy reduce_shards(std::vector<StatisticalShard> shards) {
  CNTI_EXPECTS(!shards.empty(), "reduce_shards: no shards");
  // (begin, end) order so an empty shard sharing its begin with a full one
  // lands before it — the partition walk below needs that tie broken.
  std::sort(shards.begin(), shards.end(),
            [](const StatisticalShard& a, const StatisticalShard& b) {
              return a.begin != b.begin ? a.begin < b.begin : a.end < b.end;
            });
  const StatisticalShard& first = shards.front();

  StatisticalStudy study;
  study.study_key = first.study_key;
  study.samples = first.total_samples;

  numerics::Accumulator noise(static_cast<std::size_t>(study.samples));
  numerics::Accumulator delay(static_cast<std::size_t>(study.samples));
  std::uint64_t next = 0;
  for (const StatisticalShard& sh : shards) {
    CNTI_EXPECTS(sh.study_key.hi == study.study_key.hi &&
                     sh.study_key.lo == study.study_key.lo &&
                     sh.total_samples == study.samples,
                 "reduce_shards: shards describe different studies");
    CNTI_EXPECTS(sh.begin == next && sh.end >= sh.begin &&
                     sh.end <= study.samples,
                 "reduce_shards: shards do not partition the sample range");
    const std::size_t n = static_cast<std::size_t>(sh.end - sh.begin);
    CNTI_EXPECTS(sh.noise_v.size() == n && sh.delay_s.size() == n,
                 "reduce_shards: shard KPI arrays disagree with its range");
    // Stream in global sample order: the accumulator state (and therefore
    // every merged statistic, bit for bit) depends only on the sample
    // sequence, never on how it was sharded.
    for (std::size_t i = 0; i < n; ++i) {
      noise.add(sh.noise_v[i]);
      if (std::isfinite(sh.delay_s[i])) {
        delay.add(sh.delay_s[i]);
      } else {
        ++study.delay_invalid;
      }
    }
    next = sh.end;
  }
  CNTI_EXPECTS(next == study.samples,
               "reduce_shards: shards do not cover every sample");
  study.delay_valid = delay.count();
  if (noise.count() > 0) study.noise_v = noise.summary();
  if (delay.count() > 0) study.delay_s = delay.summary();
  return study;
}

void write_shard_json(std::ostream& out, const StatisticalShard& shard) {
  out << "{\n  \"schema\": \"cnti.shard.v1\",\n  \"study_key\": \""
      << hex_u64(shard.study_key.hi) << hex_u64(shard.study_key.lo)
      << "\",\n  \"total_samples\": " << shard.total_samples
      << ",\n  \"begin\": " << shard.begin << ",\n  \"end\": " << shard.end
      << ",\n  \"noise_v\": ";
  write_kpi_array(out, shard.noise_v);
  out << ",\n  \"delay_s\": ";
  write_kpi_array(out, shard.delay_s);
  out << "\n}\n";
}

StatisticalShard read_shard_json(const std::string& text) {
  const service::JsonValue doc = service::parse_json(text);
  // The service protocol's strictness: a typo'd hand-edited shard file
  // fails loudly instead of silently defaulting.
  service::check_members(doc, "shard report",
                         {"schema", "study_key", "total_samples", "begin",
                          "end", "noise_v", "delay_s"});
  if (doc.at("schema").as_string() != "cnti.shard.v1") {
    throw service::ProtocolError("shard report: unknown schema: " +
                                 doc.at("schema").as_string());
  }
  StatisticalShard shard;
  const std::string& key = doc.at("study_key").as_string();
  if (key.size() != 32) {
    throw service::ProtocolError("shard report: malformed study_key");
  }
  shard.study_key.hi = parse_hex_u64(key.substr(0, 16), "study_key");
  shard.study_key.lo = parse_hex_u64(key.substr(16), "study_key");
  shard.total_samples = to_u64(doc.at("total_samples"), "total_samples");
  shard.begin = to_u64(doc.at("begin"), "begin");
  shard.end = to_u64(doc.at("end"), "end");
  shard.noise_v = read_kpi_array(doc.at("noise_v"), false, "noise_v");
  shard.delay_s = read_kpi_array(doc.at("delay_s"), true, "delay_s");
  if (shard.begin > shard.end || shard.end > shard.total_samples ||
      shard.noise_v.size() != shard.end - shard.begin ||
      shard.delay_s.size() != shard.end - shard.begin) {
    throw service::ProtocolError(
        "shard report: sample range and KPI arrays disagree");
  }
  return shard;
}

void write_study_json(std::ostream& out, const StatisticalStudy& study) {
  out << "{\n  \"schema\": \"cnti.study.v1\",\n  \"study_key\": \""
      << hex_u64(study.study_key.hi) << hex_u64(study.study_key.lo)
      << "\",\n  \"samples\": " << study.samples
      << ",\n  \"delay_valid\": " << study.delay_valid
      << ",\n  \"delay_invalid\": " << study.delay_invalid
      << ",\n  \"noise_v\": ";
  write_summary_json(out, study.noise_v);
  out << ",\n  \"delay_s\": ";
  write_summary_json(out, study.delay_s);
  out << "\n}\n";
}

void write_study_csv(std::ostream& out, const StatisticalStudy& study) {
  out << "kpi,count,mean,stddev,min,max,median,p05,p95\n";
  write_summary_csv_row(out, "peak_noise_v", study.noise_v);
  write_summary_csv_row(out, "aggressor_delay_s", study.delay_s);
}

std::shared_ptr<const rom::ParametrizedBusRom>
ScenarioEngine::statistical_rom(const Scenario& s) const {
  validate_spec(s.variability);
  const core::MultiscaleInput in = to_multiscale_input(s);
  core::validate_multiscale_input(in);
  const LineStage front = line_stage(s, in);
  const circuit::BusTopology topology = to_bus_topology(s, front.line);
  const circuit::BusDrive drive = to_bus_drive(s);
  const rom::BusTechBox box = tech_box(s.variability);

  // One driven corner-anchored reduction per (topology, box, aggressor,
  // driver, load), shared across every sample, shard and thread of the
  // study: the study's drive is fixed, so its terminations are reduced
  // with the bus (vdd and the edge only shape the input and stay out of
  // the key). Memory-only: the reduction nests inside the per-sample
  // evaluations and is cheap relative to the study it unlocks.
  // .v2: sparse-LU blocked-kernel era (see engine.cpp's .v4 bumps).
  // .v3: driven reduction; the key carries the driver and the load.
  // .v4: corners terminated by rom::terminate_bus instead of stamped
  // netlist elements; last bits of the driven corners move.
  // .v5 (2026-10-18): corners reduce through the banded Cholesky factor
  // of the RC pencil; last bits of the corner bases move.
  // .v6 (2026-10-19): the bus components are projected once and summed
  // with the point's coefficients instead of blending 8 projected corners;
  // last bits of every sampled model move.
  // .v7 (2026-10-19): the driven basis grows a Krylov level at a time until
  // the estimated error is at most 1e-5 (q 51 -> 24 on the paper-bus
  // study); the merged order and last bits of every sampled model move.
  // .v8 (2026-10-19): the bus is stamped in its line modes (corner
  // factors at half-bandwidth 1, reciprocal pivots) and the bases merge by
  // CGS2; last bits of every sampled model move.
  KeyHasher prom_key("stage.bus-prom.v8");
  prom_key.add(topology.line.series_resistance_ohm)
      .add(topology.line.resistance_per_m)
      .add(topology.line.capacitance_per_m)
      .add(topology.line.inductance_per_m)
      .add(topology.coupling_cap_per_m)
      .add(topology.length_m)
      .add(topology.lines)
      .add(topology.segments)
      .add(drive.aggressor)
      .add(box.lo.resistance_scale)
      .add(box.lo.capacitance_scale)
      .add(box.lo.coupling_scale)
      .add(box.hi.resistance_scale)
      .add(box.hi.capacitance_scale)
      .add(box.hi.coupling_scale)
      .add(drive.driver_ohm)
      .add(drive.receiver_load_f);
  return cache_.get_or_compute<rom::ParametrizedBusRom>(
      stage::kBusProm, prom_key.key(), [&] {
        return std::make_shared<rom::ParametrizedBusRom>(topology, box, drive);
      });
}

StatisticalShard ScenarioEngine::run_statistical(const Scenario& s) const {
  CNTI_EXPECTS(s.variability.samples > 0,
               "run_statistical: variability.samples must be > 0");
  return run_statistical(
      s, 0, static_cast<std::uint64_t>(s.variability.samples));
}

StatisticalShard ScenarioEngine::run_statistical(const Scenario& s,
                                                 std::uint64_t begin,
                                                 std::uint64_t end) const {
  static const obs::Counter samples_counter =
      obs::counter("cnti.engine.samples");
  static const obs::Gauge rate_gauge = obs::gauge("cnti.engine.samples_per_s");
  const obs::ObsSpan stat_span("engine.run_statistical", "engine");
  const std::uint64_t t_stat0 = obs::now_ns();
  const VariabilitySpec& var = s.variability;
  CNTI_EXPECTS(var.samples > 0,
               "run_statistical: variability.samples must be > 0");
  validate_spec(var);
  CNTI_EXPECTS(s.analysis.noise,
               "run_statistical: the statistical KPIs are the coupled-bus "
               "noise/delay — enable analysis.noise");
  const std::uint64_t total = static_cast<std::uint64_t>(var.samples);
  CNTI_EXPECTS(begin <= end && end <= total,
               "run_statistical: invalid sample range");

  const auto prom = statistical_rom(s);
  const circuit::BusDrive drive = to_bus_drive(s);

  rom::BusScenario sc;
  sc.driver_ohm = drive.driver_ohm;
  sc.receiver_load_f = drive.receiver_load_f;
  sc.vdd_v = drive.vdd_v;
  sc.edge_time_s = drive.edge_time_s;

  StatisticalShard shard;
  shard.study_key = content_key(s);
  shard.total_samples = total;
  shard.begin = begin;
  shard.end = end;
  const std::size_t count = static_cast<std::size_t>(end - begin);
  shard.noise_v.assign(count, 0.0);
  shard.delay_s.assign(count, 0.0);
  // Slot-indexed per-sample evaluation: sample begin+i writes slot i, so
  // results are bit-identical at any thread count / chunk grain.
  numerics::parallel_chunks(
      count, options_.sweep.grain,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const rom::BusTechPoint p =
              sample_tech_point(var, begin + static_cast<std::uint64_t>(i));
          const circuit::BusCrosstalkResult r =
              prom->evaluate(p, sc, s.analysis.time_steps);
          shard.noise_v[i] = r.peak_noise_v;
          shard.delay_s[i] = r.aggressor_delay_s;
        }
      },
      options_.sweep.threads);
  samples_counter.add(count);
  const std::uint64_t elapsed_ns = obs::now_ns() - t_stat0;
  if (elapsed_ns > 0 && count > 0) {
    rate_gauge.set(static_cast<double>(count) * 1e9 /
                   static_cast<double>(elapsed_ns));
  }
  return shard;
}

}  // namespace cnti::scenario
