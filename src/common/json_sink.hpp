// JSON string escaping and the flat name -> value metric sink behind the
// benches' CNTI_BENCH_JSON trajectory files (and the scenario engine's JSON
// reports). Formerly bench-private; hoisted here so it is unit-testable and
// shared. The sink *rejects* duplicate metric names (including a
// string/number collision on the same name and the reserved "bench" field)
// instead of silently emitting duplicate-key JSON that parsers resolve by
// overwriting.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>

#include "common/atomic_file.hpp"
#include "common/error.hpp"

namespace cnti {

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes and control characters).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
      continue;
    }
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Formats a double as a JSON value; non-finite values become null (JSON
/// has no NaN/inf literal and a degenerate run must still parse).
inline std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream num;
  num.precision(17);
  num << value;
  return num.str();
}

/// Flat name -> value metric sink for machine-readable bench results.
/// Disabled (records silently dropped at write time) unless the
/// CNTI_BENCH_JSON environment variable names a target: either a file
/// ending in ".json" or a directory that receives BENCH_<bench name>.json.
/// Thread-safe: benches and the scenario service record metrics from pool
/// threads, so every accessor locks. The output file is published
/// atomically (write_file_atomic), so a process crash mid-write never
/// leaves a truncated .json for the CI artifact collector to trip over.
/// Nothing is synced to disk: a file cut short by a power loss fails to
/// parse loudly, and the bench is rerun.
class JsonMetricSink {
 public:
  static JsonMetricSink& instance() {
    static JsonMetricSink self;
    return self;
  }

  JsonMetricSink() = default;

  /// Bench name used in the default output filename (set once per binary).
  void set_name(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mu_);
    name_ = name;
  }

  void set(const std::string& key, double value) {
    const std::lock_guard<std::mutex> lock(mu_);
    check_new_key(key);
    numbers_[key] = value;
  }
  void set(const std::string& key, const std::string& value) {
    const std::lock_guard<std::mutex> lock(mu_);
    check_new_key(key);
    strings_[key] = value;
  }

  /// Writes the recorded metrics if CNTI_BENCH_JSON is set; returns the
  /// path written to (empty when disabled). Publication is atomic: the
  /// bytes land in a temp sibling first and rename onto the final path.
  std::string write() const {
    const char* target = std::getenv("CNTI_BENCH_JSON");
    if (target == nullptr || *target == '\0') return {};
    std::string path(target);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (path.size() < 5 || path.substr(path.size() - 5) != ".json") {
        path += "/BENCH_" +
                (name_.empty() ? std::string("unnamed") : name_) + ".json";
      }
    }
    std::ostringstream body;
    write_to(body);
    try {
      write_file_atomic(path, body.str());
    } catch (const std::exception& e) {
      std::cerr << "bench: cannot write JSON results to " << path << ": "
                << e.what() << "\n";
      return {};
    }
    return path;
  }

  /// Emits the metric object to an arbitrary stream (unit-test seam).
  void write_to(std::ostream& out) const {
    const std::lock_guard<std::mutex> lock(mu_);
    out << "{\n  \"bench\": \"" << json_escape(name_) << "\"";
    for (const auto& [key, value] : strings_) {
      out << ",\n  \"" << json_escape(key) << "\": \"" << json_escape(value)
          << "\"";
    }
    for (const auto& [key, value] : numbers_) {
      out << ",\n  \"" << json_escape(key) << "\": " << json_number(value);
    }
    out << "\n}\n";
  }

 private:
  void check_new_key(const std::string& key) const {  // callers hold mu_
    CNTI_EXPECTS(key != "bench",
                 "metric name \"bench\" is reserved for the bench name");
    CNTI_EXPECTS(numbers_.find(key) == numbers_.end() &&
                     strings_.find(key) == strings_.end(),
                 "duplicate metric name \"" + key +
                     "\" (metrics are write-once; a repeat would emit "
                     "duplicate JSON keys)");
  }

  mutable std::mutex mu_;
  std::string name_;
  std::map<std::string, double> numbers_;
  std::map<std::string, std::string> strings_;
};

}  // namespace cnti
