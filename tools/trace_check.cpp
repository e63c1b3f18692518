// trace_check — structural validator for the trace files the observability
// layer emits (CNTI_TRACE / obs::TraceSession::write_json). Parses the file
// with the service's strict JSON reader (duplicate keys and over-deep
// nesting are hard errors, not quirks), then checks the Chrome trace-event
// contract the spans are supposed to satisfy:
//
//   - top level is {"displayTimeUnit", "droppedEvents", "traceEvents",
//     ["metrics"]}, and droppedEvents is 0 (a lossy trace fails);
//   - every event is a complete "X" (duration) event with name/cat/pid/tid
//     and non-negative ts/dur;
//   - optionally, that at least --min-events events exist and that every
//     tier named in --require-tiers appears as some event's "cat".
//
//   trace_check --trace PATH [--min-events N]
//               [--require-tiers solver,rom,cache,engine,service]
//
// Exits 0 on a well-formed trace, 1 on any violation (with a diagnostic on
// stderr) — the CI trace-smoke job's gate.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "service/json.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --trace PATH [--min-events N]"
               " [--require-tiers tier1,tier2,...]\n";
  return 2;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(s);
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int fail(const std::string& why) {
  std::cerr << "trace_check: " << why << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using cnti::service::JsonValue;

  std::string trace_path;
  long min_events = 1;
  std::vector<std::string> required_tiers;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace" && has_value) {
      trace_path = argv[++i];
    } else if (arg == "--min-events" && has_value) {
      min_events = std::atol(argv[++i]);
    } else if (arg == "--require-tiers" && has_value) {
      required_tiers = split_csv(argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }
  if (trace_path.empty()) return usage(argv[0]);

  std::ifstream in(trace_path);
  if (!in) return fail("cannot open \"" + trace_path + "\"");
  std::ostringstream buf;
  buf << in.rdbuf();

  JsonValue root;
  try {
    root = cnti::service::parse_json(buf.str());
  } catch (const std::exception& e) {
    return fail(std::string("invalid JSON: ") + e.what());
  }

  try {
    if (!root.is_object()) return fail("top level is not an object");
    for (const auto& [key, value] : root.as_object()) {
      if (key != "displayTimeUnit" && key != "droppedEvents" &&
          key != "traceEvents" && key != "metrics") {
        return fail("unexpected top-level member \"" + key + "\"");
      }
      (void)value;
    }
    if (root.at("displayTimeUnit").as_string() != "ms") {
      return fail("displayTimeUnit is not \"ms\"");
    }
    const double dropped = root.at("droppedEvents").as_number();
    if (dropped != 0.0) {
      return fail(std::to_string(static_cast<long long>(dropped)) +
                  " events were dropped (a trace ring overflowed)");
    }

    const auto& events = root.at("traceEvents").as_array();
    long complete_events = 0;
    std::vector<std::string> seen_tiers;
    for (const JsonValue& ev : events) {
      const std::string& name = ev.at("name").as_string();
      const std::string& cat = ev.at("cat").as_string();
      if (name.empty()) return fail("event with empty name");
      if (cat.empty()) return fail("event with empty cat (tier)");
      if (ev.at("ph").as_string() != "X") {
        return fail("event \"" + name + "\" is not a complete (\"X\") event");
      }
      if (ev.at("pid").as_number() != 1.0) {
        return fail("event \"" + name + "\" has pid != 1");
      }
      if (ev.at("tid").as_number() < 0) {
        return fail("event \"" + name + "\" has negative tid");
      }
      if (ev.at("ts").as_number() < 0 || ev.at("dur").as_number() < 0) {
        return fail("event \"" + name + "\" has negative ts/dur");
      }
      ++complete_events;
      bool known = false;
      for (const std::string& t : seen_tiers) {
        if (t == cat) {
          known = true;
          break;
        }
      }
      if (!known) seen_tiers.push_back(cat);
    }

    if (complete_events < min_events) {
      return fail("only " + std::to_string(complete_events) +
                  " events (expected >= " + std::to_string(min_events) + ")");
    }
    for (const std::string& want : required_tiers) {
      bool found = false;
      for (const std::string& t : seen_tiers) {
        if (t == want) {
          found = true;
          break;
        }
      }
      if (!found) return fail("required tier \"" + want + "\" never appears");
    }

    // The metrics side-car, when present, must at least hold the three
    // registry sections (deep validation lives in the protocol parser).
    if (const JsonValue* metrics = root.find("metrics")) {
      for (const char* section : {"counters", "gauges", "histograms"}) {
        if (!metrics->at(section).is_object()) {
          return fail(std::string("metrics.") + section + " is not an object");
        }
      }
    }

    std::cout << "trace_check: OK — " << complete_events << " events across "
              << seen_tiers.size() << " tiers (";
    for (std::size_t i = 0; i < seen_tiers.size(); ++i) {
      if (i > 0) std::cout << ", ";
      std::cout << seen_tiers[i];
    }
    std::cout << ")\n";
  } catch (const std::exception& e) {
    return fail(std::string("malformed trace: ") + e.what());
  }
  return 0;
}
