// perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--work-dir <dir>] [--trace-out <file>]
//
// Prints the run's notes, every metric as "name value unit", and as its
// last line the JSON result object. Exits 1 on a failed run, 2 on bad
// arguments.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

int usage(const std::string& problem) {
  std::cerr << "perfbench_driver: " << problem
            << "\nusage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--trace-out <file>]\nworkloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << ' ' << w;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  try {
    for (int i = 1; i < argc; i += 2) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        config.trace = value == "1";
      } else if (flag == "--work-dir") {
        config.work_dir = value;
      } else if (flag == "--trace-out") {
        config.trace_path = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (config.workload.empty()) return usage("--workload is required");
  if (!(config.seconds > 0)) return usage("--seconds must be positive");

  try {
    std::filesystem::create_directories(config.work_dir);
    const perfbench::RunResult result = perfbench::run(config);
    for (const std::string& note : result.notes) std::cout << note << "\n";
    for (const auto& [name, m] : result.metrics) {
      std::cout << name << ' ' << m.value << ' ' << m.unit << "\n";
    }
    std::cout << perfbench::result_json(result) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
