// scenario_server — the long-lived scenario daemon. Binds the JSON-lines
// service on 127.0.0.1, optionally layering a persistent DiskCache under
// the engine's memo cache so repeated studies across daemon restarts skip
// every previously computed stage.
//
//   scenario_server [--port N] [--cache-dir DIR] [--cache-max-mb N]
//                   [--threads N]
//
// Prints "SERVICE_PORT=<port>" once listening (scripts capture it when
// using an ephemeral --port 0). Exits 0 on SIGTERM/SIGINT or a client
// {"type": "shutdown"} — both let accepted runs finish and reply first.
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "service/disk_cache.hpp"
#include "service/server.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int) { g_signal = 1; }

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--port N] [--cache-dir DIR] [--cache-max-mb N]"
               " [--threads N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cnti;

  std::uint16_t port = 0;
  std::string cache_dir;
  std::uint64_t cache_max_mb = 256;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--port" && has_value) {
      port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--cache-dir" && has_value) {
      cache_dir = argv[++i];
    } else if (arg == "--cache-max-mb" && has_value) {
      cache_max_mb = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--threads" && has_value) {
      threads = std::atoi(argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }

  service::ServerOptions options;
  options.port = port;
  if (threads > 0) options.engine.sweep.threads = threads;
  if (!cache_dir.empty()) {
    service::DiskCacheOptions dco;
    dco.dir = cache_dir;
    dco.max_bytes = cache_max_mb * 1024 * 1024;
    options.engine.tier = std::make_shared<service::DiskCache>(dco);
  }

  try {
    service::ScenarioServer server(options);
    server.start();
    std::cout << "SERVICE_PORT=" << server.port() << std::endl;
    if (!cache_dir.empty()) {
      std::cout << "cache dir: " << cache_dir << " (max " << cache_max_mb
                << " MiB)" << std::endl;
    }

    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    while (g_signal == 0) {
      if (server.wait_for_shutdown_request(std::chrono::milliseconds(200))) {
        break;
      }
    }
    std::cout << "scenario_server: shutting down (finishing accepted runs)"
              << std::endl;
    server.stop();
  } catch (const std::exception& e) {
    std::cerr << "scenario_server: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
