// Long-lived scenario daemon: a localhost TCP server speaking a JSON-lines
// protocol (one JSON document per '\n'-terminated line, both directions)
// that routes submitted Scenario batches through one shared ScenarioEngine.
//
// Requests:
//   {"type": "ping"}                           -> {"type": "pong"}
//   {"type": "stats"}                          -> {"type": "stats", ...}
//   {"type": "run", "scenarios": [{...}, ...]} -> streamed results:
//       {"type": "result", "index": 0, "result": {...}}   (one per scenario,
//       ...                                                 in order)
//       {"type": "done", "count": N, "cache": {...}}
//   {"type": "shutdown"}                       -> {"type": "bye"} and the
//       server begins a graceful stop (wait_for_shutdown_request unblocks).
//
// A malformed or invalid request produces {"type": "error", "message": ...}
// and leaves the connection usable — framing is per line, so one bad
// request cannot poison the next.
//
// Concurrency: each connection gets a reader thread, and a "run" request
// executes on that thread with a direct engine.run_batch call. Clients
// share work through the engine's memo cache, which computes each
// (stage, key) once even when connections ask for it at the same time, and
// results are bit-identical to direct ScenarioEngine::run calls because the
// engine is schedule-independent. Nothing bounds the number of connections
// yet, so concurrent engine runs are bounded only by open connections x
// sweep.threads. Graceful stop refuses new runs but lets every accepted
// run finish and reply before its thread is joined.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <thread>

#include "scenario/engine.hpp"
#include "service/protocol.hpp"

namespace cnti::service {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back via
  /// port() after start()).
  std::uint16_t port = 0;
  /// Engine configuration — cache tier (DiskCache), sweep threads, etc.
  scenario::EngineOptions engine;
  /// Hard bound on one request line; longer lines fail the connection
  /// (a runaway or hostile client must not exhaust server memory).
  std::size_t max_request_bytes = 64ull * 1024 * 1024;
};

class ScenarioServer {
 public:
  explicit ScenarioServer(ServerOptions options);
  ~ScenarioServer();

  ScenarioServer(const ScenarioServer&) = delete;
  ScenarioServer& operator=(const ScenarioServer&) = delete;

  /// Binds 127.0.0.1:<port> and starts the accept thread.
  /// Throws std::runtime_error if the socket cannot be set up.
  void start();

  /// The bound port (valid after start()).
  std::uint16_t port() const { return port_; }

  /// Graceful stop: refuse new runs, close the listener, shut the open
  /// connections' read side and join their threads. A run already
  /// accepted finishes and its client receives the full reply first.
  /// Idempotent.
  void stop();

  /// Blocks until a client sends {"type": "shutdown"} (or stop() is
  /// called); returns false on timeout. The caller still owns the actual
  /// stop() — typically the daemon main loop, which also watches signals.
  bool wait_for_shutdown_request(std::chrono::milliseconds timeout);

  const scenario::ScenarioEngine& engine() const { return engine_; }

 private:
  /// One accepted connection. The reader thread closes `fd` and sets
  /// `done` under conn_mu_, so stop() never shuts down a descriptor number
  /// the process has since reused; accept_loop joins done entries.
  struct Connection {
    int fd = -1;
    std::thread thread;
    bool done = false;
  };

  void accept_loop();
  void serve_connection(Connection& conn);
  void handle_request_line(int fd, const std::string& line);

  ServerOptions options_;
  scenario::ScenarioEngine engine_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;

  std::mutex mu_;
  std::condition_variable shutdown_cv_;
  bool accepting_jobs_ = false;
  bool shutdown_requested_ = false;
  bool started_ = false;
  bool stopped_ = false;

  std::mutex conn_mu_;
  std::list<Connection> conns_;
};

}  // namespace cnti::service
