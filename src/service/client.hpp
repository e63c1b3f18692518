// Client side of the scenario service's JSON-lines protocol: connects to a
// daemon on localhost, submits Scenario batches, and reassembles the
// streamed results. Results parsed off the wire are bit-identical to what
// a direct ScenarioEngine::run would return (max_digits10 serialization +
// strtod), which is the property the differential tests pin.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "scenario/engine.hpp"
#include "service/protocol.hpp"

namespace cnti::service {

class ScenarioClient {
 public:
  /// Connects to 127.0.0.1:<port>; throws std::runtime_error on failure.
  explicit ScenarioClient(std::uint16_t port);
  ~ScenarioClient();

  ScenarioClient(const ScenarioClient&) = delete;
  ScenarioClient& operator=(const ScenarioClient&) = delete;

  /// Submits a batch and blocks for the full result stream (in submission
  /// order). Throws ProtocolError on a server-reported error or a
  /// malformed stream.
  std::vector<scenario::ScenarioResult> run(
      const std::vector<scenario::Scenario>& scenarios);

  /// Per-stage cache stats reported by the server with the last run()'s
  /// "done" message (empty before the first run).
  const std::map<std::string, scenario::CacheStats>& last_cache_stats()
      const {
    return last_cache_stats_;
  }

  /// Round-trips a ping; false if the server is unreachable/hung up.
  bool ping();

  /// Fetches the server's cache stats without running anything.
  std::map<std::string, scenario::CacheStats> stats();

  /// Full `stats` reply as parsed JSON — includes the per-stage disk-tier
  /// breakdown ("disk".{"totals","stages"}) when the server runs one.
  JsonValue stats_raw();

  /// The server's metrics registry snapshot (the `metrics` wire verb):
  /// {"counters":{...},"gauges":{...},"histograms":{...}}.
  JsonValue metrics();

  /// Asks the daemon to shut down gracefully (accepted runs finish
  /// first); returns once the server acknowledges.
  void request_shutdown();

 private:
  void send_line(const std::string& body);
  /// Reads one '\n'-terminated line (blocking); throws on EOF.
  std::string read_line();

  int fd_ = -1;
  std::string buffer_;
  std::map<std::string, scenario::CacheStats> last_cache_stats_;
};

}  // namespace cnti::service
