#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <sstream>
#include <system_error>

#include "common/json_sink.hpp"
#include "obs/obs.hpp"
#include "scenario/report.hpp"
#include "service/disk_cache.hpp"

namespace cnti::service {

namespace {

[[noreturn]] void sys_fail(const char* what) {
  throw std::runtime_error(std::string("scenario server: ") + what + ": " +
                           std::strerror(errno));
}

/// Service-tier obs handles (`cnti.service.*`).
struct ServiceObs {
  obs::Counter connections = obs::counter("cnti.service.connections");
  obs::Counter requests = obs::counter("cnti.service.requests");
  obs::Counter errors = obs::counter("cnti.service.errors");
  obs::Counter batches = obs::counter("cnti.service.batches");
  obs::Counter scenarios = obs::counter("cnti.service.scenarios");
  obs::Counter writes = obs::counter("cnti.service.writes");
  obs::Histogram request_hist = obs::histogram("cnti.service.request_ns");
};

const ServiceObs& service_obs() {
  static const ServiceObs handles;
  return handles;
}

/// Sends the full buffer (looping over partial writes) and counts it as
/// one write. MSG_NOSIGNAL: a client that hung up must surface as an
/// error return, not SIGPIPE.
bool send_all(int fd, std::string_view bytes) {
  service_obs().writes.add();
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool send_line(int fd, const std::string& body) {
  return send_all(fd, body + "\n");
}

std::string error_line(const std::string& message) {
  return "{\"type\": \"error\", \"message\": \"" + json_escape(message) +
         "\"}";
}

/// Aggregate + per-stage disk-tier counters as a JSON object — the
/// warm-restart attribution block of the `stats` verb.
void write_disk_stats_json(std::ostream& out, const DiskCache& cache) {
  const DiskCacheStats t = cache.stats();
  out << "{\"totals\": {\"hits\": " << t.hits << ", \"misses\": " << t.misses
      << ", \"stores\": " << t.stores
      << ", \"store_failures\": " << t.store_failures
      << ", \"corrupt_evictions\": " << t.corrupt_evictions
      << ", \"lru_evictions\": " << t.lru_evictions
      << ", \"bytes\": " << t.bytes << ", \"entries\": " << t.entries
      << "}, \"stages\": {";
  bool first = true;
  for (const auto& [stage, s] : cache.stats_by_stage()) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << json_escape(stage) << "\": {\"hits\": " << s.hits
        << ", \"misses\": " << s.misses << ", \"stores\": " << s.stores
        << ", \"store_failures\": " << s.store_failures
        << ", \"corrupt_evictions\": " << s.corrupt_evictions << "}";
  }
  out << "}}";
}

}  // namespace

ScenarioServer::ScenarioServer(ServerOptions options)
    : options_(options), engine_(options.engine) {}

ScenarioServer::~ScenarioServer() { stop(); }

void ScenarioServer::start() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    CNTI_EXPECTS(!started_, "scenario server already started");
    started_ = true;
    accepting_jobs_ = true;
  }
  // The daemon always collects span latency histograms (the `metrics` verb
  // serves them live); stop() releases the reference symmetrically.
  obs::set_timing_enabled(true);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) sys_fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    sys_fail("bind 127.0.0.1");
  }
  if (::listen(listen_fd_, 64) < 0) sys_fail("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    sys_fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void ScenarioServer::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Listener shut down by stop() (EINVAL) — time to leave.
      return;
    }
    service_obs().connections.add();
    const std::lock_guard<std::mutex> lock(conn_mu_);
    // Reap the connections that closed since the last accept. A done
    // reader has already released conn_mu_, so the join cannot block on it.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (!it->done) {
        ++it;
        continue;
      }
      it->thread.join();
      it = conns_.erase(it);
    }
    Connection& conn = conns_.emplace_back();
    conn.fd = fd;
    try {
      conn.thread = std::thread([this, &conn] { serve_connection(conn); });
    } catch (const std::system_error&) {
      // Out of threads: drop this connection and keep serving the others.
      ::close(fd);
      conns_.pop_back();
    }
  }
}

void ScenarioServer::serve_connection(Connection& conn) {
  const int fd = conn.fd;
  std::string buffer;
  char chunk[65536];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed, or stop() shut the socket down
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (buffer.size() > options_.max_request_bytes) {
      send_line(fd, error_line("request line exceeds limit"));
      break;
    }
    std::size_t nl;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      handle_request_line(fd, line);
    }
  }
  const std::lock_guard<std::mutex> lock(conn_mu_);
  ::close(fd);
  conn.done = true;
}

void ScenarioServer::handle_request_line(int fd, const std::string& line) {
  service_obs().requests.add();
  const obs::ObsSpan request_span("service.request", "service",
                                  service_obs().request_hist);
  try {
    const JsonValue req = parse_json(line);
    const std::string& type = req.at("type").as_string();
    if (type == "ping") {
      send_line(fd, "{\"type\": \"pong\"}");
      return;
    }
    if (type == "stats") {
      std::ostringstream out;
      out << "{\"type\": \"stats\", \"cache\": ";
      scenario::write_cache_stats_json_object(out, engine_.cache(), "");
      if (const auto disk = std::dynamic_pointer_cast<const DiskCache>(
              engine_.cache().tier())) {
        out << ", \"disk\": ";
        write_disk_stats_json(out, *disk);
      }
      out << "}";
      send_line(fd, out.str());
      return;
    }
    if (type == "metrics") {
      std::ostringstream out;
      out << "{\"type\": \"metrics\", \"metrics\": ";
      obs::write_metrics_json(out, obs::metrics_snapshot());
      out << "}";
      send_line(fd, out.str());
      return;
    }
    if (type == "shutdown") {
      send_line(fd, "{\"type\": \"bye\"}");
      {
        const std::lock_guard<std::mutex> lock(mu_);
        shutdown_requested_ = true;
      }
      shutdown_cv_.notify_all();
      return;
    }
    if (type != "run") {
      throw ProtocolError("unknown request type \"" + type + "\"");
    }

    std::vector<scenario::Scenario> scenarios;
    for (const JsonValue& v : req.at("scenarios").as_array()) {
      scenario::Scenario s = scenario_from_json(v);
      // Validate the whole request before running any of it, so a bad
      // scenario errors this client without a partial engine run.
      core::validate_multiscale_input(scenario::to_multiscale_input(s));
      scenarios.push_back(std::move(s));
    }

    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!accepting_jobs_) {
        send_line(fd, error_line("server is shutting down"));
        return;
      }
    }
    service_obs().batches.add();
    service_obs().scenarios.add(scenarios.size());
    const std::vector<scenario::ScenarioResult> results =
        engine_.run_batch(scenarios);

    // The whole reply goes out in one write: a write per line would let
    // Nagle's algorithm hold each later line until the client's delayed
    // ACK of the previous one (~40 ms per reply).
    std::ostringstream reply;
    for (std::size_t i = 0; i < results.size(); ++i) {
      reply << "{\"type\": \"result\", \"index\": " << i
            << ", \"result\": " << result_to_json(results[i]) << "}\n";
    }
    reply << "{\"type\": \"done\", \"count\": " << results.size()
          << ", \"cache\": ";
    scenario::write_cache_stats_json_object(reply, engine_.cache(), "");
    reply << "}\n";
    send_all(fd, reply.str());
  } catch (const std::exception& e) {
    service_obs().errors.add();
    send_line(fd, error_line(e.what()));
  }
}

void ScenarioServer::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
    accepting_jobs_ = false;  // new "run" requests are refused
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();

  // Shut the listener down so the accept loop unblocks and exits; the
  // descriptor is closed and reset only after the join, so accept_loop
  // never reads listen_fd_ while it is being written.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Half-close the open connections (SHUT_RD): their readers see EOF and
  // exit, but a run already accepted finishes and its reply still flushes.
  // With the accept thread gone, only stop() touches the list itself.
  {
    const std::lock_guard<std::mutex> lock(conn_mu_);
    for (const Connection& conn : conns_) {
      if (!conn.done) ::shutdown(conn.fd, SHUT_RD);
    }
  }
  for (Connection& conn : conns_) conn.thread.join();
  conns_.clear();
  obs::set_timing_enabled(false);
}

bool ScenarioServer::wait_for_shutdown_request(
    std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return shutdown_cv_.wait_for(lock, timeout,
                               [&] { return shutdown_requested_; });
}

}  // namespace cnti::service
