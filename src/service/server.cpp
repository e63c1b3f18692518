#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <sstream>

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
  obs::Gauge queue_depth = obs::gauge("cnti.service.queue_depth");
  obs::Histogram request_hist = obs::histogram("cnti.service.request_ns");
  obs::Histogram dispatch_hist = obs::histogram("cnti.service.dispatch_ns");
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
    dispatcher_running_ = true;
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
  dispatch_thread_ = std::thread([this] { dispatch_loop(); });
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
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

void ScenarioServer::dispatch_loop() {
  while (true) {
    std::vector<std::shared_ptr<Job>> batch_jobs;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock,
                     [&] { return !queue_.empty() || !dispatcher_running_; });
      if (queue_.empty() && !dispatcher_running_) return;
      // Coalesce everything currently queued into one engine batch: the
      // queue-batching contract that lets N clients share cache locality.
      batch_jobs.assign(queue_.begin(), queue_.end());
      queue_.clear();
      dispatch_in_flight_ = true;
      ++batches_dispatched_;
    }
    service_obs().queue_depth.set(0.0);
    std::vector<scenario::Scenario> merged;
    for (const auto& job : batch_jobs) {
      merged.insert(merged.end(), job->scenarios.begin(),
                    job->scenarios.end());
    }
    service_obs().batches.add();
    service_obs().scenarios.add(merged.size());
    const obs::ObsSpan dispatch_span("service.dispatch", "service",
                                     service_obs().dispatch_hist);
    try {
      std::vector<scenario::ScenarioResult> results =
          engine_.run_batch(merged);
      std::size_t offset = 0;
      for (const auto& job : batch_jobs) {
        const std::size_t n = job->scenarios.size();
        job->promise.set_value(std::vector<scenario::ScenarioResult>(
            results.begin() + static_cast<std::ptrdiff_t>(offset),
            results.begin() + static_cast<std::ptrdiff_t>(offset + n)));
        offset += n;
      }
    } catch (...) {
      // One poisoned scenario fails the merged batch; every waiting client
      // gets the exception (their connections report it and stay open).
      for (const auto& job : batch_jobs) {
        job->promise.set_exception(std::current_exception());
      }
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      dispatch_in_flight_ = false;
    }
    drained_cv_.notify_all();
  }
}

void ScenarioServer::serve_connection(int fd) {
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
  ::close(fd);
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
      out << "{\"type\": \"stats\", \"batches_dispatched\": "
          << batches_dispatched() << ", \"cache\": ";
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
      // Validate now, per request, so a bad scenario errors this client
      // instead of poisoning the coalesced batch everyone shares.
      core::validate_multiscale_input(scenario::to_multiscale_input(s));
      scenarios.push_back(std::move(s));
    }

    auto job = std::make_shared<Job>();
    job->scenarios = std::move(scenarios);
    std::future<std::vector<scenario::ScenarioResult>> fut =
        job->promise.get_future();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!accepting_jobs_) {
        send_line(fd, error_line("server is shutting down"));
        return;
      }
      queue_.push_back(job);
      service_obs().queue_depth.set(static_cast<double>(queue_.size()));
    }
    queue_cv_.notify_one();

    // The whole reply goes out in one write: a write per line would let
    // Nagle's algorithm hold each later line until the client's delayed
    // ACK of the previous one (~40 ms per reply).
    const std::vector<scenario::ScenarioResult> results = fut.get();
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
    std::unique_lock<std::mutex> lock(mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
    accepting_jobs_ = false;  // new "run" requests are refused...
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();

  // ...but everything already queued is drained first: accepted work is
  // never dropped by a graceful stop.
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained_cv_.wait(lock,
                     [&] { return queue_.empty() && !dispatch_in_flight_; });
    dispatcher_running_ = false;
  }
  queue_cv_.notify_all();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();

  // Shut the listener down so the accept loop unblocks and exits; the
  // descriptor is closed and reset only after the join, so accept_loop
  // never reads listen_fd_ while it is being written.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Half-close the connections (SHUT_RD): their readers see EOF and exit,
  // but any response still being streamed flushes unharmed.
  {
    const std::lock_guard<std::mutex> lock(conn_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
  }
  std::list<std::thread> threads;
  {
    const std::lock_guard<std::mutex> lock(conn_mu_);
    threads.swap(conn_threads_);
    conn_fds_.clear();
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  obs::set_timing_enabled(false);
}

bool ScenarioServer::wait_for_shutdown_request(
    std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return shutdown_cv_.wait_for(lock, timeout,
                               [&] { return shutdown_requested_; });
}

std::uint64_t ScenarioServer::batches_dispatched() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return batches_dispatched_;
}

}  // namespace cnti::service
