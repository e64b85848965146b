#include "serve/server.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>

#include "trace/scenario_json.hpp"

namespace spider::serve {

namespace {

constexpr std::size_t kReadChunk = 4096;
/// Longest request line a connection may send. A longer one is rejected
/// with "line-too-long" and the connection is closed, so one client cannot
/// grow the front thread's buffers without bound.
constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Best-effort non-blocking send of as much of `buf` as the socket takes;
/// returns false when the connection is dead.
bool flush_some(int fd, std::string& buf) {
  while (!buf.empty()) {
    const ssize_t n = ::send(fd, buf.data(), buf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      buf.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

std::string string_field(const util::Json& json, const char* key) {
  const util::Json* v = json.find(key);
  return v != nullptr ? v->string_or("") : std::string();
}

}  // namespace

ScenarioServer::ScenarioServer(ServerConfig config)
    : config_(std::move(config)),
      runner_(trace::RunnerOptions{.repetitions = 1,
                                   .jobs = 1,
                                   .tracing = config_.tracing}) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.queue_depth == 0) config_.queue_depth = 1;
}

ScenarioServer::~ScenarioServer() { shutdown(/*cancel_inflight=*/true); }

bool ScenarioServer::start(std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    for (int& fd : wake_fds_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    return false;
  };
  if (running_) return fail("server already running");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.empty() ||
      config_.socket_path.size() >= sizeof(addr.sun_path)) {
    return fail("socket path empty or longer than sun_path");
  }
  std::memcpy(addr.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket(): " + std::string(strerror(errno)));
  ::unlink(config_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind(" + config_.socket_path +
                "): " + std::string(strerror(errno)));
  }
  if (::listen(listen_fd_, 64) != 0) {
    return fail("listen(): " + std::string(strerror(errno)));
  }
  if (::pipe(wake_fds_) != 0) {
    return fail("pipe(): " + std::string(strerror(errno)));
  }
  if (!set_nonblocking(listen_fd_) || !set_nonblocking(wake_fds_[0]) ||
      !set_nonblocking(wake_fds_[1])) {
    return fail("fcntl(O_NONBLOCK): " + std::string(strerror(errno)));
  }

  draining_ = false;
  workers_stop_ = false;
  front_stop_ = false;
  shut_down_ = false;
  running_ = true;
  front_ = std::thread([this] { front_loop(); });
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  return true;
}

void ScenarioServer::shutdown(bool cancel_inflight) {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (shut_down_ || !running_) return;
  shut_down_ = true;

  // 1. Stop admitting: the front answers new runs with "shutting-down".
  draining_ = true;
  if (cancel_inflight) {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    for (const LiveRun& run : live_) run.token->request_cancel();
  }

  // 2. Drain: workers exit once the admitted queue is empty.
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    workers_stop_ = true;
  }
  jobs_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();

  // 3. Flush: the front keeps polling until the outboxes are empty (or a
  //    short grace period expires for clients that stopped reading).
  front_stop_ = true;
  wake_front();
  front_.join();

  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  ::unlink(config_.socket_path.c_str());
  running_ = false;
}

obs::MetricsRegistry ScenarioServer::metrics_snapshot() const {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  return metrics_;
}

void ScenarioServer::count(std::string_view name, double v) {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  metrics_.count(name, v);
}

void ScenarioServer::gauge_max(std::string_view name, double v) {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  if (v > metrics_.value(name)) metrics_.gauge(name, v);
}

void ScenarioServer::wake_front() {
  const char byte = 'w';
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

void ScenarioServer::push_response(std::uint64_t conn_id, std::string line) {
  {
    std::lock_guard<std::mutex> lock(responses_mu_);
    responses_.emplace_back(conn_id, std::move(line));
  }
  wake_front();
}

// ---------------------------------------------------------------------------
// Front thread: accept, read, parse, admit, write.
// ---------------------------------------------------------------------------

void ScenarioServer::read_lines(std::uint64_t conn_id, Connection& conn,
                                const char* data, std::size_t n) {
  // Between calls the inbox holds only an unterminated tail, so the search
  // for newlines starts at the new bytes, and the consumed prefix is erased
  // once per call rather than once per line.
  std::size_t scan = conn.inbox.size();
  conn.inbox.append(data, n);
  std::size_t start = 0;
  for (std::size_t nl; (nl = conn.inbox.find('\n', scan)) != std::string::npos;
       scan = start = nl + 1) {
    std::string_view line(conn.inbox.data() + start, nl - start);
    if (line.size() > kMaxLineBytes) break;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) handle_line(conn_id, conn, line);
  }
  if (conn.inbox.size() - start > kMaxLineBytes) {
    count("serve.rejected_line_too_long");
    conn.outbox += make_reject_response(
        "", "line-too-long",
        "request line exceeds " + std::to_string(kMaxLineBytes) + " bytes");
    conn.outbox += '\n';
    conn.inbox.clear();
    conn.closing = true;
    return;
  }
  conn.inbox.erase(0, start);
}

void ScenarioServer::handle_line(std::uint64_t conn_id, Connection& conn,
                                 std::string_view line) {
  count("serve.requests");
  std::string parse_error;
  const std::optional<util::Json> json = util::Json::parse(line, &parse_error);
  if (!json.has_value() || !json->is_object()) {
    count("serve.invalid_requests");
    conn.outbox += make_reject_response(
        "", "invalid-request",
        parse_error.empty() ? "request is not a JSON object" : parse_error);
    conn.outbox += '\n';
    return;
  }
  const std::string id = string_field(*json, "id");
  const std::string op = string_field(*json, "op");

  if (op == "ping") {
    conn.outbox += make_pong_response(id);
    conn.outbox += '\n';
    return;
  }
  if (op == "metrics") {
    std::ostringstream os;
    os << "{\"id\":\"" << util::json_escape(id)
       << "\",\"ok\":true,\"metrics\":";
    {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      metrics_.write_json(os);
    }
    os << "}\n";
    conn.outbox += os.str();
    return;
  }
  if (op != "run") {
    count("serve.invalid_requests");
    conn.outbox += make_reject_response(id, "invalid-request",
                                        "unknown op '" + op + "'");
    conn.outbox += '\n';
    return;
  }

  const util::Json* scenario_json = json->find("scenario");
  Job job;
  job.conn_id = conn_id;
  job.request_id = id;
  std::string scenario_error;
  if (scenario_json == nullptr ||
      !trace::parse_scenario_json(*scenario_json, &job.scenario,
                                  &scenario_error)) {
    count("serve.invalid_requests");
    conn.outbox += make_reject_response(
        id, "invalid-request",
        scenario_error.empty() ? "missing scenario object" : scenario_error);
    conn.outbox += '\n';
    return;
  }
  if (const util::Json* deadline = json->find("deadline_ms")) {
    job.deadline_ms = deadline->number_or(0.0);
  }
  // Surface config errors at admission so a bad sweep fails fast instead
  // of occupying queue slots (run_bounded re-validates regardless).
  if (const std::vector<trace::ConfigIssue> issues = job.scenario.validate();
      !issues.empty()) {
    count("serve.rejected_invalid_config");
    conn.outbox += make_error_response(
        id, trace::RunError{trace::RunErrorKind::kInvalidConfig,
                            trace::join_issues(issues)});
    conn.outbox += '\n';
    return;
  }
  if (draining_) {
    count("serve.rejected_shutdown");
    conn.outbox +=
        make_reject_response(id, "shutting-down", "server is draining");
    conn.outbox += '\n';
    return;
  }

  job.token = std::make_shared<sim::CancelToken>();
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    if (queue_.size() >= config_.queue_depth) {
      count("serve.rejected_overload");
      conn.outbox += make_reject_response(id, "overloaded",
                                          "admission queue full",
                                          config_.retry_after_ms);
      conn.outbox += '\n';
      return;
    }
    live_.push_back({conn_id, job.token});
    queue_.push_back(std::move(job));
    gauge_max("serve.queue_peak", static_cast<double>(queue_.size()));
  }
  count("serve.admitted");
  jobs_cv_.notify_one();
}

void ScenarioServer::close_connection(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::close(it->second.fd);
  conns_.erase(it);
  // Abandoned work is cancelled so it never occupies the pool.
  std::lock_guard<std::mutex> lock(jobs_mu_);
  for (const LiveRun& run : live_) {
    if (run.conn_id == conn_id && run.token->request_cancel()) {
      count("serve.cancelled_disconnect");
    }
  }
}

void ScenarioServer::front_loop() {
  using clock = std::chrono::steady_clock;
  std::optional<clock::time_point> flush_deadline;
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn;  // conn id per fds[] entry (0 = none)

  while (true) {
    // Merge worker responses into connection outboxes; responses for
    // connections that went away are dropped.
    {
      std::lock_guard<std::mutex> lock(responses_mu_);
      while (!responses_.empty()) {
        auto& [conn_id, line] = responses_.front();
        auto it = conns_.find(conn_id);
        if (it != conns_.end()) {
          it->second.outbox += line;
          it->second.outbox += '\n';
        }
        responses_.pop_front();
      }
    }

    if (front_stop_) {
      bool pending = false;
      for (const auto& [conn_id, conn] : conns_) {
        pending = pending || !conn.outbox.empty();
      }
      if (!flush_deadline.has_value()) {
        flush_deadline = clock::now() + std::chrono::seconds(2);
      }
      if (!pending || clock::now() > *flush_deadline) break;
    }

    fds.clear();
    fd_conn.clear();
    fds.push_back({wake_fds_[0], POLLIN, 0});
    fd_conn.push_back(0);
    // Keep accepting while draining: late clients get an explicit
    // "shutting-down" rejection instead of a connection that hangs.
    if (listen_fd_ >= 0 && !front_stop_) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_conn.push_back(0);
    }
    for (const auto& [conn_id, conn] : conns_) {
      short events = conn.closing ? 0 : POLLIN;
      if (!conn.outbox.empty()) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
      fd_conn.push_back(conn_id);
    }

    const int ready = ::poll(fds.data(), fds.size(), 50);
    if (ready < 0 && errno != EINTR) break;

    std::vector<std::uint64_t> dead;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      const pollfd& p = fds[i];
      if (p.revents == 0) continue;
      if (p.fd == wake_fds_[0]) {
        char drain[64];
        while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {}
        continue;
      }
      if (p.fd == listen_fd_) {
        for (;;) {
          const int cfd = ::accept(listen_fd_, nullptr, nullptr);
          if (cfd < 0) break;
          if (!set_nonblocking(cfd)) {
            ::close(cfd);
            continue;
          }
          const std::uint64_t conn_id = next_conn_id_++;
          conns_.emplace(conn_id, Connection{cfd, {}, {}});
          count("serve.connections");
        }
        continue;
      }
      const std::uint64_t conn_id = fd_conn[i];
      auto it = conns_.find(conn_id);
      if (it == conns_.end()) continue;
      Connection& conn = it->second;
      bool alive = true;
      if ((p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (p.revents & POLLIN) == 0) {
        alive = false;
      }
      if (alive && !conn.closing && (p.revents & POLLIN) != 0) {
        char buf[kReadChunk];
        while (!conn.closing) {
          const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
          if (n > 0) {
            read_lines(conn_id, conn, buf, static_cast<std::size_t>(n));
            continue;
          }
          if (n == 0) alive = false;  // orderly EOF
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
              errno != EINTR) {
            alive = false;
          }
          break;
        }
      }
      if (alive && (p.revents & POLLOUT) != 0) {
        alive = flush_some(conn.fd, conn.outbox);
      }
      if (conn.closing && conn.outbox.empty()) alive = false;
      if (!alive) dead.push_back(conn_id);
    }
    for (const std::uint64_t conn_id : dead) close_connection(conn_id);
  }

  for (auto& [conn_id, conn] : conns_) ::close(conn.fd);
  conns_.clear();
}

// ---------------------------------------------------------------------------
// Worker threads: pop, arm, (maybe stall), run, respond.
// ---------------------------------------------------------------------------

void ScenarioServer::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(jobs_mu_);
      jobs_cv_.wait(lock,
                    [this] { return workers_stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // workers_stop_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      const double effective = job.deadline_ms > 0.0
                                   ? job.deadline_ms
                                   : config_.default_deadline_ms;
      if (effective > 0.0) {
        job.token->arm_deadline_after(std::chrono::nanoseconds(
            static_cast<std::int64_t>(effective * 1e6)));
      }
      ++inflight_;
      gauge_max("serve.inflight_peak", static_cast<double>(inflight_));
    }

    // Fault-injection stall (tests only): hold the run, polling its token
    // as the simulator would, so the armed deadline or a cancel ends it.
    if (config_.stall_seed != 0 && job.scenario.seed == config_.stall_seed &&
        !stall_consumed_.exchange(true)) {
      count("serve.stalls_injected");
      const auto slice = std::chrono::milliseconds(1);
      const int slices = static_cast<int>(config_.stall_ms);
      for (int s = 0; s < slices && !job.token->should_stop(); ++s) {
        std::this_thread::sleep_for(slice);
      }
    }

    const trace::RunOutcome outcome =
        runner_.run_bounded(job.scenario, job.token.get());

    std::string response;
    if (outcome.ok()) {
      count("serve.runs_ok");
      response = make_ok_run_response(job.request_id,
                                      RunStats::from_result(*outcome.result));
    } else {
      count("serve.runs_failed");
      if (outcome.error->kind == trace::RunErrorKind::kDeadlineExceeded) {
        count("serve.deadline_exceeded");
      }
      std::optional<RunStats> partial;
      if (outcome.result.has_value()) {
        partial = RunStats::from_result(*outcome.result);
      }
      response = make_error_response(
          job.request_id, *outcome.error, /*retry_after_ms=*/0.0,
          partial.has_value() ? &*partial : nullptr);
    }
    // Retire the run BEFORE publishing the response: once the client
    // can see the result it may disconnect immediately, and a finished
    // run must not be counted as cancelled-by-disconnect.
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      --inflight_;
      live_.erase(std::find_if(
          live_.begin(), live_.end(),
          [&](const LiveRun& run) { return run.token == job.token; }));
    }

    push_response(job.conn_id, std::move(response));
  }
}

}  // namespace spider::serve
