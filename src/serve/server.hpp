#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include <condition_variable>

#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "sim/cancel.hpp"
#include "trace/runner.hpp"

namespace spider::serve {

/// Knobs of the resident scenario server. Paths must fit in sun_path
/// (108 bytes) — keep socket paths short and relative to the run
/// directory when possible.
struct ServerConfig {
  std::string socket_path;   ///< Unix stream socket to listen on
  std::size_t workers = 2;   ///< scenario worker threads (min 1)
  std::size_t queue_depth = 16;  ///< admitted-but-not-started bound
  /// Wall-clock budget applied to runs whose request carries no
  /// deadline_ms. 0 = unbounded (a stuck run then needs shutdown(true)).
  double default_deadline_ms = 0.0;
  /// Hint returned with "overloaded" rejections.
  double retry_after_ms = 50.0;
  bool tracing = false;  ///< flight-record each run (server-side only)

  /// In-process fault injection for tests and serve_smoke: the first
  /// admitted run whose seed equals stall_seed sleeps up to stall_ms
  /// before executing, polling its token like the simulator does, so an
  /// armed deadline or a cancel ends the stall and the run answers
  /// "deadline-exceeded" or "cancelled".
  std::uint64_t stall_seed = 0;  ///< 0 disables the hook
  double stall_ms = 0.0;
};

/// A resident scenario server: newline-delimited JSON requests over a
/// local stream socket, executed on a bounded worker pool through
/// trace::ScenarioRunner::run_bounded, responses streamed back as runs
/// finish (DESIGN.md §11).
///
///   {"op":"ping","id":"1"}
///   {"op":"metrics","id":"2"}
///   {"op":"run","id":"3","deadline_ms":5000,"scenario":{...}}
///
/// Robustness contract:
///  - admission is bounded: beyond queue_depth the request is rejected
///    with kind "overloaded" and a retry_after_ms hint, never queued
///    without bound;
///  - every admitted run carries a CancelToken; a deadline (request's or
///    the server default) is armed when a worker picks the run up, and
///    the run's own polls of that token end it once the deadline passes
///    ("deadline-exceeded" on the wire, partial result attached when one
///    exists; counted as "serve.deadline_exceeded");
///  - a client disconnect cancels that client's queued and in-flight
///    runs so abandoned work never occupies the pool;
///  - shutdown() drains admitted runs, answers new ones with
///    "shutting-down", flushes outboxes, then tears down; shutdown(true)
///    additionally cancels queued and in-flight runs first.
class ScenarioServer {
 public:
  explicit ScenarioServer(ServerConfig config);
  ~ScenarioServer();

  ScenarioServer(const ScenarioServer&) = delete;
  ScenarioServer& operator=(const ScenarioServer&) = delete;

  /// Binds, listens, and spawns the front thread and the workers.
  /// False (with the reason in *error) when the socket cannot be set up.
  bool start(std::string* error = nullptr);

  /// Graceful stop; see class comment. Idempotent.
  void shutdown(bool cancel_inflight = false);

  bool running() const { return running_; }
  const ServerConfig& config() const { return config_; }

  /// Point-in-time copy of the server's counters ("serve.*").
  obs::MetricsRegistry metrics_snapshot() const;

 private:
  struct Job {
    std::uint64_t conn_id = 0;
    std::string request_id;
    trace::ScenarioConfig scenario;
    double deadline_ms = 0.0;
    std::shared_ptr<sim::CancelToken> token;
  };

  struct Connection {
    int fd = -1;
    std::string inbox;  ///< unterminated input tail, at most kMaxLineBytes
    std::string outbox;
    bool closing = false;  ///< input ignored; close once outbox is flushed
  };

  void front_loop();
  void worker_loop();

  void read_lines(std::uint64_t conn_id, Connection& conn, const char* data,
                  std::size_t n);
  void handle_line(std::uint64_t conn_id, Connection& conn,
                   std::string_view line);
  void close_connection(std::uint64_t conn_id);
  void push_response(std::uint64_t conn_id, std::string line);
  void wake_front();
  void count(std::string_view name, double v = 1.0);
  void gauge_max(std::string_view name, double v);

  ServerConfig config_;
  trace::ScenarioRunner runner_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};

  std::vector<std::thread> workers_;
  std::thread front_;

  /// One admitted run, queued or in flight: what a disconnect or
  /// shutdown(true) needs to cancel it.
  struct LiveRun {
    std::uint64_t conn_id = 0;
    std::shared_ptr<sim::CancelToken> token;
  };

  // Admission queue + live-run list (one mutex guards both). A run joins
  // live_ at admission and leaves it when its worker retires it, so the
  // list holds at most queue_depth + workers entries.
  mutable std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::deque<Job> queue_;
  std::size_t inflight_ = 0;
  std::vector<LiveRun> live_;

  // Worker-produced response lines, merged into outboxes by the front.
  std::mutex responses_mu_;
  std::deque<std::pair<std::uint64_t, std::string>> responses_;

  mutable std::mutex metrics_mu_;
  obs::MetricsRegistry metrics_;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> workers_stop_{false};
  std::atomic<bool> front_stop_{false};
  std::atomic<bool> stall_consumed_{false};
  bool shut_down_ = false;
  std::mutex shutdown_mu_;

  std::unordered_map<std::uint64_t, Connection> conns_;  // front thread only
  std::uint64_t next_conn_id_ = 1;                       // front thread only
};

}  // namespace spider::serve
