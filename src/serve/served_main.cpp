// spider_served: the resident scenario server (DESIGN.md §11).
//
//   spider_served --socket run.sock [--workers N] [--queue-depth N]
//                 [--deadline-ms X] [--retry-after-ms X] [--tracing]
//
// Serves newline-delimited JSON requests ({"op":"run"|"ping"|"metrics"})
// until SIGINT/SIGTERM, then drains in-flight runs, flushes responses,
// and exits 0. Malformed CLI usage exits 2.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include "serve/server.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--workers N] [--queue-depth N]\n"
               "          [--deadline-ms X] [--retry-after-ms X] [--tracing]\n",
               argv0);
  std::exit(2);
}

double parse_number(const char* argv0, const char* flag, const char* value) {
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0') {
    std::fprintf(stderr, "%s: %s needs a number, got '%s'\n", argv0, flag,
                 value);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  spider::serve::ServerConfig config;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(flag, "--socket") == 0) {
      config.socket_path = value();
    } else if (std::strcmp(flag, "--workers") == 0) {
      config.workers =
          static_cast<std::size_t>(parse_number(argv[0], flag, value()));
    } else if (std::strcmp(flag, "--queue-depth") == 0) {
      config.queue_depth =
          static_cast<std::size_t>(parse_number(argv[0], flag, value()));
    } else if (std::strcmp(flag, "--deadline-ms") == 0) {
      config.default_deadline_ms = parse_number(argv[0], flag, value());
    } else if (std::strcmp(flag, "--retry-after-ms") == 0) {
      config.retry_after_ms = parse_number(argv[0], flag, value());
    } else if (std::strcmp(flag, "--tracing") == 0) {
      config.tracing = true;
    } else if (std::strcmp(flag, "--help") == 0) {
      usage(argv[0]);
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], flag);
      usage(argv[0]);
    }
  }
  if (config.socket_path.empty()) {
    std::fprintf(stderr, "%s: --socket is required\n", argv[0]);
    usage(argv[0]);
  }

  spider::serve::ScenarioServer server(config);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
    return 1;
  }
  std::fprintf(stderr, "spider_served: listening on %s (%zu workers)\n",
               config.socket_path.c_str(), server.config().workers);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::fprintf(stderr, "spider_served: draining...\n");
  server.shutdown();
  std::ostringstream metrics;
  server.metrics_snapshot().write_json(metrics);
  std::fprintf(stderr, "spider_served: %s\n", metrics.str().c_str());
  return 0;
}
