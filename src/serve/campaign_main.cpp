// spider_campaign: fault-tolerant seed-campaign client (DESIGN.md §11).
//
//   spider_campaign --server a.sock [--server b.sock ...] --seeds N
//                   [--first-seed N] [--conns N] [--deadline-ms X]
//                   [--timeout-ms X] [--max-attempts N] [--journal PATH]
//                   [--scenario-json JSON] [--duration-s X] [--speed-mps X]
//                   [--clients N] [--shards N] [--trace PATH]
//                   [--check-serial]
//
// Shards seeds first-seed .. first-seed+N-1 across the given servers,
// retries failed or timed-out seeds with exponential backoff, journals
// completed seeds for resume, and prints the ascending-seed merged
// statistics digest. --check-serial additionally runs the same seeds
// in-process and verifies the digests are byte-identical.
//
// --scenario-json seeds the base scenario from the shared scenario JSON
// round trip (the same format the serve protocol speaks, including
// client_mix and impairments); later flags override its fields. --trace
// replays a recorded channel-occupancy file (CSV/JSONL) as the campaign's
// impairment source.
//
// Exit codes: 0 all seeds completed (and digests match when checked),
// 1 some seeds failed or the serial check mismatched, 2 usage error,
// 130 interrupted by SIGINT/SIGTERM (journal left for resume).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "serve/campaign.hpp"
#include "trace/scenario_json.hpp"

namespace {

spider::sim::CancelToken g_cancel;

void on_signal(int) { g_cancel.request_cancel(); }

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --server PATH [--server PATH ...] --seeds N\n"
      "          [--first-seed N] [--conns N] [--deadline-ms X]\n"
      "          [--timeout-ms X] [--max-attempts N] [--journal PATH]\n"
      "          [--scenario-json JSON] [--duration-s X] [--speed-mps X]\n"
      "          [--clients N] [--shards N] [--trace PATH]\n"
      "          [--check-serial]\n",
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
  spider::serve::CampaignConfig config;
  config.cancel = &g_cancel;
  bool check_serial = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(flag, "--server") == 0) {
      config.servers.emplace_back(value());
    } else if (std::strcmp(flag, "--seeds") == 0) {
      config.num_seeds =
          static_cast<std::size_t>(parse_number(argv[0], flag, value()));
    } else if (std::strcmp(flag, "--first-seed") == 0) {
      config.first_seed =
          static_cast<std::uint64_t>(parse_number(argv[0], flag, value()));
    } else if (std::strcmp(flag, "--conns") == 0) {
      config.clients_per_server =
          static_cast<std::size_t>(parse_number(argv[0], flag, value()));
    } else if (std::strcmp(flag, "--deadline-ms") == 0) {
      config.deadline_ms = parse_number(argv[0], flag, value());
    } else if (std::strcmp(flag, "--timeout-ms") == 0) {
      config.response_timeout_ms = parse_number(argv[0], flag, value());
    } else if (std::strcmp(flag, "--max-attempts") == 0) {
      config.max_attempts =
          static_cast<int>(parse_number(argv[0], flag, value()));
    } else if (std::strcmp(flag, "--journal") == 0) {
      config.journal_path = value();
    } else if (std::strcmp(flag, "--scenario-json") == 0) {
      // The whole base scenario in one shot, via the shared serde; later
      // scenario flags override individual fields.
      std::string error;
      if (!spider::trace::parse_scenario_json(value(), &config.base, &error)) {
        std::fprintf(stderr, "%s: --scenario-json: %s\n", argv[0],
                     error.c_str());
        return 2;
      }
    } else if (std::strcmp(flag, "--trace") == 0) {
      config.base.impairments =
          spider::trace::ImpairmentSource::trace_file(value());
    } else if (std::strcmp(flag, "--duration-s") == 0) {
      config.base.duration = spider::sec(parse_number(argv[0], flag, value()));
    } else if (std::strcmp(flag, "--speed-mps") == 0) {
      config.base.speed_mps = parse_number(argv[0], flag, value());
    } else if (std::strcmp(flag, "--clients") == 0) {
      config.base.clients =
          static_cast<int>(parse_number(argv[0], flag, value()));
    } else if (std::strcmp(flag, "--shards") == 0) {
      // 1 = serial, >1 = formation width; range-checked by validate()
      // below like every other scenario field.
      config.base.shards =
          static_cast<int>(parse_number(argv[0], flag, value()));
    } else if (std::strcmp(flag, "--check-serial") == 0) {
      check_serial = true;
    } else if (std::strcmp(flag, "--help") == 0) {
      usage(argv[0]);
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], flag);
      usage(argv[0]);
    }
  }
  if (config.servers.empty() || config.num_seeds == 0) {
    std::fprintf(stderr, "%s: --server and --seeds are required\n", argv[0]);
    usage(argv[0]);
  }
  const std::vector<spider::trace::ConfigIssue> issues =
      config.base.validate();
  if (!issues.empty()) {
    std::fprintf(stderr, "%s: invalid scenario: %s\n", argv[0],
                 spider::trace::join_issues(issues).c_str());
    return 2;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  const spider::serve::CampaignReport report =
      spider::serve::run_campaign(config);
  std::fprintf(stderr,
               "spider_campaign: %zu/%zu seeds completed "
               "(%zu from journal, %zu retries, %zu failed)\n",
               report.completed, config.num_seeds, report.resumed,
               report.retries, report.failures.size());
  for (const spider::serve::SeedFailure& failure : report.failures) {
    std::fprintf(stderr, "  seed %llu: %s (%s)\n",
                 static_cast<unsigned long long>(failure.seed),
                 failure.kind.c_str(), failure.message.c_str());
  }
  std::printf("%s\n", report.merged.digest().c_str());

  if (g_cancel.cancel_requested()) return 130;
  if (!report.ok()) return 1;
  if (check_serial) {
    const spider::serve::CampaignStats oracle =
        spider::serve::serial_campaign_stats(config.base, config.first_seed,
                                             config.num_seeds);
    if (oracle.digest() != report.merged.digest()) {
      std::fprintf(stderr, "spider_campaign: serial check MISMATCH\n  %s\n",
                   oracle.digest().c_str());
      return 1;
    }
    std::fprintf(stderr, "spider_campaign: serial check ok\n");
  }
  return 0;
}
