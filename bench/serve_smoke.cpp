// serve-smoke: end-to-end robustness pin for the sim-as-a-service stack
// (DESIGN.md §11). In one process it:
//
//   1. starts two ScenarioServers, one with an injected worker stall;
//   2. runs a ≥1000-seed campaign across both, with per-run deadlines —
//      the stalled run must end on its deadline and be retried;
//   3. cancels the campaign mid-flight (simulating a killed client) and
//      hard-kills one server;
//   4. resumes from the journal against the surviving server;
//   5. verifies the merged campaign statistics are byte-identical to a
//      serial in-process sweep, and that graceful shutdown
//      leaves both servers stopped.
//
// Exits non-zero on any divergence. --seeds N scales the campaign,
// --json PATH writes a one-object summary.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include <unistd.h>

#include "serve/campaign.hpp"
#include "serve/server.hpp"

namespace {

std::size_t journal_lines(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  std::size_t lines = 0;
  int c;
  while ((c = std::fgetc(f)) != EOF) lines += c == '\n';
  std::fclose(f);
  return lines;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spider;

  std::size_t num_seeds = 1000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      num_seeds = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--seeds N] [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  const std::string tag = std::to_string(::getpid());
  const std::string socket_a = "ss" + tag + "a.sock";
  const std::string socket_b = "ss" + tag + "b.sock";
  const std::string journal = "BENCH_serve_smoke_" + tag + ".jsonl";
  std::remove(journal.c_str());

  trace::ScenarioConfig base;
  base.seed = 0;
  base.duration = sec(6);
  base.clients = 2;
  const std::uint64_t first_seed = 1;
  const std::uint64_t stall_seed = first_seed + 2;

  bool ok = true;
  const auto check = [&ok](bool condition, const char* what) {
    std::printf("%-52s %s\n", what, condition ? "ok" : "FAIL");
    ok = ok && condition;
  };

  // Both servers arm the stall: the campaign's shared seed queue may hand
  // stall_seed to either one, and a retry after the reap may land on the
  // other (still-armed) server — so the totals below allow one or two.
  serve::ServerConfig config_a;
  config_a.socket_path = socket_a;
  config_a.workers = 2;
  config_a.stall_seed = stall_seed;  // injected fault: first run of this
  config_a.stall_ms = 60000.0;       // seed wedges until its token trips
  serve::ScenarioServer server_a(config_a);

  serve::ServerConfig config_b = config_a;
  config_b.socket_path = socket_b;
  serve::ScenarioServer server_b(config_b);

  std::string error;
  if (!server_a.start(&error) || !server_b.start(&error)) {
    std::fprintf(stderr, "serve_smoke: server start failed: %s\n",
                 error.c_str());
    return 1;
  }

  // Phase 1: campaign over both servers; a watcher kills the campaign once
  // a fifth of the seeds are journaled (the "operator hit ^C" moment).
  // Seed stall_seed wedges on whichever server first runs it and must come
  // back as deadline-exceeded once its deadline passes, then succeed on
  // retry.
  sim::CancelToken phase1_cancel;
  serve::CampaignConfig campaign;
  campaign.servers = {socket_a, socket_b};
  campaign.clients_per_server = 2;
  campaign.base = base;
  campaign.first_seed = first_seed;
  campaign.num_seeds = num_seeds;
  campaign.deadline_ms = 3000.0;
  campaign.journal_path = journal;
  campaign.cancel = &phase1_cancel;

  std::atomic<bool> watcher_stop{false};
  std::thread watcher([&] {
    const std::size_t threshold = num_seeds / 5;
    while (!watcher_stop) {
      if (journal_lines(journal) >= threshold) {
        phase1_cancel.request_cancel();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  const serve::CampaignReport phase1 = serve::run_campaign(campaign);
  watcher_stop = true;
  watcher.join();

  check(phase1.completed >= num_seeds / 5, "phase 1: partial completion");
  check(phase1.completed < num_seeds, "phase 1: cancelled before the end");
  const double phase1_stalls =
      server_a.metrics_snapshot().value("serve.stalls_injected") +
      server_b.metrics_snapshot().value("serve.stalls_injected");
  const double phase1_reaps =
      server_a.metrics_snapshot().value("serve.deadline_exceeded") +
      server_b.metrics_snapshot().value("serve.deadline_exceeded");
  check(phase1_stalls >= 1.0, "fault injection: worker stall fired");
  check(phase1_reaps == phase1_stalls,
        "deadline: every stalled run reaped exactly once");

  // Phase 2: hard-kill server B, then resume from the journal. The dead
  // server's socket stays in the list — its workers must fail over.
  server_b.shutdown(/*cancel_inflight=*/true);
  check(!server_b.running(), "kill: server B down");

  serve::CampaignConfig resume = campaign;
  resume.cancel = nullptr;
  const serve::CampaignReport phase2 = serve::run_campaign(resume);
  check(phase2.ok(), "phase 2: resumed campaign completes");
  check(phase2.completed == num_seeds, "phase 2: every seed accounted for");
  check(phase2.resumed >= phase1.completed,
        "phase 2: journal seeds not recomputed");

  // The merged statistics must equal a serial in-process sweep, bit for
  // bit, despite two servers, retries, a deadline reap, a killed server,
  // and a journal resume in the history.
  const serve::CampaignStats oracle =
      serve::serial_campaign_stats(base, first_seed, num_seeds, /*jobs=*/8);
  const std::string campaign_digest = phase2.merged.digest();
  const std::string oracle_digest = oracle.digest();
  check(campaign_digest == oracle_digest,
        "merge: campaign digest equals serial sweep");
  if (campaign_digest != oracle_digest) {
    std::printf("  campaign: %s\n  serial:   %s\n", campaign_digest.c_str(),
                oracle_digest.c_str());
  }

  server_a.shutdown();
  check(!server_a.running(), "graceful shutdown: server A drained");

  // Phase 2 may have re-armed the stall on whichever server had not yet
  // consumed it; the invariant that survives every schedule is that each
  // injected stall was reaped by its deadline, never left wedged.
  const double total_stalls =
      server_a.metrics_snapshot().value("serve.stalls_injected") +
      server_b.metrics_snapshot().value("serve.stalls_injected");
  const double total_reaps =
      server_a.metrics_snapshot().value("serve.deadline_exceeded") +
      server_b.metrics_snapshot().value("serve.deadline_exceeded");
  check(total_reaps == total_stalls, "deadline: no stall left unreaped");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"seeds\":%zu,\"phase1_completed\":%zu,"
                   "\"phase2_resumed\":%zu,\"retries\":%zu,"
                   "\"deadline_exceeded\":%.0f,\"ok\":%s}\n",
                   num_seeds, phase1.completed, phase2.resumed,
                   phase1.retries + phase2.retries, total_reaps,
                   ok ? "true" : "false");
      std::fclose(f);
    }
  }
  std::remove(journal.c_str());

  std::printf("serve-smoke: %s\n", ok ? "all green" : "FAILURES");
  return ok ? 0 : 1;
}
