// Appendix A: multi-AP selection is 0-1 knapsack (NP-hard). This bench
// demonstrates the practical consequence that motivates Spider's utility
// heuristic (Design Choice 2): the exact optimum's work grows as 2^n while
// a greedy pass stays linear and captures most of the value. The exact
// solver's wall time per n is host-dependent, so it goes to stderr and
// stdout stays deterministic.

#include <chrono>
#include <cstdio>

#include "analysis/selection_opt.hpp"
#include "bench/bench_util.hpp"
#include "util/random.hpp"

int main() {
  using namespace spider;
  using namespace spider::model;

  bench::banner("Appendix A — optimal AP-subset selection vs heuristics",
                "value = Ti*Wi, cost = Ti+Di, budget = road-segment time T");

  Rng rng(7);
  TextTable table({"n APs", "exact value", "greedy value", "greedy/exact",
                   "dp value", "exact work", "greedy work"});

  for (std::size_t n : {4u, 8u, 12u, 16u, 20u, 22u}) {
    std::vector<ApCandidate> candidates;
    for (std::size_t i = 0; i < n; ++i) {
      candidates.push_back(ApCandidate{.time_in_range = rng.uniform(2.0, 20.0),
                                       .bandwidth = rng.uniform(0.5, 5.0),
                                       .overhead = rng.uniform(0.5, 3.0)});
    }
    const double budget = 40.0;

    const auto t0 = std::chrono::steady_clock::now();
    const auto exact = select_exhaustive(candidates, budget);
    const auto t1 = std::chrono::steady_clock::now();
    const auto greedy = select_greedy(candidates, budget);
    const auto dp = select_knapsack_dp(candidates, budget, 0.05);

    table.add_row({
        std::to_string(n),
        TextTable::num(exact.value, 1),
        TextTable::num(greedy.value, 1),
        TextTable::percent(exact.value > 0 ? greedy.value / exact.value : 1.0),
        TextTable::num(dp.value, 1),
        std::to_string(exact.nodes_explored),
        std::to_string(greedy.nodes_explored),
    });
    std::fprintf(stderr, "n = %zu: exact time %lld us\n", n,
                 static_cast<long long>(
                     std::chrono::duration_cast<std::chrono::microseconds>(
                         t1 - t0)
                         .count()));
  }
  table.print(std::cout);
  std::printf(
      "\nThe exact optimum doubles its work per added AP — infeasible inside\n"
      "an encounter lasting a few seconds, hence Spider's join-history\n"
      "utility heuristic.\n");
  return 0;
}
