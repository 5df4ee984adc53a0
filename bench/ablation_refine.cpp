// Ablation: how much accuracy does RefineProfile (Algorithm 3) add on top
// of the naive energy profile (Algorithm 2)? This isolates the paper's key
// design choice — the naive profile is *not* always optimal (Section 4.2).
#include <iostream>

#include "bench/bench_common.h"
#include "experiments/runner.h"
#include "sched/fr_opt.h"
#include "sched/naive_solution.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload/generator.h"

int main() {
  using namespace dsct;
  bench::printHeader("Ablation — naive profile vs refined profile",
                     "Section 4.2 design choice (Algorithm 3)");

  const int n = bench::fullScale() ? 100 : 50;
  const int reps = bench::fullScale() ? 30 : 10;
  const std::vector<double> betas{0.1, 0.2, 0.3, 0.4, 0.6, 0.8};

  ExperimentRunner runner;
  Table table({"beta", "naive total acc", "refined total acc", "gain",
               "transfers"});
  CsvWriter csv("ablation_refine.csv",
                {"beta", "naive_accuracy", "refined_accuracy", "gain",
                 "transfers"});
  for (double beta : betas) {
    const auto stats = runner.replicateMulti(reps, 4, [&](int rep) {
      Rng rng(deriveSeed(1234, static_cast<std::uint64_t>(rep) * 97u +
                                   static_cast<std::uint64_t>(beta * 1000)));
      std::vector<Machine> machines{Machine{2.0, 80e-3, "m1"},
                                    Machine{5.0, 70e-3, "m2"}};
      const auto thetas =
          makeThetasEarliestHighEfficient(n, 0.3, 4.0, 4.9, 0.1, 1.0, rng);
      ScenarioSpec spec;
      spec.numTasks = n;
      spec.numMachines = 2;
      spec.rho = 0.01;
      spec.beta = beta;
      const Instance inst = buildInstance(std::move(machines), thetas, spec, rng);
      NaiveSolution naive = computeNaiveSolution(inst);
      const double naiveAcc = naive.schedule.totalAccuracy(inst);
      const RefineStats rs = refineProfile(inst, naive.schedule);
      const double refinedAcc = naive.schedule.totalAccuracy(inst);
      return std::vector<double>{naiveAcc, refinedAcc, refinedAcc - naiveAcc,
                                 static_cast<double>(rs.transfers)};
    });
    table.addRow(std::vector<double>{beta, stats[0].mean(), stats[1].mean(),
                                     stats[2].mean(), stats[3].mean()});
    csv.addRow(std::vector<double>{beta, stats[0].mean(), stats[1].mean(),
                                   stats[2].mean(), stats[3].mean()});
  }
  table.print(std::cout);
  std::cout << "\ntakeaway: the refinement step recovers the accuracy the "
               "naive profile leaves on the table when early tasks are "
               "deadline-constrained on the efficient machine.\n";

  // --- Slack-engine counters -----------------------------------------------
  // The incremental SlackEngine's cache behaviour at the sizes where an
  // O(n) per-candidate scratch scan would dominate refine time: how many
  // slack queries the memo answers and how few column rebuilds the
  // per-machine invalidation leaves (bit-identity with the scratch scan is
  // enforced by tests/sched_slack_cache_test.cpp).
  bench::printHeader("Ablation — incremental slack engine counters",
                     "RefineProfile deadline-slack cache (sched/slack_engine)");
  const std::vector<int> slackSizes =
      bench::fullScale() ? std::vector<int>{500, 1000, 2000}
                         : std::vector<int>{500, 800};
  Table slackTable({"n", "slack queries", "slack hits", "rebuilds",
                    "transfers", "donor checks"});
  CsvWriter slackCsv("ablation_refine_slack.csv",
                     {"n", "slack_queries", "slack_hits", "slack_rebuilds",
                      "transfers", "donor_checks"});
  for (int nn : slackSizes) {
    Rng rng(deriveSeed(5150, static_cast<std::uint64_t>(nn)));
    std::vector<Machine> machines{Machine{2.0, 80e-3, "m1"},
                                  Machine{5.0, 70e-3, "m2"},
                                  Machine{3.0, 60e-3, "m3"},
                                  Machine{4.0, 90e-3, "m4"}};
    const auto thetas =
        makeThetasEarliestHighEfficient(nn, 0.3, 4.0, 4.9, 0.1, 1.0, rng);
    ScenarioSpec spec;
    spec.numTasks = nn;
    spec.numMachines = static_cast<int>(machines.size());
    spec.rho = 0.01;
    spec.beta = 0.2;
    const Instance inst = buildInstance(std::move(machines), thetas, spec, rng);
    NaiveSolution naive = computeNaiveSolution(inst);
    const RefineStats inc = refineProfile(inst, naive.schedule);

    const std::vector<double> row{
        static_cast<double>(nn), static_cast<double>(inc.slack.queries),
        static_cast<double>(inc.slack.hits),
        static_cast<double>(inc.slack.rebuilds),
        static_cast<double>(inc.transfers),
        static_cast<double>(inc.donorChecks)};
    slackTable.addRow(row);
    slackCsv.addRow(row);
  }
  slackTable.print(std::cout);
  std::cout << "\ntakeaway: with the (task, machine) memo + per-machine "
               "version invalidation, a transfer re-scans only the two "
               "touched machine columns instead of every candidate pair. "
               "The live-donor scan examines at most one donor per transfer "
               "plus one per grower (donor checks <= transfers + slack "
               "queries).\n";

  // --- Cross-solve cache ablation -------------------------------------------
  // FR-OPT with the sharded cross-solve ProfileCache on a pool, whose workers
  // read the cache concurrently: a cold solve populates the cache, a warm
  // re-solve reuses it. Results are bit-identical either way
  // (tests/sched_concurrent_cache_test.cpp); the shard-hit and contention
  // columns show how the concurrent reads behave.
  bench::printHeader("Ablation — cross-solve profile cache, cold vs warm",
                     "Sharded ProfileCache + pooled evaluation");
  const std::vector<int> cacheSizes = bench::fullScale()
                                          ? std::vector<int>{100, 200, 400}
                                          : std::vector<int>{60, 120};
  ThreadPool cachePool;
  Table cacheTable({"n", "cold s", "warm s", "cross hits", "cross misses",
                    "contended", "shards"});
  CsvWriter cacheCsv("ablation_refine_cache.csv",
                     {"n", "cold_seconds", "warm_seconds", "cross_hits",
                      "cross_misses", "cross_contended", "cache_shards"});
  for (int nn : cacheSizes) {
    Rng rng(deriveSeed(6160, static_cast<std::uint64_t>(nn)));
    std::vector<Machine> machines{Machine{2.0, 80e-3, "m1"},
                                  Machine{5.0, 70e-3, "m2"}};
    const auto thetas =
        makeThetasEarliestHighEfficient(nn, 0.3, 4.0, 4.9, 0.1, 1.0, rng);
    ScenarioSpec spec;
    spec.numTasks = nn;
    spec.numMachines = 2;
    spec.rho = 0.01;
    spec.beta = 0.2;
    const Instance inst = buildInstance(std::move(machines), thetas, spec, rng);

    ProfileCache cache;
    FrOptOptions opts;
    opts.sharedCache = &cache;
    opts.pool = &cachePool;

    Stopwatch coldWatch;
    solveFrOpt(inst, opts);
    const double coldSeconds = coldWatch.elapsedSeconds();

    Stopwatch warmWatch;
    const FrOptResult warm = solveFrOpt(inst, opts);
    const double warmSeconds = warmWatch.elapsedSeconds();

    const std::vector<double> row{static_cast<double>(nn), coldSeconds,
                                  warmSeconds,
                                  static_cast<double>(warm.counters.crossHits),
                                  static_cast<double>(warm.counters.crossMisses),
                                  static_cast<double>(
                                      warm.counters.crossContended),
                                  static_cast<double>(
                                      warm.counters.crossShards)};
    cacheTable.addRow(row);
    cacheCsv.addRow(row);
  }
  cacheTable.print(std::cout);
  std::cout << "\ntakeaway: the warm solve replays the cold solve's "
               "evaluations out of the sharded cache; contention stays low "
               "because the shard index spreads the exact-bit keys.\n";
  return 0;
}
